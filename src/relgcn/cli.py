"""Command-line harness.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from .errors import ConfigError, DataError, NumericalError, RelgcnError
from .pipeline import (
    SWEEP_AXES,
    PipelineConfig,
    default_values,
    rule_coverage_report,
    run_pipeline,
    run_stages,
    sensitivity_sweep,
)
from .synth import SyntheticSpec, generate_synthetic

log = logging.getLogger("relgcn")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="config file with flat dotted keys")
    parser.add_argument("--seed", type=int, help="derive every seed in the config from this one")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a single config key (flags win over the config file)",
    )


def derived_seeds(seed: int) -> dict[str, int]:
    """The value ``--seed seed`` gives each ``*seed`` key: a word of
    ``seed``'s `np.random.SeedSequence`, with its residue modulo twice the
    number of keys set to twice the key's position in name order.  Every
    seed is then even in that modulus and every seed + 1 odd, so no two
    keys share a seed, nor does any key with the negative-density contrast,
    which draws with ``learn.seed + 1``."""
    if seed < 0:
        raise ConfigError("an int >= 0", "--seed", seed)
    keys = sorted(key for key in default_values() if key.endswith("seed"))
    step = 2 * len(keys)
    words = np.random.SeedSequence(seed).generate_state(len(keys)).tolist()
    return {key: word // step * step + 2 * i for i, (key, word) in enumerate(zip(keys, words))}


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    overrides: dict[str, object] = {}
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    if args.out:
        overrides["out"] = args.out
    if args.seed is not None:
        overrides.update(derived_seeds(args.seed))
    if args.config:
        return PipelineConfig.from_file(args.config, overrides)
    return PipelineConfig.from_overrides(overrides)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="relgcn",
        description=(
            "Link prediction on relational knowledge bases: learned "
            "first-order rule features and a distance-matrix GCN"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("learn", "learn positive- and negative-density rule sets"),
        ("featurize", "build the rule-count matrix X"),
        ("train", "train the GCN on persisted features"),
        ("eval", "evaluate the trained model on the test split"),
        ("pipeline", "run all stages end to end"),
        ("sweep", "sensitivity sweep over one axis"),
        ("inspect-rules", "pretty-print learned rules with coverage statistics"),
        ("synth", "generate a synthetic planted-rule dataset"),
    ]:
        p = sub.add_parser(name, help=help_text)
        if name == "synth":
            # The generator reads no config: its flags are all it takes.
            p.add_argument("--seed", type=int, help="generator seed (default 0)")
            p.add_argument("--out", help="output directory")
            p.add_argument("--verbose", action="store_true")
            p.add_argument("--persons", type=int, default=60)
            p.add_argument("--universities", type=int, default=5)
            p.add_argument("--topics", type=int, default=8)
            p.add_argument("--rules", type=int, default=2)
            p.add_argument("--noise", type=float, default=0.0)
            p.add_argument("--positives", type=int, default=None)
            p.add_argument("--negatives", type=int, default=600)
            continue
        _add_common(p)
        if name == "sweep":
            p.add_argument(
                "--axis",
                required=True,
                choices=sorted(SWEEP_AXES),
            )

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _dispatch(args)
    except ConfigError as exc:
        log.error("%s", exc)
        return 1
    except (DataError, OSError) as exc:
        log.error("%s", exc)
        return 2
    except NumericalError as exc:
        log.error("%s", exc)
        return 3
    except RelgcnError as exc:
        log.error("%s", exc)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "synth":
        spec = SyntheticSpec(
            n_persons=args.persons,
            n_universities=args.universities,
            n_topics=args.topics,
            n_rules=args.rules,
            noise_rate=args.noise,
            n_positives=args.positives,
            n_negatives=args.negatives,
            seed=args.seed if args.seed is not None else 0,
        )
        out = args.out or "out"
        data = generate_synthetic(spec, out)
        print(
            f"wrote facts/pos/neg to {out}: {len(data.positives)} positives, "
            f"{len(data.negatives)} negatives"
        )
        return 0

    config = _build_config(args)
    if args.command in ("learn", "featurize", "train", "eval"):
        result, _ = run_stages(config, (args.command,))[args.command]
    if args.command == "learn":
        print(f"rules written to {result}")
    elif args.command == "featurize":
        print(f"feature matrix X written: {result.shape[0]} targets x {result.shape[1]} rules")
    elif args.command == "train":
        print(f"trained for {len(result[1])} epochs")
    elif args.command == "eval":
        print(result.to_text(), end="")
    elif args.command == "pipeline":
        report = run_pipeline(config)
        print(report.to_text(), end="")
    elif args.command == "sweep":
        results = sensitivity_sweep(config, args.axis)
        for value, report in results:
            auc = "" if report.auc_pr is None else f"{report.auc_pr:.4f}"
            print(f"{args.axis}={value}: f1={report.f1:.4f} auc_pr={auc}")
    elif args.command == "inspect-rules":
        print(rule_coverage_report(config), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())

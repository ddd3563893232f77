"""Command-line harness.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields

from .errors import ConfigError, DataError, NumericalError, RelgcnError
from .pipeline import (
    SWEEP_AXES,
    PipelineConfig,
    derived_seeds,
    metrics_table,
    rule_coverage_report,
    run_pipeline,
    run_stages,
    sensitivity_sweep,
)
from .synth import SyntheticSpec, generate_synthetic

log = logging.getLogger("relgcn")

# Each synth flag and the SyntheticSpec field it sets; a flag not given
# leaves the field's default.
_SYNTH_FLAGS = {
    "persons": "n_persons", "universities": "n_universities", "topics": "n_topics",
    "rules": "n_rules", "noise": "noise_rate", "positives": "n_positives",
    "negatives": "n_negatives", "seed": "seed",
}


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
            p.add_argument("--out", help="output directory")
            p.add_argument("--verbose", action="store_true")
            defaults = {f.name: f.default for f in fields(SyntheticSpec)}
            for flag, field in _SYNTH_FLAGS.items():
                default = defaults[field]
                p.add_argument(
                    f"--{flag}", dest=field, metavar=flag.upper(), default=argparse.SUPPRESS,
                    type=float if isinstance(default, float) else int,
                    help=f"SyntheticSpec.{field} (default {default})",
                )
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
        spec = SyntheticSpec(**{f: getattr(args, f) for f in _SYNTH_FLAGS.values() if f in args})
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
        print(f"rules written to {config.out_dir() / 'rules.txt'}")
    elif args.command == "featurize":
        _, X, _ = result
        print(f"feature matrix X written: {X.shape[0]} targets x {X.shape[1]} rules")
    elif args.command == "train":
        *_, history = result
        print(f"trained for {len(history)} epochs")
    elif args.command in ("eval", "pipeline"):
        report = result if args.command == "eval" else run_pipeline(config)
        print(metrics_table([(None, report)]), end="")
    elif args.command == "sweep":
        print(metrics_table(sensitivity_sweep(config, args.axis), args.axis), end="")
    elif args.command == "inspect-rules":
        print(rule_coverage_report(config), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())

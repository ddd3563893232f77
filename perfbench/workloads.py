"""The benchmark's workloads: input generators, pipeline calls, floors.

Each workload writes its inputs (facts, positives, optionally negatives)
into a data directory, and runs one public pipeline entry point on them
into a fresh output directory.  Every workload pins its data, because the
cost of a call follows the data by more than a bound could absorb; the
workload seed sets the GCN seed (``train.seed``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from relgcn.pipeline import PipelineConfig, run_pipeline, sensitivity_sweep
from relgcn.synth import SyntheticSpec, generate_synthetic

TINY = "tiny"
SWEEP_TABLE = "sweep_hidden_size.csv"

# The acceptance spec of criterion 6 (tests/test_acceptance.py).
PLANTED_SPEC = dict(
    n_persons=60, n_universities=5, n_topics=8, n_rules=2, noise_rate=0.05,
    n_positives=150, n_negatives=600, seed=3,
)
PLANTED_OVERRIDES = {
    "learn.k_pos": "3",
    "learn.k_neg": "3",
    "learn.max_constants_for_grounding": "0",
    "split.seed": "2",
}
SWEEP_OVERRIDES = {
    # Two positive rules recover both planted rules on every seed tried;
    # with one, test AUC-PR swung between 0.62 and 0.73 across seeds.
    "learn.k_pos": "2",
    "learn.k_neg": "1",
    "learn.max_body_length": "2",
    "learn.max_constants_for_grounding": "0",
    # Every sweep point trains all epochs, so GCN work does not depend on
    # where early stopping happens to fire for a given seed.
    "train.patience": "200",
}
# Generator seeds of the pinned sweep and sampled-topics data: the first
# seed, not a chosen one.
SWEEP_SEED = 0
TOPICS_KB_SEED = 0
TOPICS_OVERRIDES = {
    "negatives.ratio": "2",
    "learn.max_constants_for_grounding": "0",
    # All 200 epochs, as in the sweep.  With the default patience of 10 the
    # small validation split let GCN seed 309 stop after 24 epochs with
    # test F1 0.27, below the floor; it also made the epochs trained, and
    # so the GCN's work, follow the seed.
    "train.patience": "200",
}


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[Path, str], None]
    call: Callable[[Path, Path, int], None]
    # Outputs checked against the first call's bytes on every later call.
    outputs: tuple[str, ...]
    # Floors on test-split AUC-PR and F1 at full scale (the lowest report
    # for a sweep); planted-750's are acceptance criterion 6.  Tiny inputs
    # are too small for a meaningful floor.
    auc_floor: float
    f1_floor: float
    # Extra CLI arguments for the plain `relgcn pipeline` reference run,
    # or None when the workload is not compared against the CLI.
    cli_overrides: Callable[[Path, int], dict[str, str]] | None = None


# -- planted ---------------------------------------------------------------


def _planted_spec(scale: str) -> SyntheticSpec:
    if scale == TINY:
        return SyntheticSpec(**dict(PLANTED_SPEC, n_persons=20, n_positives=15,
                                    n_negatives=45))
    return SyntheticSpec(**PLANTED_SPEC)


def generate_planted(data: Path, scale: str) -> None:
    generate_synthetic(_planted_spec(scale), data)


def planted_overrides(data: Path, seed: int) -> dict[str, str]:
    return {
        "facts": str(data / "facts.txt"),
        "pos": str(data / "pos.txt"),
        "neg": str(data / "neg.txt"),
        **PLANTED_OVERRIDES,
        "train.seed": str(seed),
    }


def call_planted(data: Path, out: Path, seed: int) -> None:
    run_pipeline(PipelineConfig.from_overrides({**planted_overrides(data, seed), "out": str(out)}))


# -- hidden-size sweep -----------------------------------------------------


def generate_sweep(data: Path, scale: str) -> None:
    # Pinned: the size of the dense CSV text, and so the time to write and
    # read it, follows the data; across synth seeds 40-49 one sweep took
    # 5.2 to 7.1 s, in the same order on two sets of runs.
    if scale == TINY:
        spec = SyntheticSpec(n_persons=20, n_positives=15, n_negatives=45, seed=SWEEP_SEED)
    else:
        spec = SyntheticSpec(n_persons=60, n_positives=100, n_negatives=400, seed=SWEEP_SEED)
    generate_synthetic(spec, data)


def call_sweep(data: Path, out: Path, seed: int) -> None:
    config = PipelineConfig.from_overrides(
        {
            "facts": str(data / "facts.txt"),
            "pos": str(data / "pos.txt"),
            "neg": str(data / "neg.txt"),
            "out": str(out),
            **SWEEP_OVERRIDES,
            "train.seed": str(seed),
        }
    )
    sensitivity_sweep(config, "hidden_size")


# -- sampled topics --------------------------------------------------------


@dataclass(frozen=True)
class TopicsSpec:
    persons: int = 1500
    universities: int = 20
    topics: int = 30
    mean_extra_topics: float = 5.0  # each person has 1 + Poisson(mean) topics
    positives: int = 40
    min_shared_topics: int = 4


def topics_inputs(spec: TopicsSpec, seed: int) -> tuple[str, str]:
    """Facts text and positives text of a seeded co-authorship KB.

    Every person has one affiliation and 1 + Poisson(mean) distinct
    topics.  Positives are distinct unordered person pairs sharing at
    least ``min_shared_topics`` topics, found by seeded rejection sampling.
    There is no negatives file: the pipeline samples negatives closed-world.
    """
    rng = np.random.default_rng(seed)
    names = [f"P{i:04d}" for i in range(spec.persons)]
    affiliation = rng.integers(0, spec.universities, size=spec.persons)
    counts = np.minimum(1 + rng.poisson(spec.mean_extra_topics, size=spec.persons),
                        spec.topics)
    member = np.zeros((spec.persons, spec.topics), dtype=bool)
    for i, c in enumerate(counts):
        member[i, rng.choice(spec.topics, size=int(c), replace=False)] = True

    lines = [
        "@predicate Affiliation(person, university)",
        "@predicate CoAuthor(person, person)",
        "@predicate ResearchTopic(person, topic)",
    ]
    lines += [f"Affiliation({names[i]}, U{u:02d})." for i, u in enumerate(affiliation)]
    lines += [
        f"ResearchTopic({names[i]}, T{t:02d})."
        for i in range(spec.persons)
        for t in np.flatnonzero(member[i])
    ]
    pairs: set[tuple[int, int]] = set()
    for _ in range(10_000 * spec.positives):
        if len(pairs) == spec.positives:
            break
        a, b = sorted(int(x) for x in rng.choice(spec.persons, size=2, replace=False))
        if int(np.sum(member[a] & member[b])) >= spec.min_shared_topics:
            pairs.add((a, b))
    else:
        raise ValueError("too few person pairs share enough topics")
    positives = [f"CoAuthor({names[a]}, {names[b]})." for a, b in sorted(pairs)]
    return "\n".join(lines) + "\n", "\n".join(positives) + "\n"


def generate_topics(data: Path, scale: str) -> None:
    # Pinned: with a KB drawn per seed, the coverage tests of one call ranged
    # from 117k to 182k over generator seeds 0-5 (2000 persons, 100 positives).
    spec = TopicsSpec(persons=200, positives=10) if scale == TINY else TopicsSpec()
    facts, positives = topics_inputs(spec, TOPICS_KB_SEED)
    data.mkdir(parents=True, exist_ok=True)
    (data / "facts.txt").write_text(facts)
    (data / "pos.txt").write_text(positives)


def call_topics(data: Path, out: Path, seed: int) -> None:
    config = PipelineConfig.from_overrides(
        {
            "facts": str(data / "facts.txt"),
            "pos": str(data / "pos.txt"),
            "out": str(out),
            **TOPICS_OVERRIDES,
            "train.seed": str(seed),
        }
    )
    run_pipeline(config)


# Why each workload exists is recorded with its name in BENCHMARK.json.
PIPELINE_OUTPUTS = ("rules.txt", "metrics.csv")
WORKLOADS = {
    w.name: w
    for w in [
        Workload("planted-750", generate_planted, call_planted, PIPELINE_OUTPUTS,
                 auc_floor=0.95, f1_floor=0.9, cli_overrides=planted_overrides),
        Workload("sweep-hidden-500", generate_sweep, call_sweep,
                 (*PIPELINE_OUTPUTS, SWEEP_TABLE), auc_floor=0.95, f1_floor=0.9),
        Workload("sampled-topics", generate_topics, call_topics, PIPELINE_OUTPUTS,
                 auc_floor=0.8, f1_floor=0.45),
    ]
}

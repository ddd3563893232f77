"""Golden outputs: the benchmark's three workloads, at full scale and GCN
seed 0, must write the artifacts recorded in ``golden.json``, both as
their calls run (each stage handed the result of the one before) and run
one stage at a time, each stage reading the run directory as a stage
command does.

A run leaves exactly the recorded files, and a manifest if it wrote
one, so no artifact goes unchecked.  A refactor keeps every artifact
byte-identical.  ``rules.txt``,
``metrics.csv`` and ``sweep_hidden_size.csv`` are compared as text, so a
failure shows the diff; ``X.csv``, ``targets.csv``, ``splits.json``,
``threshold.json``, ``history.csv`` and ``test_scores.csv`` by sha256.
The last two hold full-precision GCN floats, so their hashes hold for
the BLAS the record was made with; another may round a matmul otherwise.

A change that declares new outputs regenerates the record with
``python3 tests/test_golden.py`` and says so.
"""

import hashlib
import json
import runpy
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORD = Path(__file__).resolve().parent / "golden.json"
TEXT = ("rules.txt", "metrics.csv", "sweep_hidden_size.csv")
HASHED = (
    "X.csv", "targets.csv", "splits.json", "threshold.json", "history.csv", "test_scores.csv"
)


def _workloads() -> dict:
    return runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["WORKLOADS"]


def _outputs(workload, tmp: Path) -> dict[str, dict[str, str]]:
    """The recorded artifacts of one call of ``workload`` at GCN seed 0."""
    workload.generate(tmp / "data", "full")
    workload.call(tmp / "data", tmp / "out", 0)
    return _read_outputs(tmp / "out")


class _Captured(Exception):
    pass


def _staged_outputs(workload, tmp: Path, monkeypatch) -> dict[str, dict[str, str]]:
    """The recorded artifacts of ``workload`` at GCN seed 0 run one stage at
    a time under the config its call builds: learn, then featurize, then
    train and eval, or, for a sweep, the sweep over that run directory."""
    from relgcn import pipeline  # imported here, as running this file puts src/ on the path

    workload.generate(tmp / "data", "full")

    def capture(config, *args, **kwargs):
        raise _Captured(config)

    with monkeypatch.context() as patched:
        patched.setattr(pipeline, "run_stages", capture)
        with pytest.raises(_Captured) as captured:
            workload.call(tmp / "data", tmp / "out", 0)
    config = captured.value.args[0]
    for name in ("learn", "featurize"):
        pipeline.run_stages(config, (name,))
    if "sweep_hidden_size.csv" in workload.outputs:
        workload.call(tmp / "data", tmp / "out", 0)
    else:
        for name in ("train", "eval"):
            pipeline.run_stages(config, (name,))
    return _read_outputs(tmp / "out")


def _read_outputs(out: Path) -> dict[str, dict[str, str]]:
    """Each recorded text file's content and each other recorded file's
    sha256, by name."""
    return {
        "text": {
            name: (out / name).read_text(encoding="utf-8")
            for name in TEXT
            if (out / name).is_file()
        },
        "sha256": {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in HASHED},
    }


WORKLOAD_NAMES = ["planted-750", "sweep-hidden-500", "sampled-topics"]


def _assert_recorded(name: str, got: dict[str, dict[str, str]], out: Path) -> None:
    recorded = json.loads(RECORD.read_text(encoding="utf-8"))[name]
    left = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert left == recorded["text"].keys() | recorded["sha256"].keys()
    assert got["text"].keys() == recorded["text"].keys()
    for file, text in recorded["text"].items():
        assert got["text"][file] == text, file
    assert got["sha256"] == recorded["sha256"]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_outputs_match_the_record(name, tmp_path):
    _assert_recorded(name, _outputs(_workloads()[name], tmp_path), tmp_path / "out")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_run_stage_by_stage_matches_the_record(name, tmp_path, monkeypatch):
    got = _staged_outputs(_workloads()[name], tmp_path, monkeypatch)
    _assert_recorded(name, got, tmp_path / "out")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    record = {}
    for name, workload in _workloads().items():
        with tempfile.TemporaryDirectory() as tmp:
            record[name] = _outputs(workload, Path(tmp))
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

"""Golden outputs: the benchmark's three workloads, at full scale and GCN
seed 0, must write the artifacts recorded in ``golden.json``.

A refactor keeps every artifact byte-identical; this test checks the
ones that do not carry full-precision GCN floats.  ``rules.txt``,
``metrics.csv`` and ``sweep_hidden_size.csv`` are compared as text, so a
failure shows the diff; ``X.csv``, ``targets.csv``, ``splits.json`` and
``threshold.json`` by sha256.  ``history.csv`` and ``test_scores.csv``
hold GCN floats that another BLAS may round otherwise, and are left out.

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
HASHED = ("X.csv", "targets.csv", "splits.json", "threshold.json")


def _workloads() -> dict:
    return runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["WORKLOADS"]


def _outputs(workload, tmp: Path) -> dict[str, dict[str, str]]:
    """The recorded artifacts of one call of ``workload`` at GCN seed 0:
    each text file's content and each other file's sha256, by name."""
    workload.generate(tmp / "data", "full")
    workload.call(tmp / "data", tmp / "out", 0)
    out = tmp / "out"
    return {
        "text": {
            name: (out / name).read_text(encoding="utf-8")
            for name in TEXT
            if (out / name).is_file()
        },
        "sha256": {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in HASHED},
    }


@pytest.mark.parametrize("name", ["planted-750", "sweep-hidden-500", "sampled-topics"])
def test_workload_outputs_match_the_record(name, tmp_path):
    recorded = json.loads(RECORD.read_text(encoding="utf-8"))[name]
    got = _outputs(_workloads()[name], tmp_path)
    assert got["text"].keys() == recorded["text"].keys()
    for file, text in recorded["text"].items():
        assert got["text"][file] == text, file
    assert got["sha256"] == recorded["sha256"]


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    record = {}
    for name, workload in _workloads().items():
        with tempfile.TemporaryDirectory() as tmp:
            record[name] = _outputs(workload, Path(tmp))
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

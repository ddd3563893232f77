"""Self-tests of the benchmark on tiny inputs.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import ScoreProbe, check_call, parse_metrics_row  # noqa: E402
from tracing import PLAN, Tracer  # noqa: E402
from workloads import WORKLOADS, TINY  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
        printed = [line.split() for line in lines[:-1] if line.split()[:1] == [m["name"]]]
        assert printed and printed[0][2] == m["unit"], m["name"]
        assert printed[0][3] in ("measured", "computed"), m["name"]


def test_workload_names_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_benchmark_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("planted-750", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture(scope="module")
def planted_out(tmp_path_factory):
    root = tmp_path_factory.mktemp("planted")
    wl = WORKLOADS["planted-750"]
    wl.generate(root / "data", TINY)
    probe = ScoreProbe()
    probe.install()
    wl.call(root / "data", root / "out", 1)
    assert probe.scores_finite
    return root / "out"


def test_check_accepts_a_real_run(planted_out):
    auc, errors = check_call(planted_out, False, 0.0, 0.0, True)
    assert errors == [] and 0.0 < auc <= 1.0


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda f: f[:-1],  # a field dropped
        lambda f: f[:2] + ["0.123456"] + f[3:],  # F1 inconsistent with the counts
        lambda f: f[:3] + ["nan"] + f[4:],  # non-finite AUC-PR
        lambda f: f[:5] + [str(int(f[5]) + 1)] + f[6:],  # counts miss the test split
        lambda f: f[:8] + ["x"],  # unparsable count
    ],
)
def test_check_rejects_a_corrupted_metrics_row(planted_out, tmp_path, corrupt):
    out = tmp_path / "out"
    shutil.copytree(planted_out, out)
    header, row = (out / "metrics.csv").read_text().splitlines()
    (out / "metrics.csv").write_text(header + "\n" + ",".join(corrupt(row.split(","))) + "\n")
    _, errors = check_call(out, False, 0.0, 0.0, True)
    assert errors


def test_check_enforces_the_floors(planted_out):
    _, errors = check_call(planted_out, False, 1.01, 0.0, True)
    assert any("floor" in e for e in errors)


def test_metrics_row_consistency():
    fields, errors = parse_metrics_row("0.500000,1.000000,0.666667,0.900000,0.5,1,0,2,1", 4)
    assert errors == [] and fields["tp"] == 1
    _, errors = parse_metrics_row("0.500000,1.000000,0.700000,0.900000,0.5,1,0,2,1", 4)
    assert errors


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_inputs_are_deterministic(tmp_path, name):
    wl = WORKLOADS[name]
    for d in ("a", "b"):
        wl.generate(tmp_path / d, TINY)

    def files(d):
        return {p.name: p.read_bytes() for p in (tmp_path / d).iterdir()}

    assert files("a") == files("b")


def test_tracer_restores_every_wrapped_function():
    import importlib

    def attrs():
        pipeline = importlib.import_module("relgcn.pipeline")
        return [getattr(importlib.import_module(f"relgcn.{m}"), a) for m, a, _, _ in PLAN] + [
            list(pipeline._STAGES)]

    before = attrs()
    tracer = Tracer()
    tracer.install()
    assert attrs() != before
    tracer.uninstall()
    assert attrs() == before


def test_speed_probes_restore_every_wrapped_function_and_net_out_their_time():
    import importlib

    from harness import PROBE_POINTS, REFERENCE_NOMINAL_S, SpeedProbes, scaled_seconds

    def attrs():
        pipeline = importlib.import_module("relgcn.pipeline")
        return [getattr(importlib.import_module(f"relgcn.{m}"), a) for m, a in PROBE_POINTS] + [
            list(pipeline._STAGES)]

    before = attrs()
    probes = SpeedProbes()
    probes.install()
    assert attrs() != before
    probes.uninstall()
    assert attrs() == before

    # 10 s of work with a 1 s probe in the middle; the kernel took 2.5,
    # 1.5 and 1 times its nominal time before, in and after the call.
    nominal = REFERENCE_NOMINAL_S
    raw, scaled = scaled_seconds(0.0, 11.0, [(5.0, 6.0, 1.5 * nominal)], 2.5 * nominal, nominal)
    assert raw == pytest.approx(10.0)
    assert scaled == pytest.approx(5.0 * 2 / 4.0 + 5.0 * 2 / 2.5)

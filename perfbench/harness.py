"""One benchmark run: timed set-ups, timed and checked calls, the report.

Imported by ``run.py`` only after it has capped the BLAS threads and put
the checkout's ``src/`` first on the import path.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from checks import ScoreProbe, artifact_metrics, artifact_sizes, check_call
from tracing import COMPUTED, MEASURED, Tracer, layer_metrics
from workloads import SWEEP_TABLE

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
# A shared host's CPU speed drifts by a fifth or more over seconds to
# minutes, for every kind of work alike, so raw wall times of the same
# code taken minutes apart spread past a usable bound.  A fixed
# pure-Python kernel is therefore timed before the first timed region of
# a run and after every one (every set-up and every call), and, inside an
# untraced call, at the start of every PROBE_POINTS function.  Each
# stretch of timed work is scaled by REFERENCE_NOMINAL_S over the mean of
# the two kernel times around it: seconds at the speed at which the
# kernel takes REFERENCE_NOMINAL_S, about a 2-core cloud VM's usual
# speed.  The kernel is the benchmark's own code, so it runs the same on
# every commit of the program; its time inside a call is not counted.
REFERENCE_ITERATIONS = 2_000_000
REFERENCE_NOMINAL_S = 0.23
# The pipeline stages and each rule tree: a few seconds apart at most in
# every workload, where a 25 s call sampled only at its ends spread as
# wide as unscaled.  (module looked up in, attribute)
PROBE_POINTS = [
    ("pipeline", "stage_learn"),
    ("pipeline", "stage_featurize"),
    ("pipeline", "stage_train"),
    ("rulelearn", "learn_tree"),
]
# Every run must end well inside three minutes, CLI reference run included.
RUN_DEADLINE_S = 170.0


def environment(blas_threads_cap: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads_cap": blas_threads_cap,
    }


def reference_seconds() -> float:
    """Wall time of the fixed reference kernel: integer arithmetic in the
    interpreter.  It builds no container, so its speed does not follow the
    heap the program's calls leave behind; a kernel that filled a dict
    with tuples did, and scaled by it five sweep runs spread 0.38 of
    their median, against 0.18 unscaled."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


def scaled_seconds(start: float, end: float, probes: list[tuple[float, float, float]],
                   reference_before: float, reference_after: float) -> tuple[float, float]:
    """Wall time of a timed region net of the probes inside it, and that
    time scaled stretch by stretch to the nominal reference speed.

    ``probes`` holds (start, end, kernel seconds) of each probe, in order.
    """
    raw = scaled = 0.0
    t, ref = start, reference_before
    for probe_start, probe_end, probe_ref in probes:
        raw += probe_start - t
        scaled += (probe_start - t) * 2 * REFERENCE_NOMINAL_S / (ref + probe_ref)
        t, ref = probe_end, probe_ref
    raw += end - t
    scaled += (end - t) * 2 * REFERENCE_NOMINAL_S / (ref + reference_after)
    return raw, scaled


class SpeedProbes:
    """Reference kernel runs at the start of each PROBE_POINTS function
    during one call, each replaced at the name its caller looks it up by."""

    def __init__(self):
        self.probes: list[tuple[float, float, float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _probed(self, fn):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            start = time.perf_counter()
            ref = reference_seconds()
            self.probes.append((start, time.perf_counter(), ref))
            return fn(*args, **kwargs)
        return probed

    def install(self) -> None:
        for mod_name, attr in PROBE_POINTS:
            module = importlib.import_module(f"relgcn.{mod_name}")
            fn = getattr(module, attr)
            self._patches.append((module, attr, fn))
            setattr(module, attr, self._probed(fn))
        # run_pipeline iterates this list rather than looking the stages up.
        pipeline = importlib.import_module("relgcn.pipeline")
        self._patches.append((pipeline, "_STAGES", pipeline._STAGES))
        pipeline._STAGES = [(s, getattr(pipeline, f"stage_{s}")) for s, _ in pipeline._STAGES]

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def same_files(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    return names == sorted(p.name for p in b.iterdir()) and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names
    )


def time_setups(args, run_dir: Path) -> tuple[list[float], list[float]]:
    """Generate the inputs SETUP_REPEATS times, each in a fresh interpreter
    that imports the package first; return each one's wall time and the
    reference samples around them."""
    times, references = [], [reference_seconds()]
    for r in range(SETUP_REPEATS):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--scale", args.scale,
               "--setup-into", str(run_dir / f"data{r}")]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        references.append(reference_seconds())
        if proc.returncode != 0:
            raise RuntimeError(f"input generation failed:\n{proc.stderr}")
    return times, references


def cli_reference(overrides: dict[str, str], out: Path, timeout: float) -> str | None:
    """Run a plain `relgcn pipeline` in a subprocess: None on success, else why not."""
    cmd = [sys.executable, "-m", "relgcn.cli", "pipeline", "--out", str(out)]
    for key, value in overrides.items():
        cmd += ["--set", f"{key}={value}"]
    src = str(Path(sys.modules["relgcn"].__file__).parent.parent)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=out.parent,
                              env=dict(os.environ, PYTHONPATH=src), timeout=timeout)
    except subprocess.TimeoutExpired:
        return f"CLI reference run exceeded {timeout:.0f} s"
    if proc.returncode != 0:
        return f"CLI reference run exited {proc.returncode}: {proc.stderr[-2000:]}"
    return None


class Runner:
    """Timed, checked calls of one workload on one set of inputs."""

    def __init__(self, args, workload, data: Path, run_dir: Path, started: float,
                 reference_before: float):
        self.args, self.wl, self.data, self.run_dir = args, workload, data, run_dir
        self.started = started
        self.floors = (0.0, 0.0) if args.scale == "tiny" else (workload.auc_floor,
                                                                workload.f1_floor)
        self.probe = ScoreProbe()
        self.probe.install()
        self.calls: list[dict] = []
        # Reference kernel times: one before the first call, one after each.
        self.references = [reference_before]
        self.first_outputs: dict[str, bytes] | None = None

    def call(self, traced: bool) -> None:
        out = self.run_dir / f"call{len(self.calls)}"
        self.probe.reset()
        # A traced call is not probed: probes would fall inside its spans.
        instruments = Tracer() if traced else SpeedProbes()
        instruments.install()
        errors = []
        start = time.perf_counter()
        try:
            self.wl.call(self.data, out, self.args.seed)
        except Exception as exc:  # a failed call is counted, not fatal
            traceback.print_exc()
            errors.append(f"call raised {type(exc).__name__}: {exc}")
        finally:
            end = time.perf_counter()
            instruments.uninstall()
        self.references.append(reference_seconds())
        probes = [] if traced else instruments.probes
        seconds, scaled = scaled_seconds(start, end, probes, *self.references[-2:])
        rec = {"index": len(self.calls), "traced": traced, "seconds": seconds,
               "scaled_s": scaled, "gross_s": end - start, "probes": len(probes), "probe_references_s":
               [p[2] for p in probes], "auc_pr": 0.0, "errors": errors, "layers": {},
               "spans": {}, "artifact_bytes": {}}
        tracer = instruments if traced else None
        if not errors:
            self._check(rec, out)
            if tracer is not None and not rec["errors"]:
                rec["layers"] = {**layer_metrics(tracer), **artifact_metrics(out)}
                rec["spans"] = {name: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                                for name, s in tracer.stats.items()}
        if out.exists():
            rec["artifact_bytes"] = artifact_sizes(out)
            shutil.rmtree(out)
        self.calls.append(rec)

    def _check(self, rec: dict, out: Path) -> None:
        try:
            rec["auc_pr"], errors = check_call(
                out, SWEEP_TABLE in self.wl.outputs, *self.floors, self.probe.scores_finite)
            outputs = {name: (out / name).read_bytes() for name in self.wl.outputs}
        except (OSError, ValueError, KeyError) as exc:
            rec["errors"].append(f"output check could not read the artifacts: {exc}")
            return
        rec["errors"] += errors
        if self.first_outputs is None:
            self.first_outputs = outputs
            if self.wl.cli_overrides is not None:
                rec["errors"] += self._compare_with_cli(outputs)
            return
        rec["errors"] += [f"{name} differs from the first call's" for name in outputs
                          if outputs[name] != self.first_outputs.get(name)]

    def _compare_with_cli(self, outputs: dict[str, bytes]) -> list[str]:
        """The first call's outputs must equal a plain `relgcn pipeline` run's.
        That run happens outside every timed region."""
        ref = self.run_dir / "cli"
        timeout = max(10.0, RUN_DEADLINE_S - (time.monotonic() - self.started))
        failure = cli_reference(self.wl.cli_overrides(self.data, self.args.seed), ref, timeout)
        if failure is not None:
            return [failure]
        return [f"{name} differs from a plain `relgcn pipeline` run"
                for name in outputs if (ref / name).read_bytes() != outputs[name]]


def median_layers(records: list[dict]) -> dict[str, tuple[float, str, str]]:
    first = records[0]["layers"]
    return {name: (statistics.median(r["layers"][name][0] for r in records), *first[name][1:])
            for name in first}


def run(args, workload, run_dir: Path, work: Path, env: dict, started: float) -> int:
    try:
        setup_raw, setup_references = time_setups(args, run_dir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    data = run_dir / "data0"
    runner = Runner(args, workload, data, run_dir, started, setup_references[-1])
    loop_start = time.perf_counter()
    while True:
        # With tracing, untraced and traced calls alternate, untraced first.
        runner.call(traced=args.trace == 1 and len(runner.calls) % 2 == 1)
        # Start another call only if a typical one would end within --seconds.
        elapsed = time.perf_counter() - loop_start
        typical = statistics.median(c["gross_s"] for c in runner.calls)
        enough = args.trace == 0 or len(runner.calls) >= 2
        if enough and elapsed + typical > args.seconds:
            break
    calls = runner.calls
    calls[0]["errors"] += [f"inputs of set-up {r} differ from set-up 0"
                           for r in range(1, SETUP_REPEATS)
                           if not same_files(data, run_dir / f"data{r}")]

    setup_times = [seconds * 2 * REFERENCE_NOMINAL_S / (a + b) for seconds, a, b
                   in zip(setup_raw, setup_references, setup_references[1:])]
    for c in calls:
        k = c["scaled_s"] / c["seconds"]
        c["layers"] = {name: (value * k if unit == "s" else value, unit, kind)
                       for name, (value, unit, kind) in c["layers"].items()}

    failed = sum(1 for c in calls if c["errors"])
    untraced = [c["scaled_s"] for c in calls if not c["traced"]]
    if args.trace == 0:
        passing = [c["auc_pr"] for c in calls if not c["errors"]]
        metrics = {
            "wall_s": (statistics.median(untraced), "s", MEASURED),
            "setup_s": (statistics.median(setup_times), "s", MEASURED),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB", MEASURED),
            "auc_pr": (min(passing) if passing else 0.0, "ratio", MEASURED),
            "ok_frac": (1.0 - failed / len(calls), "ratio", MEASURED),
        }
    else:
        traced = [c for c in calls if c["traced"]]
        metrics = median_layers([c for c in traced if c["layers"]] or [{"layers": {}}])
        traced_wall = statistics.median(c["scaled_s"] for c in traced)
        untraced_wall = statistics.median(untraced)
        metrics.update({
            "trace.wall_s": (traced_wall, "s", MEASURED),
            "trace.untraced_wall_s": (untraced_wall, "s", MEASURED),
            "trace.overhead_s": (traced_wall - untraced_wall, "s", COMPUTED),
            "trace.overhead_ratio": ((traced_wall - untraced_wall) / untraced_wall,
                                     "ratio", COMPUTED),
        })

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "scale": args.scale, "env": env, "reference_nominal_s": REFERENCE_NOMINAL_S,
        "setup_references_s": setup_references, "setup_raw_s": setup_raw,
        "setup_scaled_s": setup_times, "call_references_s": runner.references, "calls": calls,
        "metrics": {n: {"value": v, "unit": u, "kind": k} for n, (v, u, k) in metrics.items()},
    }
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (work / name).write_text(json.dumps(report, indent=1))

    print("env " + json.dumps(env))
    references = setup_references + runner.references[1:]
    print(f"reference kernel {statistics.median(references):.4f} s median over "
          f"{len(references)} samples ({min(references):.4f}-{max(references):.4f}), "
          f"nominal {REFERENCE_NOMINAL_S} s")
    print(f"calls {len(calls)}, raw/scaled: "
          + ", ".join(f"{c['seconds']:.3f}/{c['scaled_s']:.3f} s"
                      f"{' traced' if c['traced'] else ''}" for c in calls)
          + f"; untraced scaled wall median {statistics.median(untraced):.3f} s, max "
          f"{max(untraced):.3f} s over {len(untraced)}; failed_frac {failed / len(calls):.3f}")
    for c in calls:
        for e in c["errors"]:
            print(f"check failed (call {c['index']}): {e}")
    for name, (value, unit, kind) in metrics.items():
        print(f"{name:38s} {value:>16.6g} {unit:6s} {kind}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u, _) in metrics.items()},
    }))
    return 0

"""manyslit benchmark: fresh-process workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; nothing needs building, children run
with ``PYTHONPATH=src``.  Each job is one fresh child process, started only
after the previous one exited (a closed loop with a single client), until
``--seconds`` have passed.  Every child gets one BLAS/OpenMP/pair-sum thread,
and the benchmark and its children share one CPU.  Times are scaled to
reference speed by the probes in ``speed.py``; the summary line gives the
median wall time as measured and the median scale.

``--trace 0`` times untraced children and prints the end-to-end metrics.
``--trace 1`` alternates untraced children with children run under
``traced.py`` and prints the per-layer metrics; ``trace.overhead_s`` is the
traced minus the untraced median wall time.  Outputs are checked after the
loop, outside the timed region; a child whose exit code or output is wrong
counts as failed.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench_run"
CHILD_ENV = {"MANYSLIT_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "OMP_NUM_THREADS": "1", "PYTHONPATH": "src"}
SETUP_ARGS = ("-c", "import manyslit, manyslit.cli")
SETUP_RUNS = 7
CHILD_TIMEOUT_S = 60.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "work_per_s": "1/s",
              "cpu_s": "s", "peak_rss_mb": "MB"}
TRACE_UNITS = {"trace.wall_s": "s", "trace.untraced_wall_s": "s",
               "trace.overhead_s": "s", "trace.unaccounted_s": "s"}


def per_layer_units(targets, root: str) -> dict[str, str]:
    units = {f"{root}.self_s": "s"}
    for module, attr, key, count_name, _ in targets:
        name = f"{module}.{attr}"
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if key is not None:
            units[f"{name}.distinct_ratio"] = "ratio"
        if count_name is not None:
            units[f"{name}.{count_name}"] = "count"
    units.update(TRACE_UNITS)
    return units


@dataclass
class Sample:
    raw_wall: float           # seconds from spawn to exit, as measured
    raw_cpu: float            # user plus system seconds of the child
    rss_mb: float
    code: int
    out: str
    err: str
    scale: float = 1.0        # speed scale measured while the child ran
    traced: bool = False
    layers: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.raw_wall * self.scale

    @property
    def cpu(self) -> float:
        return self.raw_cpu * self.scale


def run_child(args, probe: str) -> Sample:
    """Run one child while a ``SpeedSampler`` of kind ``probe`` measures the
    speed of the CPU it runs on."""
    from speed import SpeedSampler  # imports numpy: after main() pins threads

    with SpeedSampler(probe) as speed:
        sample = spawn(args)
    sample.scale = speed.scale
    return sample


def spawn(args) -> Sample:
    """Run one child to completion; wall time is from spawn to exit."""
    env = dict(os.environ, **CHILD_ENV)
    with open(RUN_DIR / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        err.seek(0)
        err_text = err.read().decode(errors="replace")
    return Sample(raw_wall=wall, raw_cpu=usage.ru_utime + usage.ru_stime,
                  rss_mb=usage.ru_maxrss / 1024.0, code=proc.returncode,
                  out=out.decode(errors="replace"), err=err_text)


def span_parents(start, end) -> list[int]:
    """Index of the innermost span enclosing each span, -1 for top level."""
    parents = [-1] * len(start)
    stack: list[int] = []
    for i in sorted(range(len(start)), key=lambda i: (start[i], -end[i])):
        while stack and end[stack[-1]] <= start[i]:
            stack.pop()
        if stack:
            parents[i] = stack[-1]
        stack.append(i)
    return parents


def layer_metrics(spans_path: Path, root: str, units: dict,
                  scale: float = 1.0) -> tuple[dict, float]:
    """Per-layer calls and self times of one traced child, plus the summed
    duration of its top-level spans; times are multiplied by ``scale``."""
    import numpy as np

    name_idx, start, end = np.load(str(spans_path) + ".npy")
    with open(str(spans_path) + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    parent = np.array(span_parents(start.tolist(), end.tolist()), dtype=np.int64)
    dur = (end - start).astype(np.float64)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    self_ns = np.bincount(name_idx, weights=dur - child, minlength=len(meta["names"]))
    calls = np.bincount(name_idx, minlength=len(meta["names"]))
    out = {name: 0 if unit == "count" else 0.0
           for name, unit in units.items() if name not in TRACE_UNITS}
    for i, name in enumerate(meta["names"]):
        out[f"{name}.self_s"] = float(self_ns[i]) * scale / 1e9
        if name != root:
            out[f"{name}.calls"] = int(calls[i])
    out.update(meta["counts"])
    return out, float(dur[~nested].sum()) * scale / 1e9


def _median(values) -> float:
    """Median, or 0.0 when every child that would give a value failed."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def run_record() -> dict:
    import numpy as np

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "loadavg_start": list(os.getloadavg())}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from traced import ROOT_SPAN, TARGETS
    from workloads import CheckError, make_job

    units = per_layer_units(TARGETS, ROOT_SPAN)
    run_child(SETUP_ARGS, "python")  # fills the bytecode cache; not timed
    setups = [run_child(SETUP_ARGS, "python") for _ in range(SETUP_RUNS)]
    if any(s.code != 0 for s in setups):
        raise SystemExit(f"importing manyslit failed:\n{setups[0].err}")
    setup_s = statistics.median(s.wall for s in setups)

    jobs, samples = [], []
    least = 2 if trace else 1
    deadline = time.perf_counter() + seconds
    # start a job only if a typical job still ends before the deadline
    while len(samples) < least or time.perf_counter() + statistics.median(
            s.raw_wall for s in samples) <= deadline:
        job = make_job(workload, seed, len(samples))
        traced = trace and len(samples) % 2 == 1
        spans = RUN_DIR / f"spans-{len(samples)}"
        if traced:
            args = (str(HERE / "traced.py"), str(spans), job.kind, *job.args)
        elif job.kind == "cli":
            args = ("-m", "manyslit.cli", *job.args)
        else:
            args = (str(HERE / "crosscheck.py"), *job.args)
        sample = run_child(args, job.probe)
        sample.traced = traced
        if traced and sample.code == 0:
            sample.layers, top = layer_metrics(spans, ROOT_SPAN, units, sample.scale)
            sample.layers["trace.unaccounted_s"] = sample.wall - setup_s - top
        jobs.append(job)
        samples.append(sample)

    failed = 0
    for job, sample in zip(jobs, samples):
        try:
            job.check(sample.code, sample.out)
        except (CheckError, ValueError, KeyError, TypeError) as exc:
            failed += 1
            print(f"failed check: {' '.join(job.args)}: {exc!r}\n{sample.err[-2000:]}",
                  file=sys.stderr)

    plain = [s for s in samples if not s.traced]
    print(f"{workload} seed {seed}: {len(samples)} runs, {failed} failed, "
          f"failed_ratio {failed / len(samples):.3g}; setup {setup_s:.4g} s; "
          f"median wall {_median(s.raw_wall for s in plain):.4g} s as measured, "
          f"speed scale {_median(s.scale for s in samples):.4g}")
    if not trace:
        per_job = [job.units / (s.wall - setup_s) for job, s in zip(jobs, samples)]
        values = {
            "wall_s": statistics.median(s.wall for s in plain),
            "setup_s": setup_s,
            "work_per_s": statistics.median(per_job),
            "cpu_s": statistics.median(s.cpu for s in plain),
            "peak_rss_mb": statistics.median(s.rss_mb for s in plain),
        }
        unit_of = END_TO_END
    else:
        traced_samples = [s for s in samples if s.layers]
        values = {name: _median(s.layers[name] for s in traced_samples)
                  for name in units if name not in TRACE_UNITS}
        traced_wall = _median(s.wall for s in traced_samples)
        plain_wall = _median(s.wall for s in plain)
        values.update({
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": plain_wall,
            "trace.overhead_s": traced_wall - plain_wall,
            "trace.unaccounted_s": _median(
                s.layers["trace.unaccounted_s"] for s in traced_samples),
        })
        unit_of = units
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit_of[name]}
                    for name in unit_of},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan", "gate", "montecarlo", "crosscheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "manyslit" / "__init__.py").is_file():
        print(f"no manyslit sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    # the parent imports manyslit only to check outputs, outside the timed region
    os.environ.update({k: v for k, v in CHILD_ENV.items() if k != "PYTHONPATH"})
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # on SIGTERM, unwind so that spawn() kills the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    print(f"run record: {json.dumps(run_record())}")
    RUN_DIR.mkdir(exist_ok=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
    for name, metric in result["metrics"].items():
        print(f"  {name:48s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

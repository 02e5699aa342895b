"""Benchmark of `percolate`: four Monte Carlo workloads, end to end and per layer.

    python3 perfbench/run.py --workload lrp_tail --seed 1 --seconds 20 --trace 0

runs one workload in this process, from the checkout's `src/`, and prints
as its last line one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  `--trace 0` reports the end-to-end metrics; `--trace 1`
reports the per-layer metrics of a separate traced run.
`--workload all` runs every workload in a process of its own, both ways,
and prints one table.  See README.md for the inputs and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One thread, as the workloads are meant to run: BLAS thread pools would
# otherwise start on the second CPU during import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 5
WORKLOAD_NAMES = ["lrp_tail", "cffp_growth", "sfp2d_fpp_growth", "edge_set"]
END_TO_END = {"setup_s": "s", "trials_per_s": "1/s", "op_s_p50": "s", "peak_rss_mb": "MB"}


def import_program():
    """Import `percolate` from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import percolate
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import percolate from {SRC}: {exc}")
    if Path(percolate.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: percolate came from {percolate.__file__}, not {SRC}")
    import workloads

    return workloads


def op_seed(seed: int, index: int) -> int:
    """Master seed of the index-th operation of a run."""
    return seed * 1_000_003 + index


def probe_setup(name: str) -> float:
    """Seconds from starting a fresh interpreter until `name` can run its first op."""
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--probe", name],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1]) - t0


def run_plain(wl, seed: int, seconds: float):
    """End-to-end metrics, with wall times converted to the nominal host speed."""
    from hostspeed import HostSpeed

    host = HostSpeed()
    setups = []
    for _ in range(SETUP_PROBES):
        host.sample()
        setups.append(probe_setup(wl.name))
    op_times, problems, first = [], [], None
    attempted = failed = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or attempted < wl.min_ops:
        s = op_seed(seed, attempted)
        attempted += 1
        t0 = time.perf_counter()
        try:
            out = wl.op(s)
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        op_times.append(time.perf_counter() - t0)
        host.sample(after_s=op_times[-1])
        problems += wl.check(s, out)
        if first is None:
            first = (s, out)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += wl.finish()
    if first is not None:
        problems += wl.oracle(*first)
    wall = {
        "setup_s": statistics.median(setups),
        "trials_per_s": len(op_times) * wl.trials_per_op / sum(op_times) if op_times else 0.0,
        "op_s_p50": statistics.median(op_times) if op_times else 0.0,
    }
    speed = host.speed
    print(f"{wl.name:17s} host speed {speed:.4f} (reference {statistics.fmean(host.times):.5f} s "
          f"x {len(host.times)}); wall: " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))
    metrics = {
        "setup_s": wall["setup_s"] * speed,
        "trials_per_s": wall["trials_per_s"] / speed,
        "op_s_p50": wall["op_s_p50"] * speed,
        "peak_rss_mb": peak_mb,
    }
    return ({k: (v, END_TO_END[k]) for k, v in metrics.items()}, problems, attempted, failed)


def run_traced(wl, seed: int, seconds: float, trace_path: Path):
    """Rounds of the same operation untraced and traced, in alternating order.

    Layer metrics come from the traced halves; the time difference between
    the halves is the tracing overhead.
    """
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    plain_s = traced_s = 0.0
    trials = attempted = failed = rounds = 0
    problems, first = [], None
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or rounds < wl.min_ops:
        s = op_seed(seed, rounds)
        times = {}
        for traced in ((False, True) if rounds % 2 == 0 else (True, False)):
            attempted += 1
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                out = wl.op(s)
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            finally:
                tracer.uninstall()
            times[traced] = time.perf_counter() - t0
            problems += wl.check(s, out)
            if first is None:
                first = (s, out)
        rounds += 1
        if len(times) == 2:
            plain_s += times[False]
            traced_s += times[True]
            trials += wl.trials_per_op
    problems += wl.finish()
    if first is not None:
        problems += wl.oracle(*first)
    totals = tracer.totals()
    metrics = layer_metrics(totals, max(trials, 1), (traced_s - plain_s) / max(trials, 1))
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w") as fh:
        json.dump({"workload": wl.name, "seed": seed, "trials": trials,
                   "totals": totals, "spans": [sp.to_dict() for sp in tracer.spans]}, fh)
    return metrics, problems, attempted, failed


def run_one(args) -> int:
    workloads = import_program()
    RESULTS.mkdir(exist_ok=True)
    wl = workloads.build(args.workload, str(RESULTS))
    if args.trace:
        trace_path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        metrics, problems, attempted, failed = run_traced(wl, args.seed, args.seconds,
                                                          trace_path)
    else:
        metrics, problems, attempted, failed = run_plain(wl, args.seed, args.seconds)
    for p in problems:
        print(f"CHECK FAILED [{args.workload}]: {p}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:17s} {name:26s} {value:14.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    summary, ok = {}, True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit {proc.returncode}")
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            res = json.loads(lines[-1])
            ok = ok and res["correct"] and res["failed"] == 0
            summary[f"{name}/trace{trace}"] = res
    print(json.dumps({"correct": ok, "runs": summary}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        workloads = import_program()
        workloads.build(args.probe, str(RESULTS))
        print(time.monotonic())
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

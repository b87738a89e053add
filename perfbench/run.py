"""crowdflow benchmark: one workload per invocation, closed loop, one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload longtime --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics listed in ``BENCHMARK.json``:
set-up time (median of fresh processes), wall time per run of the
workload (median over the run's repeats, quartiles printed), both scaled
to the host's typical speed (see speed.py), and peak resident memory.  ``--trace 1`` prints the per-layer metrics of a traced
run instead.  The last line of standard output is one JSON object with
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Everything runs in this process with ``workers = 1`` and BLAS/OpenMP
threads pinned to one, except the set-up samples, which need a fresh
interpreter each.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_PINS = {key: "1" for key in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)  # before numpy is first imported

import tracer  # noqa: E402
from speed import KERNEL_NOMINAL_S, SpeedSampler, nominal  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60

# Runs in a fresh interpreter: import crowdflow, parse the config, build
# the potential and the initial states, print the seconds that took.
SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
import workloads
workloads.WORKLOADS[sys.argv[1]][0](int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, a failed set-up)."""


def machine_block():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "thread_pins": THREAD_PINS,
            "affinity": sorted(os.sched_getaffinity(0))}


def import_program():
    """Import crowdflow from this checkout's ``src`` and nowhere else."""
    if not (SRC / "crowdflow" / "__init__.py").is_file():
        raise BenchError(f"no crowdflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import crowdflow
    if SRC.resolve() not in Path(crowdflow.__file__).resolve().parents:
        raise BenchError(f"imported crowdflow from {crowdflow.__file__}, "
                         f"not from {SRC}")
    import workloads
    return workloads


def setup_samples(sampler, workload, seed):
    """Set-up times in fresh interpreters, after one discarded.

    Returns (seconds, kernel seconds) per sample; the seconds are
    measured inside the child, from before ``import crowdflow`` to ready
    inputs.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    cmd = [sys.executable, "-c", SETUP_SNIPPET, workload, str(seed)]

    def sample():
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise BenchError(f"set-up sample failed:\n{proc.stderr.strip()}")
        return float(proc.stdout.strip().splitlines()[-1])

    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        _wall, kernel, seconds = sampler.timed(sample)
        samples.append((seconds, kernel))
    return samples[1:]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def timed_runs(sampler, run, inputs, seconds, min_runs):
    """Closed loop: start the next run only after the previous one ends.

    Returns (wall seconds, kernel seconds, outcome) per run.
    """
    samples = []
    start = time.perf_counter()
    while len(samples) < min_runs or time.perf_counter() - start < seconds:
        gc.collect()
        samples.append(sampler.timed(run, inputs))
    return samples


def summarize_outcomes(samples):
    outcomes = [out for *_, out in samples]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    incorrect = [msg for o in outcomes for msg in o.incorrect]
    return attempted, failed, incorrect


def end_to_end(sampler, wl, args):
    setup = setup_samples(sampler, args.workload, args.seed)
    build, run = wl.WORKLOADS[args.workload]
    inputs = build(args.seed)
    snapshot = tracer.bindings()
    warm = run(inputs)
    samples = timed_runs(sampler, run, inputs, args.seconds, min_runs=3)
    left_patched = tracer.changed(snapshot)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, incorrect = summarize_outcomes(samples)
    problems = list(dict.fromkeys(incorrect + warm.incorrect))
    if left_patched:
        problems.append(f"self-test: untraced run changed {left_patched}")
    s1, s2, s3 = quartiles([nominal(t, r) for t, r in setup])
    w1, w2, w3 = quartiles([nominal(w, k) for w, k, _ in samples])
    raw1, raw2, raw3 = quartiles([w for w, _, _ in samples])
    kernel = statistics.median(k for _, k, _ in samples)
    print(f"setup_s      {s2:.4f} s  (median of {len(setup)} fresh processes; "
          f"q1 {s1:.4f}, q3 {s3:.4f}; unscaled median "
          f"{statistics.median(t for t, _ in setup):.4f})")
    print(f"wall_s       {w2:.4f} s  (median of {len(samples)} runs after one "
          f"discarded warm-up; q1 {w1:.4f}, q3 {w3:.4f})")
    print(f"  unscaled   {raw2:.4f} s  (q1 {raw1:.4f}, q3 {raw3:.4f}, max "
          f"{max(w for w, _, _ in samples):.4f}); speed kernel "
          f"{kernel * 1e3:.3f} ms against nominal {KERNEL_NOMINAL_S * 1e3} ms")
    print(f"peak_rss_mb  {rss_mb:.1f} MB")
    print(f"ops_failed_frac {failed / attempted:.4f} "
          f"({failed} failed of {attempted} operations)")
    for what in warm.failures:
        print(f"  failed operation (each run): {what}")
    values = {"setup_s": s2, "wall_s": w2, "peak_rss_mb": rss_mb}
    detail = {"setup_samples": setup,
              "run_samples": [(w, k) for w, k, _ in samples],
              "failures_per_run": warm.failures}
    return values, attempted, failed, problems, detail


def traced(sampler, wl, args):
    build, run = wl.WORKLOADS[args.workload]
    inputs = build(args.seed)
    snapshot = tracer.bindings()
    warm = run(inputs)
    half = args.seconds / 2.0
    plain = timed_runs(sampler, run, inputs, half, min_runs=1)

    tr = tracer.Tracer()
    rooted = functools.partial(tr.call, tracer.ROOT_SPAN, run)
    samples, layers = [], []
    tr.install()
    try:
        start = time.perf_counter()
        while len(samples) < 2 or time.perf_counter() - start < half:
            tr.begin_iteration()
            samples += timed_runs(sampler, rooted, inputs, 0.0, 1)
            layers.append(tr.layer_metrics())
    finally:
        tr.uninstall()
    left_patched = tracer.changed(snapshot)

    attempted, failed, incorrect = summarize_outcomes(plain + samples)
    problems = list(dict.fromkeys(incorrect + warm.incorrect))
    if left_patched:
        problems.append(f"self-test: tracer left {left_patched} patched")
    counts = [{k: v for k, v in lay.items() if not _is_time(k)}
              for lay in layers]
    if any(c != counts[0] for c in counts[1:]):
        diff = sorted(k for k in counts[0] if any(c[k] != counts[0][k]
                                                   for c in counts[1:]))
        problems.append(f"self-test: traced counts differ between runs: {diff}")

    overhead = (statistics.median(w / k for w, k, _ in samples)
                / statistics.median(w / k for w, k, _ in plain) - 1.0)
    for (wall, _, _), lay in zip(samples, layers):
        covered = sum(v for k, v in lay.items() if _is_time(k))
        if abs(covered - wall) > max(overhead, 0.0) * wall + 1e-4:
            problems.append(f"self-test: self times sum to {covered:.6f} s, "
                            f"traced wall {wall:.6f} s")

    values = dict(layers[0])
    for key in values:
        if _is_time(key):
            values[key] = statistics.median(lay[key] for lay in layers)
    values["trace.overhead_frac"] = overhead
    print(f"traced {len(samples)} runs, untraced {len(plain)}; "
          f"trace.overhead_frac {overhead:.4f}")
    for key in sorted(values):
        print(f"  {key:42s} {values[key]!r}")
    OUT_DIR.mkdir(exist_ok=True)
    tr.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz",
                   {"workload": args.workload, "seed": args.seed,
                    "wall_s": samples[-1][0]})
    detail = {"traced_samples": [(w, k) for w, k, _ in samples],
              "untraced_samples": [(w, k) for w, k, _ in plain]}
    return values, attempted, failed, problems, detail


def _is_time(key):
    return key.endswith(".self_s")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        wl = import_program()
        if args.workload not in wl.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; choose one "
                             f"of {', '.join(wl.WORKLOADS)}")
        machine = machine_block()
        print("machine " + json.dumps(machine, sort_keys=True))
        print(f"workload {args.workload}, seed {args.seed}, "
              f"{args.seconds:g} s, trace {args.trace}")
        measure = traced if args.trace else end_to_end
        with SpeedSampler() as sampler:
            values, attempted, failed, problems, detail = measure(
                sampler, wl, args)
    except (BenchError, OSError, ImportError, subprocess.SubprocessError,
            ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"benchmark error: no value for {missing}", file=sys.stderr)
        return 2
    for msg in problems:
        print(f"incorrect: {msg}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, machine=machine, workload=args.workload,
                  seed=args.seed, seconds=args.seconds, trace=args.trace,
                  problems=problems, **detail)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

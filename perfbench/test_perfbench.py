"""Self-tests of the benchmark.

Run from the repository root with ``python -m pytest perfbench``.  They
are not part of the package's test suite (``testpaths`` is ``tests``).
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def _run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180, check=False)


def _small_congested():
    inputs = workloads.build_congested(0)
    inputs.cases = [c for c in inputs.cases if c[0] == 100]
    return inputs


def test_traced_counts_repeat_across_runs():
    results = []
    for _ in range(2):
        proc = _run_bench(ROOT, "--workload", "congested", "--seed", "0",
                          "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert all(r["correct"] for r in results)
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if v["unit"] != "s" and k != "trace.overhead_frac"}
              for r in results]
    assert counts[0] == counts[1]
    assert counts[0]["jko.jko_step.calls"] == 15
    assert counts[0]["jko.raised"] == 2
    assert counts[0]["jko.over_tol_accepts"] == 3


def test_install_patches_every_binding_and_uninstall_restores():
    snapshot = tracer.bindings()
    names = {(getattr(o, "__name__", ""), a) for o, a, _ in snapshot}
    assert ("crowdflow.experiments", "jko_trajectory") in names
    assert ("crowdflow.jko", "jko_trajectory") in names
    tr = tracer.Tracer()
    tr.install()
    try:
        assert len(tracer.changed(snapshot)) == len(snapshot)
    finally:
        tr.uninstall()
    assert tracer.changed(snapshot) == []


def test_untraced_run_leaves_bindings_identical():
    snapshot = tracer.bindings()
    workloads.run_congested(_small_congested())
    assert tracer.changed(snapshot) == []


def test_self_times_sum_to_root_span():
    inputs = _small_congested()
    tr = tracer.Tracer()
    tr.install()
    try:
        out = tr.call(tracer.ROOT_SPAN, workloads.run_congested, inputs)
    finally:
        tr.uninstall()
    assert out.attempted == 3 and out.failed == 0
    root = tr.span_end[0] - tr.span_start[0]
    total = sum(tr.self_s.values())
    assert math.isclose(total, root, rel_tol=1e-9)
    assert min(tr.self_s.values()) >= 0.0
    layers = tr.layer_metrics()
    assert layers["jko.jko_step.calls"] == 3
    assert layers["jko.newton_iters"] == layers["jko.iters_per_step"] * 3


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "congested", "--seed", "0",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

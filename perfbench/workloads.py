"""The benchmark's workloads: inputs made from a seed, one run, an output gate.

Each workload has a ``build(seed)`` that parses its config and builds the
potential and initial states (this is what ``setup_s`` times, together
with importing ``crowdflow``), and a ``run(inputs)`` that does the work
once and checks the outputs.  ``run`` never raises for a failure of the
program: raises, FAIL verdicts and over-tolerance steps are counted in
the returned ``Outcome``.

Seed 0 reproduces the inputs of the experiment configs exactly.  Other
seeds move the ``longtime`` boxes; a seed that fails a verdict is counted
as a failed operation, never skipped.  ``congested`` and ``crossval``
take the same inputs for every seed: any change of box height or
placement flips their outcomes (see README.md), and a jittered workload
would measure which operations happen to fail, not the program's speed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from crowdflow import experiments, jko
from crowdflow.config import ExperimentConfig
from crowdflow.jko import JkoConvergenceError, JkoOptions
from crowdflow.model import Patch, make_grid_density, to_quantile
from crowdflow.pme import PmeStabilityError

NUMERICAL_FAILURES = (JkoConvergenceError, PmeStabilityError)


@dataclass
class Outcome:
    """Result of one run: operations attempted and failed, and why."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    incorrect: list = field(default_factory=list)

    def fail(self, what, incorrect=False):
        self.failed += 1
        self.failures.append(what)
        if incorrect:
            self.incorrect.append(what)


def _run_driver(driver, cfg, expected):
    """Run an experiment driver with one worker; each verdict is an operation.

    A raise fails all ``expected`` verdicts of the run.
    """
    out = Outcome(attempted=expected)
    try:
        report = driver(cfg, workers=1)
    except NUMERICAL_FAILURES as exc:
        out.failed = expected
        out.failures.append(f"raised {type(exc).__name__}: {exc}")
        return out
    if len(report.criteria) != expected:
        out.fail(f"{len(report.criteria)} verdicts instead of {expected}",
                 incorrect=True)
    for crit in report.criteria:
        if not crit["pass"]:
            out.fail(f"FAIL {crit['id']}: value={crit['value']:.6g} "
                     f"threshold={crit['threshold']:.6g}", incorrect=True)
    return out


# ---------------------------------------------------------------------------
# longtime: many cheap JKO steps
# ---------------------------------------------------------------------------

# configs/longtime.txt with the horizon cut from 5 to 0.5, so that one
# run holds several repeats; the per-step physics is unchanged.
LONGTIME_CONFIG = """\
potential.kind = quadratic
potential.q = 1.0
init.boxes = {boxes}
init2.boxes = {boxes2}
grid.lo = -4.5
grid.hi = 4.5
grid.n = 900
quantile.n = 200
m.list = 10,inf
jko.h = 0.001
run.T = 0.5
eps.rate = 0.1
snapshots = 16
"""


def build_longtime(seed):
    # Each box moves by up to 0.1 (2.4 cells).  Heights stay at one: a
    # lower box changes the number of Newton iterations and makes some
    # congested steps raise (see README.md).
    rng = random.Random(seed)
    shifts = (0.0, 0.0) if seed == 0 else \
        (rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
    boxes = [f"{a + s:.17g},{a + s + 1.0:.17g},1"
             for a, s in zip((2.0, 3.0), shifts)]
    cfg = ExperimentConfig.from_text(
        LONGTIME_CONFIG.format(boxes=boxes[0], boxes2=boxes[1]))
    cfg.potential()
    grid = cfg.grid_spec()
    n = cfg.get_int("quantile.n")
    for key in ("init.boxes", "init2.boxes"):
        to_quantile(make_grid_density(cfg.shape_spec(key), grid), n)
    return cfg


def run_longtime(cfg):
    return _run_driver(experiments.longtime_decay, cfg,
                       2 * len(cfg.get_m_list()))


# ---------------------------------------------------------------------------
# congested: few large steps, many iterations
# ---------------------------------------------------------------------------

# The saturating reproduction of the congested-step defect: a box on
# GridSpec(-4, 4, 4000) pushed into a q = 4 well by one step of h = 0.5.
CONGESTED_CONFIG = """\
potential.kind = quadratic
potential.q = 4
grid.lo = -4
grid.hi = 4
grid.n = 4000
init.boxes = -1.5,1.5,0.6
jko.h = 0.5
"""
CONGESTED_SIZES = (100, 200, 400, 800, 1600)
CONGESTED_M = (math.inf, 10.0, 50.0)


@dataclass
class CongestedInputs:
    phi: object
    h: float
    cases: list  # (n, m, initial QuantileRep)


def build_congested(_seed):
    cfg = ExperimentConfig.from_text(CONGESTED_CONFIG)
    phi = cfg.potential()
    rho0 = make_grid_density(cfg.shape_spec(), cfg.grid_spec())
    cases = []
    for n in CONGESTED_SIZES:
        q0 = to_quantile(rho0, n)
        cases.extend((n, m, q0) for m in CONGESTED_M)
    return CongestedInputs(phi, cfg.get_float("jko.h"), cases)


def run_congested(inputs):
    out = Outcome()
    opts = JkoOptions()
    for n, m, q0 in inputs.cases:
        out.attempted += 1
        tag = f"n={n} m={'inf' if math.isinf(m) else f'{m:g}'}"
        try:
            res = jko.jko_step(q0, m, inputs.h, inputs.phi, opts)
        except NUMERICAL_FAILURES as exc:
            out.fail(f"{tag}: raised {type(exc).__name__}: {exc}")
            continue
        x = res.state.nodes
        w = q0.w
        if not (res.state.total_mass == q0.total_mass and x.size == q0.nodes.size):
            out.fail(f"{tag}: mass {res.state.total_mass!r} in "
                     f"{x.size - 1} cells, input {q0.total_mass!r} in "
                     f"{q0.n} cells", incorrect=True)
        elif not np.all(np.diff(x) >= 0.0):
            out.fail(f"{tag}: nodes out of order", incorrect=True)
        elif math.isinf(m) and float(np.min(np.diff(x))) < w * (1.0 - 1e-12):
            out.fail(f"{tag}: gap {float(np.min(np.diff(x))):.17g} below "
                     f"the congestion spacing {w:.17g}", incorrect=True)
        elif res.kkt_residual > opts.tol_grad:
            out.fail(f"{tag}: accepted with KKT residual "
                     f"{res.kkt_residual:.3e} > tol {opts.tol_grad:.1e}")
    return out


# ---------------------------------------------------------------------------
# crossval: explicit PME against front tracking
# ---------------------------------------------------------------------------

# configs/crossval.txt
CROSSVAL_CONFIG = """\
potential.kind = quadratic
potential.q = 1.0
init.boxes = 1,2,1
grid.lo = -0.5
grid.hi = 2.5
grid.n = 72
m.list = 4,8,16,32,64
crossval.times = 0.25,0.5,1.0
heleshaw.dt = 0.001
pme.eps_supp = 0.25
threshold.interior = 0.05
"""


def build_crossval(_seed):
    cfg = ExperimentConfig.from_text(CROSSVAL_CONFIG)
    cfg.potential()
    Patch(tuple((a, b) for a, b, _h in cfg.boxes())).indicator(cfg.grid_spec())
    return cfg


def run_crossval(cfg):
    return _run_driver(experiments.crossval, cfg,
                       2 * len(cfg.get_floats("crossval.times")) + 1)


WORKLOADS = {
    "longtime": (build_longtime, run_longtime),
    "congested": (build_congested, run_congested),
    "crossval": (build_crossval, run_crossval),
}

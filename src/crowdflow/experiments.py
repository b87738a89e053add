"""Experiment drivers: parameter sweeps with pass/fail verdicts.

Each driver consumes an ExperimentConfig and produces an
ExperimentReport whose criteria rows carry stable ids, measured values
and thresholds, so every verdict in an emitted report traces back to a
named acceptance check.  A driver writes no file: its tables and
verdicts go out through ``ExperimentReport.write``, the one writer of
run outputs.  All drivers are deterministic for a fixed config and
seed; only ``longtime``'s trajectories may run in worker processes.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, _at_least
from .energy import EPS_FEAS, excess_mass, free_energy
from .heleshaw import hausdorff_distance, heleshaw_run
from .jko import (_step_count, _trajectory_steps, jko_trajectory,
                  verify_comparison)
from .model import GridDensity, Patch, make_grid_density, to_quantile
from .oracles import energy_minimizer_profile
from .pme import pme_run, pressure, support_set
from .transport import w2_distance


def _write_atomic(path, text):
    """The package's one file writer: ``text`` to ``path`` by a temporary
    file and a rename, so a reader never sees a partial file."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(text)
    os.replace(tmp, path)


def write_csv(path, header, rows):
    """Deterministic CSV writer (repr-exact floats, atomic replace)."""
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row)
                                  for row in rows]
    _write_atomic(path, "\n".join(lines) + "\n")


def _fmt(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


@dataclass
class ExperimentReport:
    kind: str
    criteria: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    config_hash: str = ""
    extras: dict = field(default_factory=dict)

    def add_criterion(self, cid, value, threshold, passed):
        self.criteria.append({"id": cid, "value": float(value),
                              "threshold": float(threshold),
                              "pass": bool(passed)})

    @property
    def all_passed(self):
        return all(c["pass"] for c in self.criteria)

    def write(self, outdir, plots=False):
        os.makedirs(outdir, exist_ok=True)
        for name, (header, rows) in self.tables.items():
            write_csv(os.path.join(outdir, f"{name}.csv"), header, rows)
        doc = {
            "kind": self.kind,
            "criteria": self.criteria,
            "notes": self.notes,
            "extras": self.extras,
            "config_hash": self.config_hash,
            "versions": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "scipy": __import__("scipy").__version__,
                "crowdflow": __version__,
            },
        }
        _write_atomic(os.path.join(outdir, "report.json"),
                      json.dumps(doc, indent=2, sort_keys=True) + "\n")
        if plots:
            self._emit_plots(outdir)

    def _emit_plots(self, outdir):
        """One chart per table: x is ``t`` if the table has it, otherwise
        its first column; y is the first column after x that is not
        ``m``; one series per ``m``, unless ``m`` is the x column.  Rows
        with a value a chart axis cannot place are left out."""
        from .svgplot import line_chart
        for name, (header, rows) in self.tables.items():
            xi = header.index("t") if "t" in header else 0
            yi = next((i for i in range(xi + 1, len(header))
                       if header[i] != "m"), None)
            if yi is None or not rows:
                continue
            mi = header.index("m") if "m" in header else xi
            series = {}
            for r in rows:
                if all(isinstance(v, (int, float)) and math.isfinite(v)
                       for v in (r[xi], r[yi])):
                    label = header[yi] if mi == xi else f"m = {r[mi]:g}"
                    series.setdefault(label, []).append(
                        (float(r[xi]), float(r[yi])))
            if not series:
                continue
            positive = all(x > 0 and y > 0 for pts in series.values()
                           for x, y in pts)
            _write_atomic(os.path.join(outdir, f"{name}.svg"),
                          line_chart(list(series.items()), name, header[xi],
                                     header[yi], positive))


# ---------------------------------------------------------------------------
# shared setup
# ---------------------------------------------------------------------------

def _setup(cfg: ExperimentConfig):
    phi = cfg.potential()
    grid = cfg.grid_spec()
    return phi, grid, cfg.grid_density("init.boxes", grid)


def _patch0(cfg, grid):
    """The patch of ``init.boxes``.  A patch is a set, the density 1 on
    it, so every box height must be 1."""
    boxes = cfg.boxes()
    if any(h != 1.0 for _a, _b, h in boxes):
        raise ConfigError("key 'init.boxes': a patch run needs every box "
                          f"height to be 1, got {[h for *_, h in boxes]}")
    try:
        return Patch(tuple((a, b) for a, b, _h in boxes), dim=grid.dim)
    except ValueError as exc:  # overlapping or unsorted boxes
        raise ConfigError(f"key 'init.boxes': {exc}") from exc


def _quantile0(cfg, key, rho, m_values):
    """The JKO start of ``rho``, config key ``key``'s density; with ``inf``
    in ``m_values``, no denser than the ``1 + EPS_FEAS`` jko_step admits."""
    n = _at_least("quantile.n", cfg.get_int("quantile.n", 400), 2)
    q0 = to_quantile(rho, n)
    if math.inf in m_values and q0.max_density > 1.0 + EPS_FEAS:
        raise ConfigError(f"key {key!r}: density exceeds the congestion "
                          "cap; the hard-constraint runs need density <= 1")
    return q0


#: the default ``pme.dt``; it lands on crossval's times 0.25, 0.5 and 1
_PME_DT = 5e-3


def _finite_m_list(cfg, kind):
    """The finite entries of ``m.list``; a sweep over m needs two."""
    m_list = [m for m in cfg.get_m_list(default=(4.0, 8.0, 16.0, 32.0, 64.0))
              if not math.isinf(m)]
    if len(m_list) < 2:
        raise ConfigError(f"key 'm.list': {kind} needs at least two finite "
                          f"m values, got {len(m_list)}")
    return m_list


def _traj_samples(q0, m, h, phi, T, n_eval):
    """States of one trajectory at ``n_eval + 1`` even step indices, the
    start (index 0) first; the others are dropped as the run goes."""
    n_steps = _step_count(T, h, phi)
    idx = np.unique(np.linspace(0, n_steps, n_eval + 1).astype(int))
    keep = set(idx.tolist())
    steps = _trajectory_steps(q0, m, h, phi, n_steps)
    return idx, [q0] + [out.state for k, out in enumerate(steps, 1)
                        if k in keep]


def _pmap(fn, arg_tuples, workers):
    """``[fn(*args) for args in arg_tuples]``, in ``workers`` processes."""
    # no more workers than calls: a fork-based pool starts every worker
    # at the first submit
    workers = min(workers, len(arg_tuples))
    if workers <= 1:
        return [fn(*args) for args in arg_tuples]
    from concurrent.futures import ProcessPoolExecutor  # loaded only for a pool
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*arg_tuples)))


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

#: converge-m's gate on the last m's sup-W2 over the first's: the gap to
#: the constrained flow is first order in 1/m, so it must at least halve
#: over a sweep whose m grows 16-fold (configs/converge_m.txt reads 0.0607)
FINAL_RATIO = 0.5


def converge_in_m(cfg: ExperimentConfig, workers=1) -> ExperimentReport:
    """Distance of finite-m flows to the hard-constraint flow, per m.

    The reference is the constrained minimizing-movement run at the same
    step size: comparing discrete to discrete at fixed h isolates the
    dependence on m.
    """
    phi, _, rho0 = _setup(cfg)
    m_list = _finite_m_list(cfg, "converge-m")
    h = cfg.get_positive("jko.h", 0.01)
    T = cfg.get_positive("run.T", 1.0)
    q0 = _quantile0(cfg, "init.boxes", rho0, m_list + [math.inf])
    ref = jko_trajectory(q0, math.inf, h, phi, T)
    rows = [(m, max(w2_distance(a, b) for a, b in
                    zip(jko_trajectory(q0, m, h, phi, T), ref)))
            for m in m_list]
    report = ExperimentReport("converge-m", config_hash=cfg.hash())
    report.tables["converge_m"] = (["m", "sup_w2"], rows)
    sups = [r[1] for r in rows]
    report.add_criterion("converge-m.monotone",
                         float(np.max(np.diff(sups))), 0.0,
                         bool(np.all(np.diff(sups) < 0.0)))
    report.add_criterion("converge-m.final-ratio", sups[-1] / sups[0],
                         FINAL_RATIO, sups[-1] <= FINAL_RATIO * sups[0])
    if not phi.positive_laplacian:
        report.notes.append(
            "potential Laplacian is not strictly positive: the free-boundary "
            "identification is not asserted; Wasserstein convergence only")
    return report


#: converge-h's gate on the fitted order in h: minimizing movements of a
#: lambda-convex energy converge at order 1/2 from a start of finite energy
#: (Ambrosio, Gigli and Savare, Gradient Flows, 2008, ch. 4), less a margin
#: for the fit (configs/converge_h.txt reads 0.99)
MIN_SLOPE = 0.45


def converge_in_h(cfg: ExperimentConfig, workers=1) -> ExperimentReport:
    """Self-convergence rate in the step size (consecutive-h distances)."""
    phi, _, rho0 = _setup(cfg)
    m = cfg.get_m(default=math.inf)
    h0 = cfg.get_positive("jko.h", 0.04)
    halvings = _at_least("h.halvings", cfg.get_int("h.halvings", 4), 2)
    T = cfg.get_positive("run.T", 1.0)
    q0 = _quantile0(cfg, "init.boxes", rho0, [m])
    hs = [h0 / 2 ** k for k in range(halvings + 1)]
    runs = [jko_trajectory(q0, m, h, phi, T) for h in hs]
    rows = []
    for k in range(halvings):
        coarse, fine = runs[k], runs[k + 1]
        sup = 0.0
        for j, state in enumerate(coarse):
            sup = max(sup, w2_distance(state, fine[min(2 * j, len(fine) - 1)]))
        rows.append((hs[k], sup))
    report = ExperimentReport("converge-h", config_hash=cfg.hash())
    report.tables["converge_h"] = (["h", "sup_w2_to_half_h"], rows)
    logs = np.log([r[0] for r in rows]), np.log([r[1] for r in rows])
    slope, intercept = np.polyfit(logs[0], logs[1], 1)
    resid = logs[1] - (slope * logs[0] + intercept)
    dof = max(len(rows) - 2, 1)
    se = math.sqrt(float(resid @ resid) / dof
                   / float(np.sum((logs[0] - logs[0].mean()) ** 2)))
    report.add_criterion("converge-h.slope", slope, MIN_SLOPE,
                         slope >= MIN_SLOPE)
    report.extras["slope_ci95"] = [slope - 1.96 * se, slope + 1.96 * se]
    return report


def longtime_decay(cfg: ExperimentConfig, workers=1) -> ExperimentReport:
    """Exponential approach to the stationary profile plus two-flow contraction."""
    phi, grid, rho0 = _setup(cfg)
    lam = phi.lam
    if lam <= 0.0:
        raise ConfigError("longtime decay needs a uniformly convex potential")
    m_list = cfg.get_m_list(default=(10.0, math.inf))
    h = cfg.get_positive("jko.h", 1e-3)
    T = cfg.get_positive("run.T", 5.0)
    eps_rate = cfg.get_float("eps.rate", 0.1)
    n_eval = _at_least("snapshots", cfg.get_int("snapshots", 16), 1)
    q0 = _quantile0(cfg, "init.boxes", rho0, m_list)
    q02 = _quantile0(cfg, "init2.boxes",
                     cfg.grid_density("init2.boxes", grid), m_list)

    report = ExperimentReport("longtime", config_hash=cfg.hash())
    runs = _pmap(_traj_samples, [(q, m, h, phi, T, n_eval)
                                 for m in m_list for q in (q0, q02)], workers)
    rows = []
    for m, (idx, states), (_, states2) in zip(m_list, runs[::2], runs[1::2]):
        rho_s = energy_minimizer_profile(m, phi, q0.total_mass, grid)
        q_s = to_quantile(rho_s, q0.n)
        d0 = w2_distance(q0, q_s)
        c0 = w2_distance(q0, q02)
        decay_ok, contract_ok = True, True
        for j, state, state2 in zip(idx, states, states2):
            t = j * h
            bound = d0 * math.exp(-lam * t) * (1.0 + eps_rate)
            dt_val = w2_distance(state, q_s)
            ct_val = w2_distance(state, state2)
            cbound = c0 * math.exp(-lam * t) * (1.0 + eps_rate)
            decay_ok &= dt_val <= bound + 1e-12
            contract_ok &= ct_val <= cbound + 1e-12
            rows.append((m, t, dt_val, bound, ct_val, cbound))
        report.add_criterion(f"longtime.decay.m={m:g}",
                             max(r[2] / max(r[3], 1e-300) for r in rows
                                 if r[0] == m), 1.0, decay_ok)
        report.add_criterion(f"longtime.contraction.m={m:g}",
                             max(r[4] / max(r[5], 1e-300) for r in rows
                                 if r[0] == m), 1.0, contract_ok)
    report.tables["longtime"] = (
        ["m", "t", "w2_to_stationary", "decay_bound",
         "w2_between_flows", "contraction_bound"], rows)
    return report


def compare_sweep(cfg: ExperimentConfig, workers=1) -> ExperimentReport:
    """Randomized ordered pairs, one step each, order-preservation verdicts."""
    phi = cfg.potential()
    grid = cfg.grid_spec()
    trials = _at_least("trials", cfg.get_int("trials", 20), 1)
    m_list = cfg.get_m_list(default=(5.0, 50.0, math.inf))
    h = cfg.get_positive("jko.h", 0.01)
    n_q = _at_least("quantile.n", cfg.get_int("quantile.n", 200), 2)
    seed = _at_least("seed", cfg.get_int("seed", 0), 0)
    rng = np.random.default_rng(seed)
    rows = []
    worst = 0.0
    all_ok = True
    span = grid.x_hi - grid.x_lo
    for trial in range(trials):
        big = _random_upper(rng, grid, span)
        small = _random_restriction(rng, big, grid)
        for m in m_list:
            rep = verify_comparison(small, big, m, h, phi, n_quantile=n_q)
            worst = max(worst, rep.max_violation)
            all_ok &= rep.passed
            rows.append((trial, m, rep.max_violation, rep.eps_cmp,
                         int(rep.passed)))
    report = ExperimentReport("compare", config_hash=cfg.hash())
    report.tables["compare"] = (
        ["trial", "m", "max_violation", "eps_cmp", "pass"], rows)
    report.add_criterion("compare.ordered", worst,
                         max(r[3] for r in rows), all_ok)
    return report


def _random_upper(rng, grid, span):
    margin = 0.15 * span
    a = rng.uniform(grid.x_lo + margin, grid.x_hi - margin - 0.8)
    b = rng.uniform(a + 0.6, min(a + 3.0, grid.x_hi - margin))
    height = rng.uniform(0.5, 1.0)
    return make_grid_density({"boxes": [(a, b, height)]}, grid)


def _random_restriction(rng, big: GridDensity, grid):
    lo, hi = big.support_extent()
    width = hi - lo
    a = rng.uniform(lo, lo + 0.45 * width)
    b = rng.uniform(a + 0.25 * width, hi)
    c = rng.uniform(0.3, 1.0)
    centers = grid.centers
    vals = np.where((centers >= a) & (centers <= b), c * big.values, 0.0)
    return GridDensity(grid, vals)


def crossval(cfg: ExperimentConfig, workers=1) -> ExperimentReport:
    """Degenerate-diffusion supports against the tracked free boundary."""
    phi, grid, rho0 = _setup(cfg)  # the indicator of the patch
    patch0 = _patch0(cfg, grid)
    m_list = _finite_m_list(cfg, "crossval")
    times = cfg.get_positive_floats("crossval.times", (0.25, 0.5, 1.0))
    dt_fb = cfg.get_positive("heleshaw.dt", 1e-3)
    # mid-level front extraction: the density tends to 1 inside the patch
    # and 0 outside, so any fixed level in (0, 1) converges; a mid level
    # avoids measuring the O(1/m) receding-front tail
    eps_supp = cfg.get_float("pme.eps_supp", 0.25)
    if not 0.0 < eps_supp < 1.0:  # NaN fails too
        raise ConfigError(f"key 'pme.eps_supp': must lie in (0, 1), "
                          f"got {eps_supp}")
    dt = cfg.get_positive("pme.dt", _PME_DT)

    traj, _ = heleshaw_run(patch0, phi, times[-1], dt_fb, snapshot_times=times)
    patches = dict(traj)

    # the exponents step as one stack, whatever ``workers`` is: the whole
    # stack is too little work to pay for a process pool
    stack, _ = pme_run(rho0, m_list, phi, times[-1], dt, times)
    runs = [dict(snaps) for snaps in stack]
    rows = []
    for m, snap in zip(m_list, runs):
        for t in times:
            dh = hausdorff_distance(support_set(snap[t], eps_supp), patches[t])
            rows.append((m, t, dh))
    report = ExperimentReport("crossval", config_hash=cfg.hash())
    report.tables["crossval"] = (["m", "t", "hausdorff"], rows)
    dx = grid.dx
    for t in times:
        col = [r[2] for r in rows if r[1] == t]
        report.add_criterion(f"crossval.hausdorff-decreasing.t={t:g}",
                             float(np.max(np.diff(col))), 0.0,
                             bool(np.all(np.diff(col) < 0.0)))
        report.add_criterion(f"crossval.hausdorff-final.t={t:g}", col[-1],
                             5.0 * dx, col[-1] <= 5.0 * dx)
    # interior saturation at the largest exponent
    interior_tol = cfg.get_float("threshold.interior", 0.05)
    worst = 0.0
    snap_last = runs[-1]
    for t in times:
        rho_t = snap_last[t]
        centers = rho_t.grid.centers
        for a, b in patches[t].intervals:
            mask = (centers >= a + 3 * dx) & (centers <= b - 3 * dx)
            if np.any(mask):
                worst = max(worst, float(np.max(np.abs(rho_t.values[mask] - 1.0))))
    report.add_criterion("crossval.interior-density", worst, interior_tol,
                         worst <= interior_tol)
    return report


def single_run(cfg: ExperimentConfig, workers=1) -> ExperimentReport:
    """One trajectory of the selected scheme; its states become report
    tables, and so does the ledger built from them."""
    scheme = cfg.get("run.scheme", "jko")
    report = ExperimentReport("single-run", config_hash=cfg.hash())
    T = cfg.get_positive("run.T", 1.0)
    n_snap = _at_least("snapshots", cfg.get_int("snapshots", 16), 1)
    snapshot_times = np.linspace(0, T, n_snap + 1)[1:]
    phi, grid, rho0 = _setup(cfg)
    tables = report.tables
    if scheme == "jko":
        m = cfg.get_m(default=math.inf)
        h = cfg.get_positive("jko.h", 0.01)
        q0 = _quantile0(cfg, "init.boxes", rho0, [m])
        states = jko_trajectory(q0, m, h, phi, T)
        rows = []
        for k, q in enumerate(states):
            rep = free_energy(q, m, phi)
            w2 = w2_distance(states[k - 1], q) if k else 0.0
            rows.append((k, k * h, rep.total, rep.internal, rep.potential, w2,
                         q.total_mass, q.nodes[0], q.nodes[-1],
                         q.excess_mass()))
        _report_ledger(report, rows)
        e0 = rows[0][2]
        diss = -np.diff([r[2] for r in rows])
        report.add_criterion("single-run.dissipation-sum", float(np.sum(diss)),
                             e0 + 1e-9, float(np.sum(diss)) <= e0 + 1e-9)
        # the start and the steps at the snapshot times, T included, as
        # the pme and heleshaw branches record them
        steps = {0} | {min(round(t / h), len(states) - 1)
                       for t in snapshot_times}
        for k in sorted(steps):
            q = states[k]
            levels = np.linspace(0.0, q.total_mass, q.n + 1)
            tables[f"state_{k:05d}"] = (["mass_level", "node"],
                                        list(zip(levels, q.nodes)))
    elif scheme == "pme":
        m = cfg.get_m(default=2.0)
        dt = cfg.get_positive("pme.dt", _PME_DT)
        (snaps,), steps = pme_run(rho0, [m], phi, T, dt,
                                  snapshot_times=snapshot_times)
        # W2 between consecutive snapshots goes through their quantiles,
        # which exist in 1D only
        n_q = min(max(grid.n_cells // 2, 16), 400)
        qs = [to_quantile(rho, n_q) for _, rho in snaps] \
            if grid.dim == 1 else None
        rows = []
        for k, ((t, rho), step) in enumerate(zip(snaps, steps)):
            rep = free_energy(rho, m, phi)
            w2 = 0.0 if not k else \
                w2_distance(qs[k - 1], qs[k]) if qs else math.nan
            rows.append((step, t, rep.total, rep.internal, rep.potential, w2,
                         rho.mass, *rho.support_extent(), excess_mass(rho)))
        _report_ledger(report, rows)
        for k, (t, rho) in enumerate(snaps):
            tables[f"snapshot_{k:05d}"] = (
                ["x_center", "rho", "pressure"],
                list(zip(rho.centers, rho.values, pressure(rho, m))))
    elif scheme == "heleshaw":
        patch0 = _patch0(cfg, grid)
        dt_fb = cfg.get_positive("heleshaw.dt", 1e-3)
        traj, volumes = heleshaw_run(patch0, phi, T, dt_fb,
                                     snapshot_times=snapshot_times)
        vols = np.array([v for _, v in volumes])
        drift = float(np.max(np.abs(vols - vols[0]))) / max(vols[0], 1e-300)
        report.add_criterion("single-run.volume-drift", drift, 1e-9 * (1.0 + T),
                             drift <= 1e-9 * (1.0 + T))
        tables["patches"] = _patch_table(traj)
    else:
        raise ConfigError(f"key 'run.scheme': unknown scheme {scheme!r}")
    return report


def _patch_table(trajectory):
    """t, interleaved endpoints, volume; rows of fewer intervals padded with nan."""
    width = max(len(p.intervals) for _, p in trajectory)
    header = ["t"]
    for i in range(1, width + 1):
        header += [f"a{i}", f"b{i}"]
    header.append("volume")
    rows = []
    for t, p in trajectory:
        ends = [e for ab in p.intervals for e in ab]
        rows.append([t] + ends + [math.nan] * (2 * width - len(ends))
                    + [p.volume])
    return header, rows


#: single-run's ledger: step index, time, free energy and its
#: internal/potential split, Wasserstein increment from the previous
#: recorded state, mass, support extent, and the mass above density one
_LEDGER_COLUMNS = ("step", "t", "E", "S", "P", "w2_inc", "mass",
                   "supp_lo", "supp_hi", "excess")


def _report_ledger(report: ExperimentReport, rows):
    """The ledger rows as the report's table, and their two verdicts."""
    report.tables["ledger"] = (list(_LEDGER_COLUMNS), rows)
    E = np.array([r[2] for r in rows])
    mass = np.array([r[6] for r in rows])
    scale = 1.0 + abs(float(E[0]))
    worst_up = float(np.max(np.diff(E))) if E.size > 1 else 0.0
    report.add_criterion("single-run.energy-monotone", worst_up, 1e-9 * scale,
                         worst_up <= 1e-9 * scale)
    drift = float(np.max(np.abs(mass - mass[0]))) / max(abs(mass[0]), 1e-300)
    report.add_criterion("single-run.mass-constant", drift, 1e-10,
                         drift <= 1e-10)


# experiment kind -> driver; the CLI makes one subcommand per key
DRIVERS = {
    "single-run": single_run,
    "converge-m": converge_in_m,
    "converge-h": converge_in_h,
    "compare": compare_sweep,
    "longtime": longtime_decay,
    "crossval": crossval,
}


def run_experiment(cfg: ExperimentConfig, kind,
                   workers=1) -> ExperimentReport:
    if kind not in DRIVERS:
        raise ConfigError(f"unknown experiment kind {kind!r}; "
                          f"choose one of {', '.join(DRIVERS)}")
    return DRIVERS[kind](cfg, workers=workers)

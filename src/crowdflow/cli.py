"""Command-line entry point.

Exit codes: 0 all verdicts pass, 1 some verdict failed, 2 configuration
error or rejected value, 3 numerical failure inside a run.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, ExperimentConfig, _at_least
from .experiments import DRIVERS, run_experiment
from .jko import JkoConvergenceError
from .pme import PmeStabilityError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdflow",
        description="Congested-transport numerical laboratory: minimizing "
                    "movements, degenerate diffusion, and free-boundary "
                    "patch dynamics with cross-validation experiments.")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in DRIVERS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--out", default="out",
                       help="output directory (default: ./out)")
        p.add_argument("--plots", action="store_true",
                       help="emit self-contained SVG charts next to the tables")
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes for longtime's trajectories; "
                            "the other experiments run serially (default: 1)")
    return parser


def _check_out(path):
    """A ConfigError naming ``--out`` unless ``ExperimentReport.write`` can
    make ``path`` or write into it: checked before the run, so an unusable
    directory wastes none.  Reads the file system, writes nothing."""
    probe = os.path.abspath(path)
    while not os.path.lexists(probe):  # "/" exists, so this ends
        probe = os.path.dirname(probe)
    if not (os.path.isdir(probe) and os.access(probe, os.W_OK | os.X_OK)):
        raise ConfigError(f"key '--out': {probe!r} is not a writable "
                          f"directory, so {path!r} cannot hold the outputs")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_file(args.config)
        workers = _at_least("--workers", args.workers, 1)
        _check_out(args.out)
        report = run_experiment(cfg, kind=args.kind, workers=workers)
    except (JkoConvergenceError, PmeStabilityError, FloatingPointError,
            ZeroDivisionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError and rejected arguments alike
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    report.write(args.out, plots=args.plots)
    for crit in report.criteria:
        mark = "PASS" if crit["pass"] else "FAIL"
        print(f"{mark} {crit['id']}: value={crit['value']:.6g} "
              f"threshold={crit['threshold']:.6g}")
    for note in report.notes:
        print(f"note: {note}")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())

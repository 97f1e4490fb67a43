"""The benchmark's workloads: CLI argument lists and output checks.

Each workload is one real ``confinement-lab`` job.  The ``short`` size runs
less of the same job at full resolution, and the benchmark runs it once,
untimed, to warm up; the ``tiny`` size runs it on a coarse grid for the
smoke test.  Outputs are checked at full size only.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

# Frozen (action, mass) baselines of tests/test_regression.py at p = 4.
BASELINES = {-40.0: (119.543879, 2.98608998), 1.5: (2.64119068, 14.6345603)}
BASELINE_RTOL = 1e-6
SWEEP_ROWS = 28
# Default-grid tails: the geometric far block ends at lambda = -2 and the
# near block starts at tau = LAMBDA0 - lambda = 0.5.
FAR_TAIL_MAX = -2.0
NEAR_TAIL_MIN = 1.5
PAIR_C = 1.4142
PAIR_MASS_RTOL = 1e-7
# 1,000 steps of dt = 2e-3, so that a run holds many repetitions.
EVOLVE_T = 2.0
# Acceptance criterion 11a.
EVOLVE_DRIFT_MAX = 1e-10
EVOLVE_WANDER_MAX = 0.05

WORKLOADS = ("sweep-p4", "pair-p4", "evolve-p4")
SIZES = ("full", "short", "tiny")
# options appended to the full job; argparse keeps the last value
SHORT = {"sweep-p4": ["--lambda-grid=-10,0.5,1.5"], "pair-p4": [], "evolve-p4": ["--T", "0.1"]}
TINY = ["--K", "16", "--Mz", "64", "--Lz", "8"]


def argv(workload: str, seed: int, outdir: Path, size: str = "full") -> list[str]:
    common = ["--p", "4", "--jobs", "1", "--outdir", str(outdir)]
    if workload == "sweep-p4":
        out = ["sweep", *common]
    elif workload == "pair-p4":
        out = ["pair", *common, "--c", str(PAIR_C)]
    elif workload == "evolve-p4":
        out = ["evolve", *common, "--lambda", "1.8", "--perturbation", "0.01",
               "--seed", str(seed), "--T", str(EVOLVE_T)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    if size != "full":
        out += SHORT[workload]
    if size == "tiny":
        out += TINY
    return out


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def check_sweep(outdir: Path) -> list[tuple[str, bool, str]]:
    with open(outdir / "branch.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_lam = {float(r["lambda"]): r for r in rows}
    out = [("rows", len(rows) == SWEEP_ROWS, f"{len(rows)} rows, want {SWEEP_ROWS}")]
    for lam, (action, mass) in BASELINES.items():
        row = by_lam.get(lam)
        for key, want in (("action", action), ("mass", mass)):
            got = float(row[key]) if row else float("nan")
            err = _rel(got, want)
            out.append((f"{key}@{lam:g}", err <= BASELINE_RTOL,
                        f"{got!r} vs {want!r}, rel {err:.2e} (tol {BASELINE_RTOL:g})"))
    far = [r["stability"] for lam, r in by_lam.items() if lam <= FAR_TAIL_MAX]
    near = [r["stability"] for lam, r in by_lam.items() if lam >= NEAR_TAIL_MIN]
    out.append(("far_tail_unstable", bool(far) and set(far) == {"unstable"},
                f"{len(far)} far samples, tags {sorted(set(far))}"))
    out.append(("near_tail_stable", bool(near) and set(near) == {"stable"},
                f"{len(near)} near samples, tags {sorted(set(near))}"))
    eigs = [float(r["eig_min"]) for r in rows]
    out.append(("eig_min_negative", bool(eigs) and max(eigs) < 0.0,
                f"largest eig_min {max(eigs, default=float('nan')):.3g}"))
    return out


def check_pair(outdir: Path) -> list[tuple[str, bool, str]]:
    meta = json.loads((outdir / "pair.json").read_text())
    target = PAIR_C ** 2
    out = [("tags", (meta["tag_low"], meta["tag_high"]) == ("unstable", "stable"),
            f"low {meta['tag_low']}, high {meta['tag_high']}")]
    for side in ("low", "high"):
        err = _rel(meta[f"mass_{side}"], target)
        out.append((f"mass_{side}", err <= PAIR_MASS_RTOL,
                    f"rel {err:.2e} from c^2 (tol {PAIR_MASS_RTOL:g})"))
    return out


def check_evolve(outdir: Path) -> list[tuple[str, bool, str]]:
    import numpy as np
    data = np.loadtxt(outdir / "trace.csv", delimiter=",", skiprows=1, ndmin=2)
    mass, dist = data[:, 1], data[:, 3]
    drift = float(np.abs(mass / mass[0] - 1.0).max())
    wander = float(dist.max())
    return [("mass_drift", drift <= EVOLVE_DRIFT_MAX,
             f"{drift:.2e} (tol {EVOLVE_DRIFT_MAX:g})"),
            ("orbital_wander", wander <= EVOLVE_WANDER_MAX,
             f"{wander:.4f} (tol {EVOLVE_WANDER_MAX:g})")]


CHECKS = {"sweep-p4": check_sweep, "pair-p4": check_pair, "evolve-p4": check_evolve}


def check(workload: str, rc: int, outdir: Path,
          size: str = "full") -> list[tuple[str, bool, str]]:
    """Output checks of one run; smaller sizes check the exit code only."""
    out = [("exit_code", rc == 0, f"exit code {rc}")]
    if size != "full":
        return out
    try:
        out += CHECKS[workload](outdir)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        out.append(("outputs_readable", False, repr(exc)))
    return out

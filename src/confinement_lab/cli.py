"""Batch entry point: solve, sweep, verify, limits, pair, evolve.

Every run writes the exact configuration used (JSON) next to its outputs,
plus checksums for binary fields, so results are reproducible from the
output directory alone.  Exit codes: 0 success (verify may still report
failed/undetermined verdicts in its JSON), 2 configuration error,
3 solver failure (NotConverged, a near-singular chi solve, an eigensolve
that does not converge, or a sweep with a failed sample).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .core import ModelParams, save_field
from .errors import ConfinementLabError, EigsNotConverged, NearSingular, NotConverged
from .functionals import report
from .ground_state import Resolution, solve_ground_state
from .branch import (analyze_sample, default_lambda_grid, find_mass_pair,
                     mass_sup_scan, sweep)
from .limits import profiles_to_csv, shoot_1d, shoot_3d, soliton_1d
from .dynamics import PERTURBATION_SHAPES, EvolutionConfig, evolve, perturbed_state
from . import verify as verify_mod


def _add_common(sp, solves=True):
    """The options every subcommand takes; with solves, the grid too.
    --seed goes only where it is read."""
    sp.add_argument("--p", type=float, default=4.0, help="nonlinearity exponent in (2,6)")
    if solves:
        sp.add_argument("--K", type=int, default=Resolution().K)
        sp.add_argument("--Mz", type=int, default=Resolution().Mz)
        sp.add_argument("--Lz", type=float, default=Resolution().Lz)
    sp.add_argument("--outdir", type=Path, default=Path("out"))


def _add_jobs(sp):
    sp.add_argument("--jobs", type=int, default=1,
                    help="accepted for scripts that pass it; the run uses one process")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="confinement-lab",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("solve", help="one ground state at a fixed frequency")
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    _add_common(sp)

    sp = sub.add_parser("sweep", help="trace the branch over a frequency grid")
    sp.add_argument("--lambda-grid", type=str, default="",
                    help="comma-separated frequencies; empty for the default grid")
    sp.add_argument("--lambda-min", type=float, default=argparse.SUPPRESS, help="not with --lambda-grid")
    sp.add_argument("--tau-min", type=float, default=argparse.SUPPRESS, help="not with --lambda-grid")
    sp.add_argument("--with-fd", action="store_true", help="also record finite-difference slopes")
    sp.add_argument("--skip-eigs", action="store_true")
    _add_common(sp)
    _add_jobs(sp)

    sp = sub.add_parser("verify", help="check the asymptotic/stability claims numerically")
    sp.add_argument("--theorem", choices=["1.3", "A.3", "A.8", "slopes"], required=True)
    sp.add_argument("--lambdas", type=str, default=argparse.SUPPRESS, help="theorem 1.3 only")
    sp.add_argument("--tau", type=str, default=argparse.SUPPRESS, help="theorem A.3 only")
    _add_common(sp)

    sp = sub.add_parser("limits", help="1D/3D limit profiles to CSV")
    sp.add_argument("--which", choices=["1d", "3d", "both"], default="both")
    _add_common(sp, solves=False)

    sp = sub.add_parser("pair", help="two states of prescribed L2 norm")
    sp.add_argument("--c", type=float, required=True, help="prescribed L2 norm")
    _add_common(sp)
    _add_jobs(sp)

    sp = sub.add_parser("evolve", help="time evolution of a (perturbed) standing wave")
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--dt", type=float, default=2e-3)
    sp.add_argument("--T", type=float, default=20.0)
    sp.add_argument("--perturbation", type=float, default=0.0)
    sp.add_argument("--shape", choices=PERTURBATION_SHAPES, default="even_random")
    sp.add_argument("--record-every", type=int, default=10)
    sp.add_argument("--snapshots", action="store_true",
                    help="write a Field snapshot at every record point")
    sp.add_argument("--seed", type=int, default=1234, help="seed of the even_random shape")
    _add_common(sp)
    _add_jobs(sp)
    return ap


# Flags that only some runs of a subcommand read: dest -> (default, whether
# the run reads it).  Other runs refuse them and leave them out of
# run_config.json.
CONDITIONAL = {
    "sweep": {"lambda_min": (-40.0, lambda a: not a.lambda_grid),
              "tau_min": (0.05, lambda a: not a.lambda_grid)},
    "verify": {"lambdas": ("-10,-20,-40", lambda a: a.theorem == "1.3"),
               "tau": ("0.2,0.1,0.05", lambda a: a.theorem == "A.3")},
}


def _settle(ap, args) -> None:
    for dest, (default, reads) in CONDITIONAL.get(args.cmd, {}).items():
        if reads(args):
            vars(args).setdefault(dest, default)
        elif hasattr(args, dest):
            ap.error(f"this {args.cmd} run does not read --{dest.replace('_', '-')}")


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _json_default(obj):
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _config_dict(args) -> dict:
    d = {k: (str(v) if isinstance(v, Path) else v) for k, v in vars(args).items()}
    d["version"] = __version__
    return d


def _write_config(args) -> None:
    args.outdir.mkdir(parents=True, exist_ok=True)
    (args.outdir / "run_config.json").write_text(
        json.dumps(_config_dict(args), indent=2, sort_keys=True, default=_json_default))


def _prep(args) -> Resolution:
    _write_config(args)
    return Resolution(K=args.K, Mz=args.Mz, Lz=args.Lz)


def cmd_solve(args) -> int:
    res = _prep(args)
    params = ModelParams(p=args.p, lam=args.lam)
    result = solve_ground_state(params, resolution=res)
    rep = report(result.u, params)
    sample = analyze_sample(result)
    save_field(result.u, args.outdir / "u", p=args.p, lam=args.lam)
    meta = {
        "lambda": args.lam, "p": args.p,
        "action": result.action, "mass": result.mass,
        "gradient_norm": result.gradient_norm,
        "nehari_residual": result.nehari_residual,
        "iterations": result.iterations,
        "picture": "u",
        "slope_chi": sample.slope_chi,
        "stability": sample.stability,
        "eig_min": sample.eig_min,
        "functionals": asdict(rep),
    }
    (args.outdir / "result.json").write_text(json.dumps(meta, indent=2, sort_keys=True, default=_json_default))
    print(f"lambda={args.lam:g}: action={result.action:.9g} mass={result.mass:.9g} "
          f"[{sample.stability}]")
    return 0


def cmd_sweep(args) -> int:
    res = _prep(args)
    if args.lambda_grid:
        grid = _floats(args.lambda_grid)
    else:
        grid = default_lambda_grid(lam_min=args.lambda_min, tau_min=args.tau_min)
    curve = sweep(args.p, grid, resolution=res,
                  compute_fd=args.with_fd, compute_eig=not args.skip_eigs)
    for lam, exc in curve.failures:
        print(f"failed: lambda={lam:g}: {type(exc).__name__}: {exc}", file=sys.stderr)
    curve.to_csv(args.outdir / "branch.csv")
    summary = f"{len(curve.samples)} samples ({len(curve.failures)} failures) -> {args.outdir/'branch.csv'}"
    if curve.samples:
        scan = mass_sup_scan(curve)
        (args.outdir / "mass_scan.json").write_text(json.dumps(asdict(scan), indent=2, default=_json_default))
        summary += f"; max mass {scan.max_mass:.6g} at lambda={scan.argmax_lambda:g}"
    print(summary)
    return 0 if not curve.failures else 3


def cmd_verify(args) -> int:
    res = _prep(args)
    given = vars(args)
    verdict = verify_mod.run_check(args.theorem, p=args.p,
                                   lambdas=_floats(given.get("lambdas", "")),
                                   taus=_floats(given.get("tau", "")),
                                   resolution=res)
    out = args.outdir / f"verify_{args.theorem.replace('.', '_')}.json"
    out.write_text(json.dumps(verdict, indent=2, sort_keys=True, default=_json_default))
    print(f"{args.theorem}: {verdict['verdict']} -> {out}")
    return 0


def cmd_limits(args) -> int:
    _write_config(args)
    if args.which in ("1d", "both"):
        sol = soliton_1d(args.p)
        prof = shoot_1d(args.p)
        z = np.linspace(0.0, 20.0, 2001)
        profiles_to_csv(args.outdir / "soliton_1d_closed_form.csv", z, sol(z))
        profiles_to_csv(args.outdir / "soliton_1d_shot.csv", z, prof(z))
        print(f"1D: amplitude {sol.amplitude:.9g} (shot {prof.v0:.9g}), "
              f"mass {sol.mass:.9g}")
    if args.which in ("3d", "both"):
        prof3 = shoot_3d(args.p)
        rr = np.linspace(0.0, 20.0, 2001)
        profiles_to_csv(args.outdir / "soliton_3d_shot.csv", rr, prof3(rr))
        print(f"3D: peak {prof3.v0:.9g}, mass {prof3.mass:.9g}")
    return 0


def cmd_pair(args) -> int:
    res = _prep(args)
    pair = find_mass_pair(args.p, args.c, resolution=res)
    meta = {
        "c": args.c, "p": args.p,
        "lambda_low": pair.lambda_low, "lambda_high": pair.lambda_high,
        "mass_low": pair.low.mass, "mass_high": pair.high.mass,
        "action_low": pair.low.action, "action_high": pair.high.action,
        "tag_low": pair.tag_low, "tag_high": pair.tag_high,
    }
    (args.outdir / "pair.json").write_text(json.dumps(meta, indent=2, sort_keys=True, default=_json_default))
    save_field(pair.low.u, args.outdir / "u_low", p=args.p, lam=pair.lambda_low)
    save_field(pair.high.u, args.outdir / "u_high", p=args.p, lam=pair.lambda_high)
    print(f"c={args.c:g}: lambda_low={pair.lambda_low:.6g} [{pair.tag_low}], "
          f"lambda_high={pair.lambda_high:.6g} [{pair.tag_high}]")
    return 0


def cmd_evolve(args) -> int:
    res = _prep(args)
    cfg = EvolutionConfig(dt=args.dt, T=args.T, perturbation=args.perturbation,
                          shape=args.shape, record_every=args.record_every,
                          seed=args.seed)
    params = ModelParams(p=args.p, lam=args.lam)
    result = solve_ground_state(params, resolution=res)
    psi0 = perturbed_state(result.u, cfg)
    snap_dir = None
    if args.snapshots:
        snap_dir = args.outdir / "snapshots"
        snap_dir.mkdir(exist_ok=True)
    trace = evolve(psi0, params, cfg, reference=result.u, snapshot_dir=snap_dir)
    trace.to_csv(args.outdir / "trace.csv")
    print(f"T={args.T:g}: final distance {trace.orbital_distance[-1]:.3e}, "
          f"mass drift {abs(trace.mass[-1]/trace.mass[0]-1):.3e}")
    return 0


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        _settle(ap, args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {"solve": cmd_solve, "sweep": cmd_sweep, "verify": cmd_verify,
                "limits": cmd_limits, "pair": cmd_pair, "evolve": cmd_evolve}
    try:
        return handlers[args.cmd](args)
    except (NotConverged, NearSingular, EigsNotConverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfinementLabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

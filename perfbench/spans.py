"""Span tracer for the traced benchmark run, and the per-layer metrics.

The tracer wraps the public functions of each confinement_lab module from
outside the package: every module attribute that *is* the wrapped function
is replaced, so a name imported elsewhere with ``from .x import f`` (the
CLI imports ``sweep`` and ``evolve``, ``branch`` imports ``solve_chi``) is
traced too.  Each wrapped call records one span (name, start, end, parent)
in memory; ``uninstall`` puts every original object back.

Per-layer metrics are derived from the spans after the run.  ``<span>.s``
is the inclusive time of the outermost calls of that name, ``.self_s`` the
span duration minus the time covered by its child spans, ``.calls`` the
number of spans.
"""

from __future__ import annotations

import csv
import functools
import math
import pathlib
import sys
import time
from collections import Counter

import numpy as np
from scipy.sparse.linalg import LinearOperator

PACKAGE = "confinement_lab"

_STATIONARY = "wall_s on sweep-p4, pair-p4 (even-sector DCT); evolve-p4 unchanged"
_SWEEP_ONLY = "wall_s on sweep-p4; pair-p4 and evolve-p4 unchanged"
_EVOLVE_ONLY = "wall_s on evolve-p4; sweep-p4 and pair-p4 unchanged"

# (name, unit, better, end-to-end metric and workload it should move)
LAYER_METRICS = (
    ("grid.to_coeffs.calls", "count", "lower", "wall_s on every workload"),
    ("grid.from_coeffs.calls", "count", "lower", "wall_s on every workload"),
    ("grid.to_coeffs.self_s", "s", "lower", _STATIONARY),
    ("grid.from_coeffs.self_s", "s", "lower", _STATIONARY),
    ("grid.transform_pair_us", "us", "lower", _STATIONARY),
    ("grid.transform_flops", "flop", "lower", _STATIONARY),
    ("grid.build.calls", "count", "lower", "wall_s on sweep-p4 (a stretched grid per sample)"),
    ("grid.build.s", "s", "lower", "wall_s on sweep-p4, or setup_s if builds move into set-up"),
    ("ground_state.solve_ground_state.calls", "count", "lower", "wall_s on sweep-p4, pair-p4"),
    ("ground_state.solve_ground_state.s", "s", "lower", "wall_s on sweep-p4, pair-p4"),
    ("ground_state.iterate_ground_state.calls", "count", "lower", "wall_s on sweep-p4, pair-p4"),
    ("ground_state.iterations", "count", "lower", "wall_s on sweep-p4, pair-p4"),
    ("ground_state.starts_useful_ratio", "ratio", "higher", "wall_s on sweep-p4, pair-p4"),
    ("ground_state.minres.calls", "count", "lower", "wall_s on sweep-p4, pair-p4"),
    ("ground_state.minres.iters", "count", "lower", "wall_s on sweep-p4, pair-p4"),
    ("ground_state.minres.info_nonzero", "count", "lower", "failed checks, sweep-p4 and pair-p4"),
    ("ground_state.hessian.matvecs", "count", "lower", "wall_s on sweep-p4 (block matmat), pair-p4"),
    ("ground_state.lobpcg.calls", "count", "lower", _SWEEP_ONLY),
    ("ground_state.lobpcg.s", "s", "lower", _SWEEP_ONLY),
    ("ground_state.lobpcg.matmat_calls", "count", "lower", _SWEEP_ONLY),
    ("ground_state.eigsh_fallbacks", "count", "lower", _SWEEP_ONLY),
    ("ground_state.solve_chi.s", "s", "lower", "wall_s on sweep-p4, pair-p4"),
    ("ground_state.linearized_smallest_eigs.s", "s", "lower", _SWEEP_ONLY),
    ("branch.sweep.s", "s", "lower", _SWEEP_ONLY),
    ("branch.find_mass_pair.s", "s", "lower", "wall_s on pair-p4 only"),
    ("branch.solves_per_sample", "ratio", "lower", _SWEEP_ONLY),
    ("branch.iterations_per_sample", "count", "lower", _SWEEP_ONLY + " (tangent predictor)"),
    ("branch.slope_finite_difference.calls", "count", "lower", _SWEEP_ONLY),
    ("branch.analyze_sample.self_s", "s", "lower", _SWEEP_ONLY),
    ("dynamics.evolve.self_s", "s", "lower", _EVOLVE_ONLY + " (fused half-step)"),
    ("dynamics.steps", "count", "lower", _EVOLVE_ONLY),
    ("dynamics.step_us", "us", "lower", _EVOLVE_ONLY + " (fused half-step)"),
    ("dynamics.orbital_distance_data.calls", "count", "lower", _EVOLVE_ONLY),
    ("dynamics.orbital_distance_data.s", "s", "lower", _EVOLVE_ONLY),
    ("dynamics.energy_value.calls", "count", "lower", _EVOLVE_ONLY),
    ("dynamics.energy_value.s", "s", "lower", _EVOLVE_ONLY),
    ("dynamics.mass_drift_per_step", "1/step", "lower", "evolve-p4 mass-drift check"),
    ("limits.shoot_3d.calls", "count", "lower", "wall_s on sweep-p4, pair-p4; setup_s if cached"),
    ("limits.shoot_3d.s", "s", "lower", "wall_s on sweep-p4, pair-p4; setup_s if cached"),
    ("scaling.resample.calls", "count", "lower", "wall_s on sweep-p4, pair-p4"),
    ("scaling.resample.s", "s", "lower", "wall_s on sweep-p4, pair-p4"),
    ("functionals.quadratic_parts.calls", "count", "lower", "wall_s on evolve-p4 (record points)"),
    ("functionals.quadratic_parts.s", "s", "lower", "wall_s on evolve-p4 (record points)"),
    ("cli.output.s", "s", "lower", "wall_s on every workload"),
    ("cli.output.bytes", "B", "lower", "wall_s on every workload"),
    ("trace.wall_s", "s", "lower", "traced wall time of one workload run"),
    ("trace.overhead_pct", "%", "lower", "traced wall_s against untraced wall_s"),
)

# Functions traced by identity: (module that defines it, attribute, span name).
FUNCTIONS = (
    ("grid", "build", "grid.build"),
    ("ground_state", "solve_ground_state", "ground_state.solve_ground_state"),
    ("ground_state", "iterate_ground_state", "ground_state.iterate_ground_state"),
    ("ground_state", "minres", "ground_state.minres"),
    ("ground_state", "lobpcg", "ground_state.lobpcg"),
    ("ground_state", "eigsh", "ground_state.eigsh"),
    ("ground_state", "solve_chi", "ground_state.solve_chi"),
    ("ground_state", "linearized_smallest_eigs", "ground_state.linearized_smallest_eigs"),
    ("branch", "sweep", "branch.sweep"),
    ("branch", "find_mass_pair", "branch.find_mass_pair"),
    ("branch", "slope_finite_difference", "branch.slope_finite_difference"),
    ("branch", "analyze_sample", "branch.analyze_sample"),
    ("dynamics", "evolve", "dynamics.evolve"),
    ("dynamics", "orbital_distance_data", "dynamics.orbital_distance_data"),
    ("dynamics", "energy_value", "dynamics.energy_value"),
    ("limits", "shoot_3d", "limits.shoot_3d"),
    ("scaling", "resample", "scaling.resample"),
    ("functionals", "quadratic_parts", "functionals.quadratic_parts"),
    ("core", "save_field", "cli.output"),
)

# Methods traced on their class: (module, class, method, span name).
METHODS = (
    ("grid", "Discretization", "to_coeffs", "grid.to_coeffs"),
    ("grid", "Discretization", "from_coeffs", "grid.from_coeffs"),
    ("branch", "BranchCurve", "to_csv", "cli.output"),
    ("dynamics", "EvolutionTrace", "to_csv", "cli.output"),
)


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class _ColumnCounter(LinearOperator):
    """Pass-through operator counting the columns applied (the scipy
    default ``matmat`` of the wrapped operator loops over columns)."""

    def __init__(self, op, counts: Counter):
        super().__init__(op.dtype, op.shape)
        self.op = op
        self.counts = counts

    def _matvec(self, x):
        self.counts["hessian.matvecs"] += 1
        return self.op.matvec(x)

    def _matmat(self, X):
        self.counts["hessian.matvecs"] += X.shape[1]
        self.counts["lobpcg.matmat_calls"] += 1
        return self.op.matmat(X)


class Tracer:
    """Records spans around the package's public functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.nested: list[bool] = []     # an ancestor span has the same name
        self._stack = [-1]
        self._active: list[int] = []
        self.counts: Counter = Counter()
        self.transforms: Counter = Counter()   # (method, complex, K, nr, Mz) -> calls
        self.iterations: dict[int, int] = {}   # iterate_ground_state span -> iterations
        self.evolutions: list[tuple[int, float]] = []   # (steps, relative mass change)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(span_id, result)`` runs
        on the result before the span closes."""
        nid = self._name_id(name)
        span_name, start, end, parent = self.span_name, self.start, self.end, self.parent
        nested, stack, active, clock = self.nested, self._stack, self._active, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            nested.append(active[nid] > 0)
            end.append(0.0)
            active[nid] += 1
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(sid, result)
                return result
            finally:
                end[sid] = clock()
                stack.pop()
                active[nid] -= 1

        return traced

    # -- installation -------------------------------------------------------------

    def _set(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod in package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        mods = {m.__name__.rpartition(".")[2]: m for m in package_modules()}
        for modname, attr, span in FUNCTIONS:
            original = getattr(mods[modname], attr)
            self._replace_everywhere(original, self.wrap(span, self._counted(attr, original),
                                                         self._after(attr)))
        for modname, clsname, meth, span in METHODS:
            cls = getattr(mods[modname], clsname)
            original = cls.__dict__[meth]
            self._set(cls, meth, self.wrap(span, self._counted(meth, original)))
        for meth in ("write_text", "write_bytes"):
            self._set(pathlib.Path, meth, self.wrap("cli.output", pathlib.Path.__dict__[meth]))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _counted(self, attr: str, fn):
        """Counting shims that sit inside the span of their function."""
        counts, transforms = self.counts, self.transforms
        if attr == "minres":
            def minres(A, b, *args, callback=None, **kwargs):
                def step(xk):
                    counts["minres.iters"] += 1
                    if callback is not None:
                        callback(xk)
                x, info = fn(_ColumnCounter(A, counts), b, *args, callback=step, **kwargs)
                if info != 0:
                    counts["minres.info_nonzero"] += 1
                return x, info
            return minres
        if attr == "lobpcg":
            def lobpcg(A, X, *args, **kwargs):
                return fn(_ColumnCounter(A, counts), X, *args, **kwargs)
            return lobpcg
        if attr in ("to_coeffs", "from_coeffs"):
            def transform(grid, arr):
                transforms[(attr, arr.dtype.kind == "c", grid.K, grid.nr, grid.Mz)] += 1
                return fn(grid, arr)
            return transform
        return fn

    def _after(self, attr: str):
        if attr == "iterate_ground_state":
            def record(sid, result):
                self.iterations[sid] = int(result.iterations)
            return record
        if attr == "evolve":
            def record(sid, trace):
                steps = int(round(trace.t[-1] / trace.dt))
                self.evolutions.append((steps, abs(trace.mass[-1] / trace.mass[0] - 1.0)))
            return record
        return None

    # -- output -------------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["id", "parent", "name", "start_s", "end_s"])
            t0 = self.start[0] if self.start else 0.0
            for sid, (nid, s, e, p) in enumerate(zip(self.span_name, self.start,
                                                     self.end, self.parent)):
                wr.writerow([sid, p, self.names[nid], f"{s - t0:.9f}", f"{e - t0:.9f}"])


def transform_flops(key) -> int:
    """Nominal flops of one transform call, computed from the array sizes:
    GEMM 2mnk real or 8mnk complex, FFT 5 N log2 N per complex row."""
    method, is_complex, K, nr, Mz = key
    fft = 5 * K * Mz * math.log2(Mz)
    if method == "to_coeffs":
        gemm = (8 if is_complex else 2) * K * nr * Mz
    else:
        gemm = 8 * nr * K * Mz     # the axial stage is always complex
    return int(round(gemm + fft))


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Every per-layer metric of LAYER_METRICS except those of the ``trace``
    and ``cli.output.bytes`` rows, which need the run, not the spans."""
    n = len(tr.start)
    names = np.array(tr.span_name, dtype=np.int64)
    start = np.array(tr.start)
    end = np.array(tr.end)
    parent = np.array(tr.parent, dtype=np.int64)
    nested = np.array(tr.nested, dtype=bool)
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child

    def mask(span):
        nid = tr._ids.get(span)
        return names == nid if nid is not None else np.zeros(n, dtype=bool)

    def calls(span):
        return float(mask(span).sum())

    def incl(span):
        return float(dur[mask(span) & ~nested].sum())

    def selft(span):
        return float(self_t[mask(span)].sum())

    def under(span):
        """Spans inside a span of the given name (single-threaded nesting)."""
        m = mask(span) & ~nested
        lo, hi = start[m], end[m]
        inside = np.zeros(n, dtype=bool)
        for a, b in zip(lo, hi):
            inside |= (start > a) & (end <= b)
        return inside

    def per_call_us(span):
        c = calls(span)
        return 1e6 * selft(span) / c if c else 0.0

    out: dict[str, float] = {}
    for span in ("grid.to_coeffs", "grid.from_coeffs"):
        out[f"{span}.calls"] = calls(span)
        out[f"{span}.self_s"] = selft(span)
    out["grid.transform_pair_us"] = per_call_us("grid.to_coeffs") + per_call_us("grid.from_coeffs")
    out["grid.transform_flops"] = float(sum(transform_flops(k) * v
                                            for k, v in tr.transforms.items()))
    out["grid.build.calls"] = calls("grid.build")
    out["grid.build.s"] = incl("grid.build")

    solves = calls("ground_state.solve_ground_state")
    starts = calls("ground_state.iterate_ground_state")
    out["ground_state.solve_ground_state.calls"] = solves
    out["ground_state.solve_ground_state.s"] = incl("ground_state.solve_ground_state")
    out["ground_state.iterate_ground_state.calls"] = starts
    out["ground_state.iterations"] = float(sum(tr.iterations.values()))
    out["ground_state.starts_useful_ratio"] = solves / starts if starts else 0.0
    out["ground_state.minres.calls"] = calls("ground_state.minres")
    out["ground_state.minres.iters"] = float(tr.counts["minres.iters"])
    out["ground_state.minres.info_nonzero"] = float(tr.counts["minres.info_nonzero"])
    out["ground_state.hessian.matvecs"] = float(tr.counts["hessian.matvecs"])
    out["ground_state.lobpcg.calls"] = calls("ground_state.lobpcg")
    out["ground_state.lobpcg.s"] = incl("ground_state.lobpcg")
    out["ground_state.lobpcg.matmat_calls"] = float(tr.counts["lobpcg.matmat_calls"])
    out["ground_state.eigsh_fallbacks"] = calls("ground_state.eigsh")
    out["ground_state.solve_chi.s"] = incl("ground_state.solve_chi")
    out["ground_state.linearized_smallest_eigs.s"] = incl("ground_state.linearized_smallest_eigs")

    in_sweep = under("branch.sweep")
    samples = float((mask("branch.analyze_sample") & in_sweep).sum())
    sweep_solves = float((mask("ground_state.solve_ground_state") & in_sweep).sum())
    sweep_iters = sum(it for sid, it in tr.iterations.items() if in_sweep[sid])
    out["branch.sweep.s"] = incl("branch.sweep")
    out["branch.find_mass_pair.s"] = incl("branch.find_mass_pair")
    out["branch.solves_per_sample"] = sweep_solves / samples if samples else 0.0
    out["branch.iterations_per_sample"] = sweep_iters / samples if samples else 0.0
    out["branch.slope_finite_difference.calls"] = calls("branch.slope_finite_difference")
    out["branch.analyze_sample.self_s"] = selft("branch.analyze_sample")

    steps = sum(s for s, _ in tr.evolutions)
    evolve_id = tr._ids.get("dynamics.evolve", -1)
    step_parent = np.zeros(n, dtype=bool)
    step_parent[has_parent] = names[parent[has_parent]] == evolve_id
    grid_under_evolve = step_parent & (mask("grid.to_coeffs") | mask("grid.from_coeffs"))
    step_s = selft("dynamics.evolve") + float(self_t[grid_under_evolve].sum())
    out["dynamics.evolve.self_s"] = selft("dynamics.evolve")
    out["dynamics.steps"] = float(steps)
    out["dynamics.step_us"] = 1e6 * step_s / steps if steps else 0.0
    for span in ("dynamics.orbital_distance_data", "dynamics.energy_value",
                 "limits.shoot_3d", "scaling.resample", "functionals.quadratic_parts"):
        out[f"{span}.calls"] = calls(span)
        out[f"{span}.s"] = incl(span)
    drift = sum(d for _, d in tr.evolutions)
    out["dynamics.mass_drift_per_step"] = drift / steps if steps else 0.0
    out["cli.output.s"] = incl("cli.output")
    return out

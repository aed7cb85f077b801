"""Span tracing of one solve, from outside the program.

``Tracer.install()`` rebinds the module attributes through which nsvar
code calls its own public functions (``nsvar.solver.eval_I``,
``nsvar.functional.min_norm_point``, ...) to wrappers that record a span
per call, and wraps ``Traj.__init__`` the same way.  Nothing under
``src/`` changes, and ``uninstall()`` puts every original back.

A span is ``(name, start_ns, end_ns, parent, N, note)``: ``parent`` is
the index of the enclosing span (-1 at the root), ``N`` the grid size of
the stage the call ran in, and ``note`` what the layer metrics need from
that call (the min-norm route and certificate, the line-search outcome,
whether a nodal subdifferential sits on a kink, whether a penalty is
active).  Spans stay in memory;
``layer_metrics`` turns them into per-layer numbers and ``dump`` writes
them out.
"""

from __future__ import annotations

import gzip
import json
import math
import time
from collections import defaultdict

import nsvar
import nsvar.cli
import nsvar.convexgeom as convexgeom
import nsvar.functional
import nsvar.integrand
import nsvar.solver
import nsvar.trajectory as trajectory

MODULES = (nsvar, nsvar.cli, nsvar.solver, nsvar.functional,
           nsvar.integrand, convexgeom, trajectory)

# Public functions that get a span, by home module.  cli.run is not here:
# the benchmark calls it, so its span is opened at the call site.
TRACED = {
    "cli": ("load_problem",),
    "solver": ("solve", "steepest_direction", "line_search"),
    "functional": ("eval_I", "eval_J", "eval_psi", "eval_phi",
                   "penalty_values", "grad_psi", "grad_phi",
                   "subdiff_I_nodes", "min_norm_field", "initial_pair",
                   "recovered_state"),
    "integrand": ("subdiff_expr", "eval_expr_grid"),
    "convexgeom": ("min_norm_point",),
    "trajectory": ("cumulative_integral", "reverse_cumulative_integral",
                   "quadrature", "pl_l2_norm_sq", "resample"),
}

ROUTES = ("point", "segment", "wolfe", "ball", "away")

# Mirrors the vertex-product cap of convexgeom.min_norm_point, above
# which it leaves the closed-form routes for the away-step loop.
_VERTEX_PRODUCT_CAP = 4096


def min_norm_route(s) -> str:
    """Which min_norm_point route a set takes, judged from its structure.

    point: one point; segment: a two-vertex polytope; wolfe: a polytope
    with more vertices; ball: one ball, alone or (full-dimensional) plus a
    polytope; away: the away-step conditional-gradient fallback.
    """
    polys: list[int] = []
    masks: list[tuple] = []

    def walk(s) -> bool:
        if isinstance(s, convexgeom.Singleton):
            return True
        if isinstance(s, convexgeom.Polytope):
            if s.vertices.shape[0] > 1:
                polys.append(s.vertices.shape[0])
            return True
        if isinstance(s, convexgeom.Ball):
            mask = tuple(bool(m) for m in s.mask)
            if s.radius > 0.0 and mask not in masks:
                masks.append(mask)
            return True
        if isinstance(s, convexgeom.MinkowskiSum):
            return all(walk(m) for m in s.members)
        if isinstance(s, convexgeom.Scaled):
            return s.factor == 0.0 or walk(s.inner)
        return False

    if not walk(s):
        return "away"
    nverts = 1
    for k in polys:
        if nverts * k > _VERTEX_PRODUCT_CAP:
            return "away"
        nverts *= k
    if not masks:
        return "point" if nverts == 1 else "segment" if nverts == 2 else "wolfe"
    if len(masks) == 1 and (not polys or all(masks[0])):
        return "ball"
    return "away"


class Tracer:
    """Records spans for the calls made while it is installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []
        self._stack = [-1]
        self._restore: list = []
        self.N = 0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, note=None, before=None):
        """fn with a span per call.

        before(args) runs ahead of the call; note(args, result) gives the
        span's note.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        nid = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append(None)          # reserve: children point at idx
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, tracer.N, None)
            if note is not None:
                spans[idx] = spans[idx][:5] + (note(args, result),)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        notes = {
            "solver.line_search": lambda args, res: bool(res[1]),
            "functional.eval_psi": lambda args, res: bool(args[0].use_psi),
            "functional.eval_phi": lambda args, res: bool(args[0].use_phi),
            "integrand.subdiff_expr":
                lambda args, res: min_norm_route(res) != "point",
            "convexgeom.min_norm_point":
                lambda args, res: (min_norm_route(args[0]), res.iterations,
                                   res.gap, res.certified),
        }
        for home, names in TRACED.items():
            home_mod = getattr(nsvar, home)
            for fname in names:
                original = getattr(home_mod, fname)
                name = f"{home}.{fname}"
                stage = name == "solver.steepest_direction"
                wrapper = self.wrap(name, original, notes.get(name),
                                    self._enter_stage if stage else None)
                for mod in MODULES:
                    if getattr(mod, fname, None) is original:
                        self._restore.append((mod, fname, original))
                        setattr(mod, fname, wrapper)
        init = trajectory.Traj.__init__
        self._restore.append((trajectory.Traj, "__init__", init))
        trajectory.Traj.__init__ = self.wrap("trajectory.Traj", init)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    def _enter_stage(self, args) -> None:
        # Each iteration starts with steepest_direction(p, xz, ...), so the
        # spans after it belong to a stage on xz's grid.
        self.N = args[1].grid.npoints

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON: a name table and one row per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "N", "note"],
                       "names": self.names, "spans": self.spans}, fh)


def layer_metrics(tracer: Tracer, stages: list, max_iters: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced solve, and the same per grid size N.

    stages holds (N, rows, last_gamma) per (N, lambda) stage, read from
    convergence.csv.  Per-call and per-node times include the callee's
    traced children; names with ``self`` exclude them.
    """
    names = tracer.names
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for nid, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0

    by_name = defaultdict(list)         # name -> span indices
    for i, sp in enumerate(spans):
        by_name[names[sp[0]]].append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def total_us(name, N=None):
        return sum(dur(i) for i in by_name[name]
                   if N is None or spans[i][4] == N) / 1e3

    def count(name, N=None):
        return sum(1 for i in by_name[name] if N is None or spans[i][4] == N)

    def per(a, b):
        return a / b if b else 0.0

    run_idx = by_name["cli.run"][0]
    solve_idx = by_name["solver.solve"][0]
    solve_us = dur(solve_idx) / 1e3
    iters = count("solver.steepest_direction")
    nodes = count("integrand.subdiff_expr")

    ls = by_name["solver.line_search"]
    ls_self_us = sum(dur(i) - child_ns[i] for i in ls) / 1e3
    ls_set = set(ls)
    evals = sum(1 for i in by_name["functional.eval_I"] if spans[i][3] in ls_set)
    routes = defaultdict(list)
    for i in by_name["convexgeom.min_norm_point"]:
        route, mn_iters, gap, certified = spans[i][5]
        routes[route].append((dur(i) / 1e3, mn_iters, gap, certified))
    mn_all = [r for rs in routes.values() for r in rs]
    kinks = sum(1 for i in by_name["integrand.subdiff_expr"] if spans[i][5])

    run_children = [i for i, sp in enumerate(spans) if sp[3] == run_idx]
    load_us = sum(dur(i) for i in run_children
                  if names[spans[i][0]] == "cli.load_problem") / 1e3
    artifacts_us = dur(run_idx) / 1e3 - load_us - solve_us

    m = {
        "solver.line_search.self_ms_per_iter": per(ls_self_us, iters) / 1e3,
        "solver.line_search.evals_per_call": per(evals, len(ls)),
        "solver.line_search.fail_frac":
            per(sum(1 for i in ls if not spans[i][5]), len(ls)),
        "solver.budget_stages": float(sum(
            1 for N, rows, last_gamma in stages
            if rows == max_iters and last_gamma > 0.0)),
        "functional.eval_I.calls": float(count("functional.eval_I")),
        "integrand.kink_node_frac": per(kinks, nodes),
        "convexgeom.wolfe.iters_per_call":
            per(sum(r[1] for r in routes["wolfe"]), len(routes["wolfe"])),
        "convexgeom.max_gap": max((r[2] for r in mn_all), default=0.0),
        "convexgeom.uncertified": float(sum(1 for r in mn_all if not r[3])),
        "trajectory.Traj.constructions_per_iter":
            per(count("trajectory.Traj"), iters),
        "cli.load_problem.ms": load_us / 1e3,
        "cli.artifacts_ms": artifacts_us / 1e3,
    }
    for route in ROUTES:
        rs = routes[route]
        m[f"convexgeom.min_norm_point.calls.{route}"] = float(len(rs))
        m[f"convexgeom.min_norm_point.us.{route}"] = per(sum(r[0] for r in rs), len(rs))

    # Per-call and per-node costs, overall and per stage grid size N.
    def per_call(name, N=None):
        return per(total_us(name, N), count(name, N))

    def per_node(name, N=None):
        return per(total_us(name, N), count("integrand.subdiff_expr", N))

    def penalty(N=None):
        # only calls on a problem that has the penalty; the others return 0
        active = [i for name in ("functional.eval_psi", "functional.eval_phi")
                  for i in by_name[name]
                  if spans[i][5] and (N is None or spans[i][4] == N)]
        return per(sum(dur(i) for i in active) / 1e3, len(active))

    def ms_per_iter(name, N=None):
        return per(total_us(name, N), count("solver.steepest_direction", N)) / 1e3

    scaled = {
        "functional.eval_I.us_per_call": lambda N: per_call("functional.eval_I", N),
        "functional.penalty.us_per_call": penalty,
        "functional.subdiff_I_nodes.us_per_node":
            lambda N: per_node("functional.subdiff_I_nodes", N),
        "functional.min_norm_field.ms_per_iter":
            lambda N: ms_per_iter("functional.min_norm_field", N),
        "integrand.subdiff_expr.us_per_node":
            lambda N: per_node("integrand.subdiff_expr", N),
        "integrand.eval_expr_grid.us_per_call":
            lambda N: per_call("integrand.eval_expr_grid", N),
        "trajectory.Traj.us_per_call": lambda N: per_call("trajectory.Traj", N),
        "trajectory.cumulative_integral.us_per_call":
            lambda N: per_call("trajectory.cumulative_integral", N),
    }
    grid_sizes = sorted({spans[i][4] for i in by_name["solver.steepest_direction"]})
    by_N = {N: {name: f(N) for name, f in scaled.items()} for N in grid_sizes}
    for name, f in scaled.items():
        m[name] = f(None)
        m[f"{name}.Nmin"] = by_N[grid_sizes[0]][name]
        m[f"{name}.Nmax"] = by_N[grid_sizes[-1]][name]

    # Inclusive shares of the solve for the pipeline stages, and self time
    # per module as a share of the whole cli.run call.
    for name in ("solver.line_search", "functional.min_norm_field",
                 "functional.subdiff_I_nodes", "convexgeom.min_norm_point",
                 "functional.eval_I"):
        m[f"share.{name}"] = per(total_us(name), solve_us)
    self_by_module = defaultdict(int)
    for i, sp in enumerate(spans):
        self_by_module[names[sp[0]].split(".")[0]] += dur(i) - child_ns[i]
    for module in TRACED:
        m[f"self_share.{module}"] = per(self_by_module[module], dur(run_idx))
    for v in m.values():
        if not math.isfinite(v):
            raise ValueError(f"non-finite layer metric: {m}")
    return m, by_N

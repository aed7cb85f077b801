"""Time one layer, and whole solves, of two source trees side by side in
one interpreter.

Usage, from anywhere:

    python3 scripts/compare_layers.py OLD NEW

OLD and NEW are the roots of two nsvar source trees.  Each tree's
``src/nsvar`` is copied into a temporary directory under a package name
of its own, so both import into this one interpreter.  For each
benchmark workload (``perfbench/workloads.py`` next to this script):

* the field: the script solves pool member 1 with each tree and
  captures the arguments of every ``min_norm_field`` call the solve
  makes.  It then times each tree's ``measure`` plus ``min_norm_field``
  plus ``pl_l2_norm_sq`` on its own captured iterates, once over all of
  them per round, for ROUNDS rounds, in wall time.  The measurement is
  taken again per call, at the call's tolerance where the tree's
  ``measure`` takes one, since a tree whose field reads the
  measurement's grid pass would otherwise time only part of its work;
* whole solves: each round runs ``nsvar.cli.run`` on every member of
  the workload's seed-0 panel, with the workload's flags, for
  SOLVE_ROUNDS rounds, in CPU time.

Then, per node: at each point of NODE_POINTS, each tree's
``integrand.subdiff_expr`` on its own parse of the problem's integrand,
NODE_CALLS calls per round, for ROUNDS rounds, in wall time, at the
point as that tree takes it: an ``EvalPoint`` where the tree has one,
else the node's row (x, z) and t.  Both points take the per-node route,
which the field of pool member 1 never takes.

The two trees take turns at going first, round by round.  Each mode
prints, per workload and tree, the median and quartiles of a round in
ms, the median's ratio to OLD, and in how many rounds NEW took less
time than OLD.

The machine's speed can drift by tens of percent between processes and
within one; alternating rounds inside one process cancel most of that
drift, which separate runs of the two trees do not.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from compare_runs import _workloads

ROUNDS = 40
SOLVE_ROUNDS = 20
MEMBER = 1  # the pool member solved, with no node on the per-node route
NODE_CALLS = 200
# (label, built-in name or workload, x, z, t): example4 at its initial
# iterate, where norm(z1 - 1, x2) is at its zero, and kink_tracking's
# reference member where both abs and the max in the first one tie.
NODE_POINTS = (
    ("example4 at its norm's zero", "example4", (0, 0, 0), (1, 0, 0), 0.0),
    ("kink_tracking member 0 at t = 0.5, x1 = 0", "kink_tracking",
     (0, 0), (0, 0), 0.5),
)


def _import_tree(tree: Path, name: str, scratch: Path):
    """tree's nsvar package, imported as ``name``."""
    shutil.copytree(tree / "src" / "nsvar", scratch / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return {mod: importlib.import_module(f"{name}.{mod}")
            for mod in ("cli", "solver", "functional", "trajectory", "integrand")}


def _capture(pkg: dict, problem: Path, flags: tuple, out: Path) -> list[tuple]:
    """The arguments of every min_norm_field call in one solve."""
    solver = pkg["solver"]
    exact = solver.min_norm_field
    calls: list[tuple] = []

    def spy(*args):
        # the solve steps its pair in place: keep the iterate of this call
        calls.append((args[0], args[1].copy(), *args[2:]))
        return exact(*args)
    solver.min_norm_field = spy
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = pkg["cli"].run(["solve", str(problem), *flags, "--out", str(out)])
    finally:
        solver.min_norm_field = exact
    if code != 0:
        raise SystemExit(f"{problem}: solve exited {code}")
    return calls


def _round(pkg: dict, calls: list[tuple]) -> float:
    """Seconds for measure + min_norm_field + pl_l2_norm_sq over every
    captured call (p, xz, m, tol)."""
    functional = pkg["functional"]
    measure, field = functional.measure, functional.min_norm_field
    norm_sq = pkg["trajectory"].pl_l2_norm_sq
    at_tol = "tol" in inspect.signature(measure).parameters
    t0 = time.perf_counter()
    for p, xz, m, tol in calls:
        m = measure(p, xz, m.lam, tol) if at_tol else measure(p, xz, m.lam)
        # a tree whose field comes with its tie tests returns a pair
        v = field(p, xz, m, tol)
        norm_sq(v[0] if isinstance(v, tuple) else v)
    return time.perf_counter() - t0


def _solves(pkg: dict, runs: list[list[str]]) -> float:
    """CPU seconds for one cli.run solve of each argument list in runs."""
    run = pkg["cli"].run
    with contextlib.redirect_stdout(io.StringIO()):
        c0 = time.process_time()
        for args in runs:
            if run(args) != 0:
                raise SystemExit(f"{args[1]}: solve failed")
        return time.process_time() - c0


def _point(integrand, x, z, t) -> tuple:
    """subdiff_expr's arguments after the tree for the node (x, z, t):
    an EvalPoint where the tree has one, else the row and t."""
    if hasattr(integrand, "EvalPoint"):
        return (integrand.EvalPoint(x, z, t),)
    return np.concatenate([x, z]).astype(float), t


def _nodes(pkg: dict, e, point: tuple) -> float:
    """Seconds for NODE_CALLS calls of subdiff_expr at one point."""
    subdiff = pkg["integrand"].subdiff_expr
    t0 = time.perf_counter()
    for _ in range(NODE_CALLS):
        subdiff(e, *point)
    return time.perf_counter() - t0


def _alternate(pkgs: list, rounds: int, timed, *per_tree) -> list[list[float]]:
    """Each tree's time of timed(pkg, its argument) per round, the trees
    taking turns at going first."""
    times: list[list[float]] = [[], []]
    for r in range(rounds):
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            times[side].append(timed(pkgs[side], *(a[side] for a in per_tree)))
    return times


def _report(title: str, times: list[list[float]], notes: list[str]) -> None:
    """Each tree's median and quartiles in ms, after its note, the ratio
    to OLD, and the rounds in which NEW took less time."""
    medians = [statistics.median(t) for t in times]
    wins = sum(new < old for old, new in zip(*times))
    print(title)
    for side, (t, note) in enumerate(zip(times, notes)):
        q1, _, q3 = statistics.quantiles(t, n=4)
        line = (f"  {('old', 'new')[side]}: {note}median {1e3 * medians[side]:.3f} "
                f"[{1e3 * q1:.3f}, {1e3 * q3:.3f}], ratio to old "
                f"{medians[side] / medians[0]:.3f}")
        if side:
            line += f", lower in {wins} of {len(t)} rounds"
        print(line, flush=True)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in argv]
    for tree in trees:
        if not (tree / "src" / "nsvar").is_dir():
            print(f"{tree}: no src/nsvar", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        sys.path.insert(0, str(scratch))
        pkgs = [_import_tree(tree, f"_nsvar_{side}", scratch)
                for tree, side in zip(trees, ("old", "new"))]
        workloads = _workloads()
        for w in workloads.values():
            problem = scratch / f"{w.name}_{MEMBER}.txt"
            problem.write_text(w.problem(w.params(MEMBER)))
            calls = [_capture(pkg, problem, w.flags, scratch / f"{w.name}_{side}")
                     for pkg, side in zip(pkgs, ("old", "new"))]
            _report(f"{w.name} member {MEMBER}: measure + min_norm_field"
                    f" + pl_l2_norm_sq, {ROUNDS} rounds, ms per round",
                    _alternate(pkgs, ROUNDS, _round, calls),
                    [f"{len(c)} calls, " for c in calls])
            panel = w.panel(0)
            runs = [[], []]
            for seed, text in panel:
                path = scratch / f"{w.name}_panel_{seed}.txt"
                path.write_text(text)
                for side, name in enumerate(("old", "new")):
                    out = scratch / f"{w.name}_{seed}_{name}"
                    runs[side].append(["solve", str(path), *w.flags, "--out", str(out)])
            _report(f"{w.name} seed-0 panel, {len(panel)} members: cli.run solves, "
                    f"{SOLVE_ROUNDS} rounds, CPU ms per round",
                    _alternate(pkgs, SOLVE_ROUNDS, _solves, runs), ["", ""])
        for label, source, x, z, t in NODE_POINTS:
            if source in workloads:
                w = workloads[source]
                path = scratch / f"{source}_0.txt"
                path.write_text(w.problem(w.params(0)))
                source = str(path)
            exprs = [pkg["cli"].load_problem(source).integrand for pkg in pkgs]
            points = [_point(pkg["integrand"], x, z, t) for pkg in pkgs]
            _report(f"{label}: subdiff_expr, {NODE_CALLS} calls, "
                    f"{ROUNDS} rounds, ms per round",
                    _alternate(pkgs, ROUNDS, _nodes, exprs, points), ["", ""])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Time one layer of two source trees side by side in one interpreter.

Usage, from anywhere:

    python3 scripts/compare_layers.py OLD NEW

OLD and NEW are the roots of two nsvar source trees.  Each tree's
``src/nsvar`` is copied into a temporary directory under a package name
of its own, so both import into this one interpreter.  For each
benchmark workload (``perfbench/workloads.py`` next to this script) the
script solves pool member 1 with each tree and captures the arguments of
every ``min_norm_field`` call the solve makes.  It then times each
tree's ``min_norm_field`` plus ``pl_l2_norm_sq`` on its own captured
iterates, once over all of them per round, for ROUNDS rounds, with the
two trees taking turns at going first.  It prints, per workload and
tree, the median and quartiles of a round in ms and the median's ratio
to OLD.

The machine's speed can drift by tens of percent between processes and
within one; alternating rounds inside one process cancel most of that
drift, which separate runs of the two trees do not.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from compare_runs import _workloads

ROUNDS = 40
MEMBER = 1  # the pool member solved, with no node on the per-node route


def _import_tree(tree: Path, name: str, scratch: Path):
    """tree's nsvar package, imported as ``name``."""
    shutil.copytree(tree / "src" / "nsvar", scratch / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return {mod: importlib.import_module(f"{name}.{mod}")
            for mod in ("cli", "solver", "functional", "trajectory")}


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
    """Seconds for min_norm_field + pl_l2_norm_sq over every captured call."""
    field, norm_sq = pkg["functional"].min_norm_field, pkg["trajectory"].pl_l2_norm_sq
    t0 = time.perf_counter()
    for args in calls:
        # a tree whose field comes with its tie tests returns a pair
        v = field(*args)
        norm_sq(v[0] if isinstance(v, tuple) else v)
    return time.perf_counter() - t0


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
        for w in _workloads().values():
            problem = scratch / f"{w.name}_{MEMBER}.txt"
            problem.write_text(w.problem(w.params(MEMBER)))
            calls = [_capture(pkg, problem, w.flags, scratch / f"{w.name}_{side}")
                     for pkg, side in zip(pkgs, ("old", "new"))]
            times: list[list[float]] = [[], []]
            for r in range(ROUNDS):
                order = (0, 1) if r % 2 == 0 else (1, 0)
                for side in order:
                    times[side].append(_round(pkgs[side], calls[side]))
            medians = [statistics.median(t) for t in times]
            print(f"{w.name} member {MEMBER}: min_norm_field + pl_l2_norm_sq, "
                  f"{ROUNDS} rounds, ms per round")
            for side, (t, n) in enumerate(zip(times, calls)):
                q1, _, q3 = statistics.quantiles(t, n=4)
                print(f"  {('old', 'new')[side]}: {len(n)} calls, median "
                      f"{1e3 * medians[side]:.3f} [{1e3 * q1:.3f}, {1e3 * q3:.3f}], "
                      f"ratio to old {medians[side] / medians[0]:.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

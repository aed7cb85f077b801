"""Check that two source trees solve the same problems to the same bits.

Usage, from anywhere:

    python3 scripts/compare_runs.py OLD NEW

OLD and NEW are the roots of two nsvar source trees.  With each tree's
``src`` on the path, a fresh interpreter runs ``nsvar solve`` on the
built-ins example1..example4, on every pool member of each benchmark
workload, with the workload's flags, and on the problems in ``EXTRA``,
with their own flags.
The workloads come from ``perfbench/workloads.py`` next to this script.
For every run the script
prints ``identical`` when both trees leave byte-identical trajectory.csv
and convergence.csv and the same exit code, else ``differs`` followed by
one line per tree: its exit code, iterations, final J and psi + phi, and
the mean probes per line search over the rows that searched (the
``ls_evals`` column of convergence.csv).  A last line names what
differs: the exit code, each artifact, and for convergence.csv its
columns.  It exits 1 when any run differs.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILTINS = ("example1", "example2", "example3", "example4")
ARTIFACTS = ("trajectory.csv", "convergence.csv")
# Problems that reach a route no built-in or pool member does, as
# (problem file text, solve flags).  Node 0 of norm_plus_segment holds
# norm at its zero plus the segment of abs, which has no closed form and
# no vertex list, so min_norm_point solves it by Wolfe's method over the
# support function.  abs_with_penalties is a sweep line (eval_I_along)
# with the penalties' quadratic in gamma.  stall asks for a stationarity
# threshold it never reaches, so its last iteration's sweep probes fail
# to decrease I, and the line search returns no decrease.  oblique_ties
# meets both kinks at once where x1 = 0 = z1 + x1: two oblique segments,
# whose closed form the certificate mostly rejects, so those nodes fall
# back to Wolfe's method on the zonotope.  var_free_quotient divides by a
# subtree without x or z whose square underflows, at nodes that norm's
# zero sends to the per-node route: its gradient must stay zero there.
# ball_tie starts at norm's zero, where max ties the ball with the point
# 0: the per-node set is a convexgeom.Hull.  shared_norm's two norm
# arguments touch one coordinate, whose rows merge into one ball there.
# cos_term to three_way_max reach rules of the line and grid passes that
# no run above reaches: the chain rules of cos, exp and sqrt and the sqrt of a
# subtree without x or z, both passes' negation, the line pass's
# quotient of subtrees that change along the line, and both passes'
# max of three branches.  The last four reach the rest of the calculus
# (scripts/reached.py lists what no run reaches).  In per_node_smooth,
# norm(x1) at its zero (always at t = 0) sends nodes to the per-node
# route, which there runs a product, a quotient, a negation, a constant
# factor on the right, a sqrt and a product without x or z; on the grid
# it multiplies two subtrees that both read x or z.  line_rules scales
# the line pass's kinks, negates a subtree and divides one that does not
# fold by a constant.  per_node_norm holds norms away from their zero at
# nodes the per-node route builds, and zero Jacobian rows at their
# zeros.  tie_in_tie takes a max over a branch whose abs ties.  At node
# 0 of scaled_tie, norm(x1) is at its zero and abs ties, so the per-node
# route scales the tie's polytope by the constant factor 2.  A solve
# walks the line pass only along a direction, where subtrees of t alone
# are folded once per grid: folded_t's lines take an abs and a power of
# such subtrees and divide by one.
EXTRA = {
    "norm_plus_segment": (
        "n = 2\nT = 1\nx0 = 0, 0\nintegrand = norm(x1, x2) + abs(x1 - t)"
        " + pow(z1 - 1, 2) + pow(z2, 2)\n", []),
    "abs_with_penalties": (
        "n = 1\nT = 1\nx0 = 0\nxT = 0.5\nintegrand = abs(z1) + abs(x1 - t)\n",
        []),
    "stall": (
        "n = 1\nT = 1\nx0 = 0\nintegrand = (1 + t) * pow(x1 - t, 2)\n"
        "initial_x = 0\n", ["--grid", "5", "--eps", "1e-300"]),
    "oblique_ties": (
        "n = 1\nT = 1\nx0 = 0\nintegrand = abs(x1 + z1) + abs(x1 - t)\n", []),
    "var_free_quotient": (
        "n = 1\nT = 1\nx0 = 0\nintegrand = norm(x1) + 1 / (1e-200 * (t + 1))\n",
        []),
    "ball_tie": (
        "n = 2\nT = 1\nx0 = 0, 0\nintegrand = max(norm(x1, x2), 0)"
        " + pow(z1 - 1, 2)\n", []),
    "shared_norm": (
        "n = 1\nT = 1\nx0 = 0\nintegrand = norm(x1, x1) + pow(z1 - 1, 2)\n",
        []),
    "cos_term": (
        "n = 1\nT = 1\nx0 = 0\nintegrand = pow(z1 - 1, 2) + 0.1 * cos(3 * x1)\n",
        []),
    "exp_term": (
        "n = 1\nT = 1\nx0 = 0\nintegrand = pow(z1 - 1, 2) + 0.1 * exp(x1)\n", []),
    "sqrt_term": (
        "n = 1\nT = 1\nx0 = 0\nintegrand = sqrt(1 + pow(x1, 2)) + pow(z1 - 1, 2)\n",
        []),
    "sqrt_of_t": ("n = 1\nT = 1\nx0 = 0\nintegrand = abs(x1 - sqrt(t))\n", []),
    "negated": (
        "n = 1\nT = 1\nx0 = 0\nintegrand = abs(-x1 + t) + pow(-z1, 2)\n", []),
    "moving_quotient": (
        "n = 1\nT = 1\nx0 = 0\nintegrand = pow(z1 - 1, 2)"
        " + pow(x1, 2) / (1 + pow(x1, 2))\n", []),
    "three_way_max": (
        "n = 1\nT = 1\nx0 = 0\nintegrand = max(x1 - t, t - x1, 0.1)"
        " + pow(z1, 2)\n", []),
    "per_node_smooth": (
        "n = 1\nT = 1\nx0 = 0\nintegrand = norm(x1) + 0.5 * pow(x1 * z1 - t, 2)"
        " + pow(-z1 + 1, 2) * 0.5 + sqrt(1 + pow(z1, 2))"
        " + pow(x1, 2) / (1 + pow(z1, 2)) + pow(z1, 2) * (t * t)\n", []),
    "line_rules": (
        "n = 1\nT = 1\nx0 = 0\nintegrand = 2 * abs(x1 - t)"
        " + 0.1 * (-sin(3 * x1)) + sin(x1) / 2 + pow(z1, 2)\n", []),
    "per_node_norm": (
        "n = 1\nT = 1\nx0 = 0\nintegrand = norm(x1, t - 0.5)"
        " + norm(z1 - 1, x1 - t) + norm(t - 0.5)\n", []),
    "tie_in_tie": (
        "n = 1\nT = 1\nx0 = 0\nintegrand = max(abs(x1 - t), 0)"
        " + max(abs(x1 - 0.5 * t), -1) + pow(z1 - 0.7, 2)\n", []),
    "scaled_tie": (
        "n = 1\nT = 1\nx0 = 0\nintegrand = norm(x1) + 2 * abs(x1 - t)"
        " + pow(z1 - 1, 2)\n", []),
    "folded_t": (
        "n = 1\nT = 1\nx0 = 0\nintegrand = abs(x1 - abs(t - 0.5))"
        " + pow(z1 - 1, 2) + x1 * pow(t, 2) / (1 + t)\n", []),
}


def _workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _runs(scratch: Path) -> list[tuple[str, list[str]]]:
    """(label, solve arguments) for every run, problem files written to scratch."""
    runs = [(name, [name]) for name in BUILTINS]
    for w in _workloads().values():
        for seed in range(w.pool_size):
            path = scratch / f"{w.name}_{seed}.txt"
            path.write_text(w.problem(w.params(seed)))
            runs.append((f"{w.name} member {seed}", [str(path), *w.flags]))
    for name, (text, flags) in EXTRA.items():
        path = scratch / f"{name}.txt"
        path.write_text(text)
        runs.append((name, [str(path), *flags]))
    return runs


def _solve(tree: Path, args: list[str], out: Path) -> tuple:
    """The exit code and artifact bytes of one solve with tree's src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    code = subprocess.run(
        [sys.executable, "-m", "nsvar", "solve", *args, "--out", str(out)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    files = tuple((out / name).read_bytes() if (out / name).exists() else None
                  for name in ARTIFACTS)
    return code, files


def _describe(code: int, files: tuple) -> str:
    """One tree's side of a run: exit code and convergence.csv's summary."""
    if files[1] is None:
        return f"exit {code}, no convergence.csv"
    header, *lines = files[1].decode().splitlines()
    rows = [dict(zip(header.split(","), map(float, line.split(","))))
            for line in lines]
    if not rows:
        return f"exit {code}, 0 iterations"
    last = rows[-1]
    searched = [r["ls_evals"] for r in rows if r["ls_evals"] > 0]
    probes = sum(searched) / len(searched) if searched else 0.0
    return (f"exit {code}, {len(rows)} iterations, J = {last['J']:.9g}, "
            f"psi + phi = {last['psi'] + last['phi']:.3g}, "
            f"{probes:.1f} probes per search")


def _columns_that_differ(old: bytes, new: bytes) -> list[str]:
    """The convergence.csv columns whose values differ, or ["header"]."""
    (head, *rows), (new_head, *new_rows) = (f.decode().splitlines()
                                            for f in (old, new))
    if head != new_head:
        return ["header"]
    cells, new_cells = ([line.split(",") for line in r] for r in (rows, new_rows))
    return [name for j, name in enumerate(head.split(","))
            if [r[j] for r in cells] != [r[j] for r in new_cells]]


def _differences(old: tuple, new: tuple) -> str:
    """What differs between two trees' (exit code, artifacts) of one run."""
    parts = ["exit code"] if old[0] != new[0] else []
    for name, a, b in zip(ARTIFACTS, old[1], new[1]):
        if a == b:
            continue
        if name == "convergence.csv" and a is not None and b is not None:
            name += f" (columns {', '.join(_columns_that_differ(a, b))})"
        parts.append(name)
    return "differs in " + ", ".join(parts)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = (Path(a).resolve() for a in argv)
    for tree in (old, new):
        if not (tree / "src" / "nsvar").is_dir():
            print(f"{tree}: no src/nsvar", file=sys.stderr)
            return 2
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        for i, (label, args) in enumerate(_runs(scratch)):
            sides = [_solve(tree, args, scratch / f"{i}_{side}")
                     for side, tree in (("old", old), ("new", new))]
            same = sides[0] == sides[1]
            differ += not same
            print(f"{label}: {'identical' if same else 'differs'}", flush=True)
            if not same:
                for side, result in zip(("old", "new"), sides):
                    print(f"  {side}: {_describe(*result)}", flush=True)
                print(f"  {_differences(*sides)}", flush=True)
    print(f"{differ} of {i + 1} runs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Command line front end: problem files, built-in problems, run artifacts.

A problem file is line oriented, ``key = value``, with ``#`` comments:

    n = 2
    T = 1.0
    x0 = 0, 0
    xT = 0, 0
    integrand = max(pow(z1, 2) - pow(x1, 2) - 2 * t * x1, x2)
    initial_x = 0, 0
    lambda0 = 20

Numeric vectors are comma separated; initial_x / initial_z hold one
expression per component (commas inside function calls are fine, the
splitter tracks parentheses) and may use only t.  ``nsvar solve`` writes
trajectory.csv, convergence.csv and summary.json into the output
directory and exits 0 when the run converged, 2 when it exhausted its
budget, 1 on bad input, a failed minimum-norm certificate or an overflow.
A solve that fails once the output directory exists leaves a summary.json
with status "failed" and the reason.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .functional import MinNormUncertified, ProblemSpec, recovered_state
from .integrand import ExprError, format_expr, parse_expr
from .solver import IterationRecord, SolverConfig, solve

__all__ = ["RunSummary", "load_problem", "write_problem", "builtin_names",
           "run", "main"]


class ProblemFileError(ValueError):
    pass


# ---------------------------------------------------------------------------
# built-in problems


# name -> (problem file text, tuned solver settings used when no flag
# overrides them).  load_problem reads the text like any problem file.
_BUILTINS = {
    "example1": ("""
        n = 1
        T = 1
        x0 = 0
        integrand = abs(x1)
        initial_x = 2 * t - 1
        """, {"grid_sizes": (3,)}),
    "example2": ("""
        n = 1
        T = 1
        x0 = 0
        integrand = abs(x1 - max(t - 0.5, 0))
        initial_x = 2 * t - 1
        """, {"grid_sizes": (11, 21, 41), "max_iters": 300}),
    "example3": ("""
        n = 2
        T = 1
        x0 = 0, 0
        xT = 0, 0
        integrand = max(pow(z1, 2) - pow(x1, 2) - 2 * t * x1, x2)
        initial_x = 0, 0
        initial_z = 0, 0
        lambda0 = 20
        """, {"grid_sizes": (11, 21), "lambda_factor": 5.0, "lambda_max": 300.0,
              "eps_bar": 9e-3, "constraint_tol": 5e-5, "max_iters": 400}),
    "example4": ("""
        n = 3
        T = 5
        x0 = 0, 0, 0
        integrand = norm(z1 - 1, x2) + pow(x1 - x3 - sin(t), 2)
        initial_x = 0, 0, 0
        initial_z = 1, 0, 0
        lambda0 = 2
        """, {"grid_sizes": (51, 101, 201), "lambda_max": 2.0,
              "eps_bar": 1.2e-3, "constraint_tol": 1e-3, "max_iters": 400}),
}


def builtin_names() -> tuple:
    return tuple(_BUILTINS)


def builtin_config_overrides(name: str) -> dict:
    """Per-problem solver settings used when no flag overrides them."""
    return dict(_BUILTINS[name][1])


# ---------------------------------------------------------------------------
# problem files

def _split_top_level(text: str) -> list[str]:
    """Split on commas that are not inside parentheses."""
    parts = []
    depth = 0
    cur: list[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [s.strip() for s in parts]


def _parse_bool(raw: str, n, lineno: int) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ProblemFileError(f"line {lineno}: expected true or false, got {raw!r}")


def _floats(raw: str, n, lineno: int) -> list[float]:
    return [float(s) for s in _split_top_level(raw)]


def _time_exprs(raw: str, n: int, lineno: int) -> tuple:
    return tuple(parse_expr(s, n, allow_vars=False) for s in _split_top_level(raw))


# key -> (ProblemSpec field, converter(raw, n, lineno), required), in the
# order the values are converted: the expressions need n first.
_FIELDS = {
    "n": ("n", lambda raw, n, lineno: int(raw), True),
    "T": ("horizon", lambda raw, n, lineno: float(raw), True),
    "x0": ("x0", _floats, True),
    "xT": ("xT", _floats, False),
    "use_psi": ("use_psi", _parse_bool, False),
    "use_phi": ("use_phi", _parse_bool, False),
    "integrand": ("integrand", lambda raw, n, lineno: parse_expr(raw, n), True),
    "initial_x": ("initial_x", _time_exprs, False),
    "initial_z": ("initial_z", _time_exprs, False),
    "lambda0": ("lambda0", lambda raw, n, lineno: float(raw), False),
}


def load_problem(source: str) -> ProblemSpec:
    """Load a problem file, or a built-in by name: both are problem text."""
    if source in _BUILTINS:
        text, name = _BUILTINS[source][0], source
    else:
        path = Path(source)
        if not path.exists():
            raise ProblemFileError(
                f"no such problem file or built-in: {source!r} "
                f"(built-ins: {', '.join(_BUILTINS)})"
            )
        text, name = path.read_text(), path.stem
    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ProblemFileError(f"line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ProblemFileError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ProblemFileError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = (value.strip(), lineno)

    kw: dict = {"name": name}
    try:
        for key, (field, convert, required) in _FIELDS.items():
            if key not in raw:
                if required:
                    raise ProblemFileError(f"missing key {key!r}")
                continue
            value, lineno = raw[key]
            try:
                kw[field] = convert(value, kw.get("n"), lineno)
            except ExprError as exc:
                raise ProblemFileError(f"line {lineno}: bad {key}: {exc}") from exc
        return ProblemSpec(**kw)
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ProblemFileError):
            raise
        raise ProblemFileError(f"invalid problem file {source!r}: {exc}") from exc


def write_problem(spec: ProblemSpec, path: str | Path) -> None:
    """Serialize a problem so that load_problem reads back an equal spec."""
    lines = [
        f"n = {spec.n}",
        f"T = {spec.horizon!r}",
        "x0 = " + ", ".join(repr(float(v)) for v in spec.x0),
    ]
    if spec.xT is not None:
        lines.append("xT = " + ", ".join(repr(float(v)) for v in spec.xT))
    lines.append(f"use_psi = {'true' if spec.use_psi else 'false'}")
    lines.append(f"use_phi = {'true' if spec.use_phi else 'false'}")
    lines.append(f"integrand = {format_expr(spec.integrand)}")
    if spec.initial_x is not None:
        lines.append("initial_x = " + ", ".join(format_expr(e) for e in spec.initial_x))
    if spec.initial_z is not None:
        lines.append("initial_z = " + ", ".join(format_expr(e) for e in spec.initial_z))
    if spec.lambda0 is not None:
        lines.append(f"lambda0 = {spec.lambda0!r}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# running


@dataclass
class RunSummary:
    problem: str
    status: str
    iterations: int
    J: float
    I: float
    psi: float
    phi: float
    vnorm: float
    lam: float
    npoints: int
    endpoint_error: float | None
    wall_time: float


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_trajectory(path: Path, state, z) -> None:
    n = state.ncomp
    header = "t," + ",".join(f"x{j + 1}" for j in range(n)) \
        + "," + ",".join(f"z{j + 1}" for j in range(n))
    rows = [header]
    t = state.grid.nodes
    for i in range(state.grid.npoints):
        cells = [_fmt(t[i])]
        cells += [_fmt(v) for v in state.values[i]]
        cells += [_fmt(v) for v in z.values[i]]
        rows.append(",".join(cells))
    path.write_text("\n".join(rows) + "\n")


def _write_convergence(path: Path, records: list[IterationRecord]) -> None:
    rows = ["k,I,J,psi,phi,vnorm,lambda,gamma,N"]
    for r in records:
        rows.append(",".join([
            str(r.k), _fmt(r.I), _fmt(r.J), _fmt(r.psi), _fmt(r.phi),
            _fmt(r.vnorm), _fmt(r.lam), _fmt(r.gamma), str(r.npoints),
        ]))
    path.write_text("\n".join(rows) + "\n")


def _print_table(records: list[IterationRecord]) -> None:
    print(f"{'k':>5} {'I':>14} {'J':>14} {'psi':>11} {'phi':>11} "
          f"{'vnorm':>11} {'lambda':>9} {'gamma':>11} {'N':>5}")
    for r in records:
        print(f"{r.k:5d} {r.I:14.6e} {r.J:14.6e} {r.psi:11.3e} {r.phi:11.3e} "
              f"{r.vnorm:11.4e} {r.lam:9.4g} {r.gamma:11.4e} {r.npoints:5d}")


# --flag destination -> SolverConfig field, for the flags that set one
# directly; --grid is parsed on its own.
_FLAG_FIELDS = {
    "eps": "eps_bar",
    "lambda0": "lambda0",
    "lambda_factor": "lambda_factor",
    "lambda_max": "lambda_max",
    "constraint_tol": "constraint_tol",
    "max_iters": "max_iters",
}


def _build_config(spec: ProblemSpec, args) -> SolverConfig:
    kw: dict = {}
    if args.problem in _BUILTINS:
        kw.update(builtin_config_overrides(args.problem))
    if spec.lambda0 is not None:
        kw["lambda0"] = spec.lambda0
    if args.grid is not None:
        try:
            kw["grid_sizes"] = tuple(int(s) for s in args.grid.split(","))
        except ValueError as exc:
            raise ProblemFileError(f"bad --grid value {args.grid!r}") from exc
    for flag, field in _FLAG_FIELDS.items():
        if getattr(args, flag) is not None:
            kw[field] = getattr(args, flag)
    return SolverConfig(**kw)


def run(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="nsvar",
        description="Subdifferential descent for nonsmooth variational problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("solve", help="solve a problem file or built-in")
    sp.add_argument("problem", help="problem file path or built-in name")
    sp.add_argument("--grid", help="comma separated grid ladder, e.g. 11,21,41")
    sp.add_argument("--eps", type=float,
                    help="stationarity threshold on the residual norm ||v||")
    sp.add_argument("--lambda0", type=float, help="initial penalty weight")
    sp.add_argument("--lambda-factor", type=float, dest="lambda_factor")
    sp.add_argument("--lambda-max", type=float, dest="lambda_max")
    sp.add_argument("--constraint-tol", type=float, dest="constraint_tol")
    sp.add_argument("--max-iters", type=int, dest="max_iters")
    sp.add_argument("--out", help="output directory (default runs/<problem>)")
    sp.add_argument("--emit-plot-data", action="store_true",
                    help="also write per-iteration direction fields")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        spec = load_problem(args.problem)
        cfg = _build_config(spec, args)
        outdir = Path(args.out) if args.out else Path("runs") / spec.name
        outdir.mkdir(parents=True, exist_ok=True)

        t0 = time.perf_counter()
        direction_log: list | None = [] if args.emit_plot_data else None
        try:
            xz, records, status = solve(spec, cfg, direction_log=direction_log)
        except (ExprError, MinNormUncertified, FloatingPointError) as exc:
            failed = {"problem": spec.name, "status": "failed", "reason": str(exc)}
            (outdir / "summary.json").write_text(json.dumps(failed, indent=2) + "\n")
            raise
        wall = time.perf_counter() - t0

        _print_table(records)
        last = records[-1]
        state = recovered_state(spec, xz)
        endpoint_error = None
        if spec.xT is not None:
            endpoint_error = float(np.linalg.norm(state.values[-1] - spec.xT))
        summary = RunSummary(
            problem=spec.name, status=status, iterations=len(records),
            J=last.J, I=last.I, psi=last.psi, phi=last.phi, vnorm=last.vnorm,
            lam=last.lam, npoints=last.npoints,
            endpoint_error=endpoint_error, wall_time=wall,
        )
        _write_trajectory(outdir / "trajectory.csv", state, xz.z)
        _write_convergence(outdir / "convergence.csv", records)
        (outdir / "summary.json").write_text(
            json.dumps(asdict(summary), indent=2) + "\n")
        if direction_log is not None:
            plotdir = outdir / "plotdata"
            plotdir.mkdir(exist_ok=True)
            n = spec.n
            header = "t," + ",".join(f"gx{j + 1}" for j in range(n)) \
                + "," + ",".join(f"gz{j + 1}" for j in range(n))
            for k, nodes, gmat in direction_log:
                rows = [header]
                for i in range(nodes.shape[0]):
                    rows.append(",".join([_fmt(nodes[i])]
                                         + [_fmt(v) for v in gmat[i]]))
                (plotdir / f"direction_{k:04d}.csv").write_text(
                    "\n".join(rows) + "\n")
        print(f"{spec.name}: {status} after {len(records)} iterations, "
              f"J = {last.J:.6g}, output in {outdir}")
        return 0 if status == "converged" else 2
    except (ExprError, ProblemFileError, ValueError, OSError,
            MinNormUncertified, FloatingPointError) as exc:
        print(f"nsvar: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))

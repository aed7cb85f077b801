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
summary.json lists the run's (grid, lambda) stages and why each ended:
"stationary", "budget" (max_iters used up) or "ls_stall" (no decrease
along the direction at the exact tie tolerance), with the tie tolerance
each reached, the directions it took, retakes included, the tolerances
its retakes passed over because their field was the one already taken,
and its line searches that the breakpoint sweep's exact minimizer
decided.
A solve that fails once the output directory exists leaves a summary.json
with status "failed" and the reason; once it has a first iterate, it
also leaves that run's last iterate in trajectory.csv and its records so
far in convergence.csv (a header only when there are none).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, replace
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


def _floats(raw: str, n: int) -> list[float]:
    return [float(s) for s in _split_top_level(raw)]


def _time_exprs(raw: str, n: int) -> tuple:
    return tuple(parse_expr(s, n, allow_vars=False) for s in _split_top_level(raw))


# key -> (ProblemSpec field, converter(raw, n), required), in the
# order the values are converted: the expressions need n first.
_FIELDS = {
    "n": ("n", lambda raw, n: int(raw), True),
    "T": ("horizon", lambda raw, n: float(raw), True),
    "x0": ("x0", _floats, True),
    "xT": ("xT", _floats, False),
    "integrand": ("integrand", lambda raw, n: parse_expr(raw, n), True),
    "initial_x": ("initial_x", _time_exprs, False),
    "initial_z": ("initial_z", _time_exprs, False),
    "lambda0": ("lambda0", lambda raw, n: float(raw), False),
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
        # no value in the grammar holds a '#', so it starts a comment
        stripped = line.partition("#")[0].strip()
        if not stripped:
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
                kw[field] = convert(value, kw.get("n"))
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
    lines.append(f"integrand = {format_expr(spec.integrand)}")
    if spec.initial_x is not None:
        lines.append("initial_x = " + ", ".join(format_expr(e) for e in spec.initial_x))
    if spec.initial_z is not None:
        lines.append("initial_z = " + ", ".join(format_expr(e) for e in spec.initial_z))
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
    # per (grid, lambda) stage: N, lambda, iterations, stop, eps, directions,
    # skipped, sweeps
    stages: list


def _write_csv(path: Path, header: list[str], rows) -> None:
    """A header line, then one line per row of numbers, each as %.17g.

    One format string per row; % and format() share Python's
    double-to-string conversion, so each value reads as f"{v:.17g}".
    """
    line = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)] + [line % tuple(row)
                                  for row in np.asarray(rows, float).tolist()]
    path.write_text("\n".join(lines) + "\n")


def _columns(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{j + 1}" for j in range(n)]


def _write_run(outdir: Path, state, xz, records: list[IterationRecord]) -> None:
    """trajectory.csv (the reported state and the iterate's z) and
    convergence.csv."""
    n = state.ncomp
    _write_csv(outdir / "trajectory.csv", ["t", *_columns("x", n), *_columns("z", n)],
               np.column_stack([state.grid.nodes, state.values, xz.values[:, n:]]))
    _write_csv(outdir / "convergence.csv",
               ["k", "I", "J", "psi", "phi", "vnorm", "lambda", "gamma", "N",
                "eps", "ls_evals"],
               [(r.k, r.I, r.J, r.psi, r.phi, r.vnorm, r.lam, r.gamma,
                 r.npoints, r.eps, r.ls_evals) for r in records])


def _print_table(records: list[IterationRecord]) -> None:
    print(f"{'k':>5} {'I':>14} {'J':>14} {'psi':>11} {'phi':>11} "
          f"{'vnorm':>11} {'lambda':>9} {'gamma':>11} {'N':>5} {'eps':>7}")
    for r in records:
        print(f"{r.k:5d} {r.I:14.6e} {r.J:14.6e} {r.psi:11.3e} {r.phi:11.3e} "
              f"{r.vnorm:11.4e} {r.lam:9.4g} {r.gamma:11.4e} {r.npoints:5d} "
              f"{r.eps:7.0e}")


# --flag destination -> SolverConfig field, for the flags that set one
# directly; --grid is parsed on its own.
_FLAG_FIELDS = {
    "eps": "eps_bar",
    "lambda_factor": "lambda_factor",
    "lambda_max": "lambda_max",
    "constraint_tol": "constraint_tol",
    "max_iters": "max_iters",
}


def _build_config(args) -> SolverConfig:
    kw: dict = {}
    if args.problem in _BUILTINS:
        kw.update(builtin_config_overrides(args.problem))
    if args.grid is not None:
        try:
            kw["grid_sizes"] = tuple(int(s) for s in args.grid.split(","))
        except ValueError as exc:
            raise ProblemFileError(f"bad --grid value {args.grid!r}") from exc
    for flag, field in _FLAG_FIELDS.items():
        if getattr(args, flag) is not None:
            kw[field] = getattr(args, flag)
    return SolverConfig(**kw)


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line through run's own error path."""

    def error(self, message: str):
        raise ProblemFileError(message)


def run(argv: list[str]) -> int:
    parser = _ArgumentParser(
        prog="nsvar",
        description="Subdifferential descent for nonsmooth variational problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("solve", help="solve a problem file or built-in")
    sp.add_argument("problem", help="problem file path or built-in name")
    sp.add_argument("--grid", help="comma separated grid ladder, e.g. 11,21,41")
    sp.add_argument("--eps", type=float,
                    help="stationarity threshold on the squared residual norm ||v||^2")
    sp.add_argument("--lambda0", type=float,
                    help="initial penalty weight, in place of the problem's")
    sp.add_argument("--lambda-factor", type=float, dest="lambda_factor")
    sp.add_argument("--lambda-max", type=float, dest="lambda_max")
    sp.add_argument("--constraint-tol", type=float, dest="constraint_tol")
    sp.add_argument("--max-iters", type=int, dest="max_iters")
    sp.add_argument("--out", help="output directory (default runs/<problem>)")
    sp.add_argument("--emit-plot-data", action="store_true",
                    help="also write per-iteration direction fields")
    try:
        args = parser.parse_args(argv)
        spec = load_problem(args.problem)
        if args.lambda0 is not None:
            spec = replace(spec, lambda0=args.lambda0)
        cfg = _build_config(args)
        outdir = Path(args.out) if args.out else Path("runs") / spec.name
        outdir.mkdir(parents=True, exist_ok=True)

        t0 = time.perf_counter()
        direction_log: list | None = [] if args.emit_plot_data else None
        stage_log: list = []
        try:
            xz, records, status = solve(spec, cfg, direction_log=direction_log,
                                        stage_log=stage_log)
        except (ExprError, MinNormUncertified, FloatingPointError) as exc:
            failed = {"problem": spec.name, "status": "failed", "reason": str(exc)}
            (outdir / "summary.json").write_text(json.dumps(failed, indent=2) + "\n")
            if hasattr(exc, "last_run"):
                xz, records = exc.last_run
                # The last iterate may hold the inf that stopped the solve.
                with np.errstate(all="ignore"):
                    state = recovered_state(spec, xz)
                _write_run(outdir, state, xz, records)
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
            stages=[{"N": st.npoints, "lambda": st.lam,
                     "iterations": st.iterations, "stop": st.stop,
                     "eps": st.eps, "directions": st.directions,
                     "skipped": st.skipped, "sweeps": st.sweeps}
                    for st in stage_log],
        )
        _write_run(outdir, state, xz, records)
        (outdir / "summary.json").write_text(
            json.dumps(asdict(summary), indent=2) + "\n")
        if direction_log is not None:
            plotdir = outdir / "plotdata"
            plotdir.mkdir(exist_ok=True)
            header = ["t", *_columns("gx", spec.n), *_columns("gz", spec.n)]
            for k, nodes, gmat in direction_log:
                _write_csv(plotdir / f"direction_{k:04d}.csv", header,
                           np.column_stack([nodes, gmat]))
        print(f"{spec.name}: {status} after {len(records)} iterations, "
              f"J = {last.J:.6g}, output in {outdir}")
        return 0 if status == "converged" else 2
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    except (ExprError, ProblemFileError, ValueError, OSError,
            MinNormUncertified, FloatingPointError) as exc:
        print(f"nsvar: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))

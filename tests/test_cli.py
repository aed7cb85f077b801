"""Problem files, the solve command, and its on-disk outputs."""

import contextlib
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nsvar.cli
import nsvar.solver
from nsvar.cli import (
    ProblemFileError,
    builtin_config_overrides,
    builtin_names,
    load_problem,
    run,
    write_problem,
)
from nsvar.functional import MinNormUncertified, ProblemSpec, min_norm_field
from nsvar.integrand import compile_subdiff
from nsvar.solver import SolverConfig
from nsvar.trajectory import Traj


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


# ---------------------------------------------------------------------------
# built-ins and problem files


def test_builtin_names():
    assert builtin_names() == ("example1", "example2", "example3", "example4")


def test_builtin_example1_fields():
    p = load_problem("example1")
    assert p.n == 1 and p.horizon == 1.0
    assert np.array_equal(p.x0, [0.0])
    assert p.xT is None and not p.use_psi and not p.use_phi
    assert p.name == "example1"


def test_builtin_example4_fields():
    p = load_problem("example4")
    assert p.n == 3 and p.horizon == 5.0
    assert p.use_phi and not p.use_psi
    assert p.lambda0 == 2.0
    over = builtin_config_overrides("example4")
    assert over["grid_sizes"] == (51, 101, 201)
    assert over["lambda_max"] == 2.0


def test_problem_file_round_trip(tmp_path):
    for name in builtin_names():
        spec = load_problem(name)
        f = tmp_path / f"{name}_copy.prob"
        write_problem(spec, f)
        back = load_problem(str(f))
        assert back == spec  # equality ignores the display name
        assert back.name == f"{name}_copy"


def test_problem_file_round_trip_with_numpy_scalars(tmp_path):
    spec = dataclasses.replace(load_problem("example1"), n=np.int64(1),
                               horizon=np.float64(2.0), lambda0=np.float64(3.0))
    f = tmp_path / "numpy.prob"
    write_problem(spec, f)
    assert load_problem(str(f)) == spec


def test_problem_file_errors(tmp_path):
    cases = {
        "T = 1.0\nx0 = 0.0\nintegrand = abs(x1)\n": "missing key 'n'",
        "n = 1\nT = 1.0\nx0 = 0.0\nintegrand = abs(x1)\nwibble = 3\n":
            "line 5: unknown key 'wibble'",
        "n = 1\nn = 2\nT = 1.0\nx0 = 0.0\nintegrand = abs(x1)\n":
            "line 2: duplicate key 'n'",
        # the problem decides its penalties: neither can be switched
        "n = 1\nT = 1.0\nx0 = 0.0\nuse_phi = false\nintegrand = abs(z1)\n":
            "line 4: unknown key 'use_phi'",
        "n = 1\nT = 1.0\nx0 = 0.0\nxT = 1.0\nuse_psi = true\nintegrand = abs(x1)\n":
            "line 5: unknown key 'use_psi'",
        "n = 1\nT = 1.0\nx0 = 0.0\nintegrand = abs(q1)\n":
            "unknown identifier",
    }
    for i, (text, message) in enumerate(cases.items()):
        f = tmp_path / f"case{i}.prob"
        f.write_text(text)
        with pytest.raises(ProblemFileError, match=message):
            load_problem(str(f))


def test_missing_file_lists_builtins():
    with pytest.raises(ProblemFileError, match="example1, example2"):
        load_problem("/nowhere/missing.prob")


# ---------------------------------------------------------------------------
# solve command


def test_run_example1_outputs(tmp_path):
    out = tmp_path / "run1"
    assert run(["solve", "example1", "--out", str(out)]) == 0

    summary = json.loads((out / "summary.json").read_text())
    assert summary["problem"] == "example1"
    assert summary["status"] == "converged"
    assert summary["J"] <= 1e-12

    header, rows = _read_csv(out / "trajectory.csv")
    assert header == ["t", "x1", "z1"]
    assert np.max(np.abs(rows[:, 1])) <= 1e-12

    cheader, crows = _read_csv(out / "convergence.csv")
    assert cheader == ["k", "I", "J", "psi", "phi", "vnorm", "lambda", "gamma", "N",
                       "eps", "ls_evals"]
    # the summary mirrors the last convergence row
    assert summary["iterations"] == int(crows[-1, 0])
    assert summary["I"] == crows[-1, 1]
    assert summary["vnorm"] == crows[-1, 5]
    assert summary["npoints"] == int(crows[-1, 8])


def test_run_convergence_monotone_within_stage(tmp_path):
    out = tmp_path / "run2"
    assert run(["solve", "example2", "--out", str(out)]) == 0
    _, rows = _read_csv(out / "convergence.csv")
    for prev, cur in zip(rows, rows[1:]):
        same_stage = prev[6] == cur[6] and prev[8] == cur[8]
        if same_stage and prev[7] > 0:
            assert cur[1] < prev[1]


def test_run_endpoint_error_matches_trajectory(tmp_path):
    f = tmp_path / "steer.prob"
    f.write_text("n = 1\nT = 1.0\nx0 = 0.0\nxT = 0.25\n"
                 "integrand = pow(z1, 2)\nlambda0 = 1.0\n")
    out = tmp_path / "steer_run"
    code = run(["solve", str(f), "--out", str(out), "--grid", "5,9",
                "--lambda-max", "5", "--max-iters", "60",
                "--constraint-tol", "1e-3"])
    assert code in (0, 2)
    summary = json.loads((out / "summary.json").read_text())
    _, rows = _read_csv(out / "trajectory.csv")
    recomputed = abs(rows[-1, 1] - 0.25)
    assert summary["endpoint_error"] == pytest.approx(recomputed, abs=1e-12)
    # the reported x is the running integral of z from x0
    t = rows[:, 0]
    x = rows[:, 1]
    z = rows[:, 2]
    integ = np.concatenate([[0.0], np.cumsum((z[1:] + z[:-1]) / 2 * np.diff(t))])
    assert np.allclose(x, integ, atol=1e-12)


def test_run_summary_J_is_the_J_of_the_reported_trajectory(tmp_path):
    # psi reads z, so phi must tie x to it even though the integrand
    # reads no z: without phi the summary measured J on a free x = t
    # while trajectory.csv reported x0 + int z.
    f = tmp_path / "psi.prob"
    f.write_text("n = 1\nT = 1\nx0 = 0\nxT = 0.5\nintegrand = abs(x1 - t)\n")
    out = tmp_path / "psi_run"
    assert run(["solve", str(f), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    _, rows = _read_csv(out / "trajectory.csv")
    t, x = rows[:, 0], rows[:, 1]
    assert summary["J"] == pytest.approx(np.trapezoid(np.abs(x - t), t), abs=5e-3)


def test_run_exhausted_exit_code(tmp_path):
    out = tmp_path / "run3"
    code = run(["solve", "example2", "--out", str(out),
                "--eps", "1e-20", "--max-iters", "2"])
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "exhausted"


# Without penalties, at 5 nodes, steepest descent on this weighted
# quadratic converges linearly; with a stationarity threshold it never
# reaches, the line search runs out of decrease first.
_STALL = "n = 1\nT = 1\nx0 = 0\nintegrand = (1 + t) * pow(x1 - t, 2)\ninitial_x = 0\n"


@pytest.mark.parametrize("problem, flags, stops", [
    ("example3", [], ["stationary"] * 3),
    ("example2", ["--eps", "1e-20", "--max-iters", "2"], ["budget"] * 3),
    ("stall", ["--grid", "5", "--eps", "1e-300"], ["ls_stall"]),
])
def test_run_records_why_each_stage_stopped(tmp_path, problem, flags, stops):
    if problem == "stall":
        problem = tmp_path / "stall.prob"
        problem.write_text(_STALL)
    out = tmp_path / "run"
    code = run(["solve", str(problem), "--out", str(out), *flags])
    assert code == (0 if stops[-1] == "stationary" else 2)
    stages = json.loads((out / "summary.json").read_text())["stages"]
    assert [s["stop"] for s in stages] == stops
    # the stages split convergence.csv's rows in order
    _, rows = _read_csv(out / "convergence.csv")
    first = 0
    for s in stages:
        assert set(s) == {"N", "lambda", "iterations", "stop", "eps",
                          "directions", "skipped", "sweeps"}
        part = rows[first:first + s["iterations"]]
        assert len(part) == s["iterations"] >= 1
        assert (part[:, 8] == s["N"]).all() and (part[:, 6] == s["lambda"]).all()
        # the tolerance reached is the last row's; every row took a direction
        assert s["eps"] == part[-1, 9]
        assert s["directions"] >= s["iterations"]
        first += s["iterations"]
    assert first == len(rows)
    if stops == ["budget"] * 3:
        assert [s["iterations"] for s in stages] == [2, 2, 2]
        # example2's lines are sweep lines, and every direction was searched
        assert [s["sweeps"] for s in stages] == [s["directions"] for s in stages]
    if problem == "example3":
        assert [s["sweeps"] for s in stages] == [0, 0, 0]
    if stops == ["ls_stall"]:
        # a smooth line is a sweep line, and the sweep decides: the last
        # iteration's failed search takes its one probe.  The integrand
        # has no tie, so its field is the floor's: no direction is
        # retaken, and every smaller tolerance is passed over.
        (stage,) = stages
        assert stage["sweeps"] == stage["directions"] == stage["iterations"]
        assert stage["skipped"] == len(nsvar.solver._EPS_SCHEDULE) - 1
        assert rows[-1, 10] == 1


@pytest.mark.parametrize("problem, flags", [
    ("example2", []),
    ("stall", ["--grid", "5", "--eps", "1e-300"]),
])
def test_stages_skip_what_the_one_step_walk_retakes(tmp_path, monkeypatch,
                                                    problem, flags):
    """directions + skipped is the count of a walk one tolerance at a
    time, and the two walks leave the same iterates: only ls_evals may
    fall, where a failed search is no longer repeated."""
    if problem == "stall":
        problem = tmp_path / "stall.prob"
        problem.write_text(_STALL)
    runs = {}
    for walk in ("margins", "one step"):
        if walk == "one step":
            monkeypatch.setattr(nsvar.solver, "next_tolerance",
                                lambda ties, schedule, i: i + 1)
        out = tmp_path / walk.replace(" ", "_")
        run(["solve", str(problem), "--out", str(out), *flags])
        runs[walk] = (json.loads((out / "summary.json").read_text())["stages"],
                      _read_csv(out / "convergence.csv")[1],
                      (out / "trajectory.csv").read_bytes())
    (stages, rows, traj), (walked, walked_rows, walked_traj) = runs.values()
    assert traj == walked_traj
    assert np.array_equal(rows[:, :10], walked_rows[:, :10])
    assert (rows[:, 10] <= walked_rows[:, 10]).all()
    assert [(s["iterations"], s["stop"], s["eps"], s["directions"] + s["skipped"])
            for s in stages] == [(s["iterations"], s["stop"], s["eps"], s["directions"])
                                 for s in walked]
    assert all(s["skipped"] == 0 for s in walked)
    assert sum(s["skipped"] for s in stages) > 0


def test_run_missing_problem_is_error(tmp_path, capsys):
    assert run(["solve", str(tmp_path / "nope.prob"),
                "--out", str(tmp_path / "o")]) == 1
    assert "no such problem" in capsys.readouterr().err


def _python_m_nsvar(*args, cwd):
    """Run ``python -m nsvar`` (which calls cli.main) on this checkout's source."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run([sys.executable, "-m", "nsvar", *args], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=300)


def test_module_entry_point_solves(tmp_path):
    out = tmp_path / "example1"
    done = _python_m_nsvar("solve", "example1", "--out", str(out), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert sorted(f.name for f in out.iterdir()) == [
        "convergence.csv", "summary.json", "trajectory.csv"]


def test_module_entry_point_reports_errors(tmp_path):
    done = _python_m_nsvar("solve", "no-such-problem", cwd=tmp_path)
    assert done.returncode == 1
    assert done.stderr.startswith("nsvar: error:")
    assert list(tmp_path.iterdir()) == []


def test_run_survives_line_search_probe_outside_domain(tmp_path):
    # Long probes along the first descent direction push x1 below 0,
    # where sqrt(x1) is undefined; they must shrink the bracket, not
    # end the solve.
    f = tmp_path / "sqrt.prob"
    f.write_text("n = 1\nT = 1\nx0 = 1\n"
                 "integrand = pow(z1, 2) + sqrt(x1) + abs(x1 - 0.5)\n")
    out = tmp_path / "sqrt_run"
    assert run(["solve", str(f), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "converged"
    assert (out / "trajectory.csv").exists()
    assert (out / "convergence.csv").exists()


def test_run_solves_sqrt_of_t_through_its_zero(tmp_path):
    # sqrt(t) has a zero gradient in x and z, so t = 0 is in its domain
    f = tmp_path / "root.prob"
    f.write_text("n = 1\nT = 1\nx0 = 0\nintegrand = abs(x1 - sqrt(t))\n")
    out = tmp_path / "root_run"
    assert run(["solve", str(f), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "converged"
    assert 0.0 <= summary["J"] < 1e-6


@pytest.mark.parametrize("x0", ["0", "1"])
def test_run_solves_through_a_quotient_without_x_or_z(tmp_path, x0):
    # norm's zero sends nodes to the per-node route, where the divisor's
    # square underflows to 0: its gradient is zero, not 0 / 0
    f = tmp_path / "quotient.prob"
    f.write_text(f"n = 1\nT = 1\nx0 = {x0}\n"
                 "integrand = norm(x1) + 1 / (1e-200 * (t + 1))\n")
    out = tmp_path / "quotient_run"
    assert run(["solve", str(f), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "converged"


@pytest.mark.parametrize("n, x0, integrand, optimum", [
    # a tie over a ball: the hull of the ball and a point, or a segment
    (2, "0, 0", "max(norm(x1, x2), 0) + pow(z1 - 1, 2)", 5 / 12),
    (2, "0, 0", "max(norm(x1, x2), abs(x1)) + pow(z1 - 1, 2)", 5 / 12),
    # norm's rows on one coordinate: a ball of radius sqrt(2) there
    (1, "0", "norm(x1, x1)", 0.0),
    (1, "0", "norm(x1, x1) + pow(z1 - 1, 2)", 0.5404),
])
def test_run_solves_through_ties_over_balls(tmp_path, n, x0, integrand, optimum):
    # from x = 0 the first iterate's nodes sit at norm's zero; the
    # optimum is the continuous problem's, which the grid's J nears
    f = tmp_path / "ball.prob"
    f.write_text(f"n = {n}\nT = 1\nx0 = {x0}\nintegrand = {integrand}\n")
    out = tmp_path / "ball_run"
    assert run(["solve", str(f), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "converged"
    assert summary["J"] == pytest.approx(optimum, abs=0.01)


def test_run_norm_with_unequal_radii_still_fails(tmp_path, capsys):
    # the image of the unit ball under J^T is an ellipse here, which no
    # set type represents
    f = tmp_path / "ellipse.prob"
    f.write_text("n = 2\nT = 1\nx0 = 1, 0\n"
                 "integrand = norm(2 * x1, x2) + pow(z1 - 1, 2)\n")
    assert run(["solve", str(f), "--out", str(tmp_path / "ellipse_run")]) == 1
    assert capsys.readouterr().err == (
        "nsvar: error: norm arguments have mismatched scales at a zero\n")


def test_run_rejects_abs_over_a_kink(tmp_path, capsys):
    # |(|x1| - 1)| is concave on [-1, 1]: from x1 = 0 the set calculus
    # would report a stationary point at J = 1, though x1 = 1 gives 0
    f = tmp_path / "nested.prob"
    f.write_text("n = 1\nT = 1\nx0 = 0\nintegrand = abs(abs(x1) - 1)\n")
    assert run(["solve", str(f), "--out", str(tmp_path / "nested_run")]) == 1
    assert capsys.readouterr().err == (
        "nsvar: error: line 4: bad integrand: nonsmooth subexpression inside abs\n")


@pytest.mark.parametrize("integrand, message", [
    ("pow(x1, 1e400)", "pow exponent must be an integer literal"),
    ("(" * 300 + "abs(x1)" + ")" * 300, "expression nested too deeply"),
])
def test_run_rejects_an_unparseable_integrand_cleanly(tmp_path, capsys,
                                                      integrand, message):
    f = tmp_path / "bad.prob"
    f.write_text(f"n = 1\nT = 1\nx0 = 0\nintegrand = {integrand}\n")
    assert run(["solve", str(f), "--out", str(tmp_path / "bad_run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nsvar: error: line 4: bad integrand: ")
    assert message in err


def test_run_rejects_a_sum_too_deep_to_walk(tmp_path, capsys):
    # A flat sum parses iteratively but nests one Add per term, and every
    # later walk of the tree is recursive: the parse rejects it first.
    for count in (300, 500, 900):
        terms = " + ".join(f"abs(x1 - {k})" for k in range(count))
        f = tmp_path / "long.prob"
        f.write_text(f"n = 1\nT = 1\nx0 = 0\nintegrand = {terms}\n")
        out = tmp_path / f"long_run_{count}"
        assert run(["solve", str(f), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "nsvar: error: line 4: bad integrand: expression nested too deeply\n")
        assert not out.exists()


def test_run_survives_line_search_probe_that_overflows(tmp_path):
    # Doubling the step from x = 0 overshoots x1 = 1.6, where the exp
    # term overflows; that probe must count as +inf, like one outside the
    # domain, and no numpy warning may escape.
    f = tmp_path / "steep.prob"
    f.write_text("n = 1\nT = 1\nx0 = 0\n"
                 "integrand = abs(x1 - 1) + exp(1000 * (x1 - 1.6))\n")
    out = tmp_path / "steep_run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["solve", str(f), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "converged"


def _assert_overflow_left_summary(out: Path) -> None:
    """The solve stopped at an overflow and left a failed summary.json
    with the last pair and the records so far, as every overflow does."""
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "failed"
    assert summary["reason"] == "overflow encountered in multiply"
    assert (out / "trajectory.csv").exists() and (out / "convergence.csv").exists()


# np.einsum sets no floating-point flags, so each of these products would
# carry an inf on past solve's np.errstate traps without trap_row_dots.


def test_overflow_in_the_field_norm_stops_the_solve(tmp_path, monkeypatch):
    def huge(p, xz, m, eps):
        return Traj(xz.grid, np.full((xz.grid.npoints, 2 * p.n), 1e200)), []

    monkeypatch.setattr(nsvar.solver, "min_norm_field", huge)
    out = tmp_path / "o"
    assert run(["solve", "example1", "--out", str(out)]) == 1
    _assert_overflow_left_summary(out)


def test_overflow_in_a_closed_form_row_dot_stops_the_solve(tmp_path, monkeypatch):
    # a generator over three of four columns takes the einsum; its squared
    # norm overflows, and the clip hides that: lambda = -<q, a> / inf = 0
    def widened(self):
        subdiff = compile_subdiff(self.integrand, self.n)

        def with_huge_generator(x, z, t, tol):
            v, q, gens, per_node, ties = subdiff(x, z, t, tol)
            huge = np.full((t.shape[0], 3), 1e200)
            return v, q, [*gens, ((0, 1, 2), huge)], per_node, ties
        return with_huge_generator

    monkeypatch.setattr(ProblemSpec, "integrand_subdiff", property(widened))
    f = tmp_path / "two.prob"
    f.write_text("n = 2\nT = 1\nx0 = 1, 1\nintegrand = abs(x1) + abs(x2)\n")
    out = tmp_path / "two_run"
    assert run(["solve", str(f), "--out", str(out)]) == 1
    _assert_overflow_left_summary(out)


def test_overflow_in_the_phi_residual_stops_the_solve(tmp_path):
    # x - x0 - int z is about -1.6e159 sin(2 pi t): phi's row dots
    # overflow inside (0, 1), not at its ends, while J stays finite
    f = tmp_path / "steep.prob"
    f.write_text("n = 1\nT = 1\nx0 = 0\nintegrand = abs(x1) + abs(z1)\n"
                 "initial_z = 1e160 * cos(6.283185307179586 * t)\n")
    out = tmp_path / "steep_run"
    assert run(["solve", str(f), "--out", str(out)]) == 1
    _assert_overflow_left_summary(out)


def test_run_uncertified_min_norm_is_error(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise MinNormUncertified(3, 0.5)

    monkeypatch.setattr(nsvar.solver, "min_norm_field", fail)
    assert run(["solve", "example1", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nsvar: error: minimum-norm certificate failed at node 3")


def test_run_failed_solve_leaves_summary(tmp_path, capsys):
    # The norm's Jacobian at its first zero is not coordinate-aligned, so
    # the subdifferential calculus gives up mid-solve.
    f = tmp_path / "skew.prob"
    f.write_text("n = 2\nT = 1\nx0 = 0, 0\nintegrand = norm(z1 - x2, x1)\n")
    out = tmp_path / "skew_run"
    assert run(["solve", str(f), "--out", str(out)]) == 1
    reason = "norm vanishes but its Jacobian is not coordinate-aligned"
    assert capsys.readouterr().err == f"nsvar: error: {reason}\n"
    summary = json.loads((out / "summary.json").read_text())
    assert summary == {"problem": "skew", "status": "failed", "reason": reason}
    # It fails in the first direction, so the last pair is the initial one
    # and there are no records yet.
    assert sorted(q.name for q in out.iterdir()) == [
        "convergence.csv", "summary.json", "trajectory.csv"]
    assert (out / "convergence.csv").read_text() == (
        "k,I,J,psi,phi,vnorm,lambda,gamma,N,eps,ls_evals\n")
    header, rows = _read_csv(out / "trajectory.csv")
    assert header == ["t", "x1", "x2", "z1", "z2"]
    assert rows.shape == (11, 5)
    assert np.all(rows[:, 1:] == 0.0)


def test_run_failed_solve_keeps_its_last_pair_and_records(tmp_path, monkeypatch):
    calls = []

    def fail_on_fourth(*args, **kwargs):
        calls.append(args[1].copy())
        if len(calls) == 4:
            raise MinNormUncertified(3, 0.5)
        return min_norm_field(*args, **kwargs)

    monkeypatch.setattr(nsvar.solver, "min_norm_field", fail_on_fourth)
    out = tmp_path / "o"
    assert run(["solve", "example2", "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "failed"
    assert summary["reason"].startswith("minimum-norm certificate failed at node 3")
    # three directions taken and stepped along, the fourth never came
    _, crows = _read_csv(out / "convergence.csv")
    assert crows[:, 0].tolist() == [1, 2, 3]
    assert np.all(crows[:, 7] > 0) and np.all(crows[:, 10] > 0)
    _, trows = _read_csv(out / "trajectory.csv")
    last = calls[-1]
    assert np.array_equal(trows[:, 0], last.grid.nodes)
    assert np.array_equal(trows[:, 1], last.x.values[:, 0])
    assert np.array_equal(trows[:, 2], last.z.values[:, 0])


def test_run_non_finite_initial_guess_leaves_summary(tmp_path, capsys):
    # exp(1000 t) overflows from t = 0.8 on the first grid of 11 nodes.
    f = tmp_path / "blowup.prob"
    f.write_text("n = 1\nT = 1.0\nx0 = 0\nintegrand = abs(x1)\n"
                 "initial_x = exp(1000 * t)\n")
    out = tmp_path / "blowup_run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the check replaces numpy's warnings
        assert run(["solve", str(f), "--out", str(out)]) == 1
    reason = "initial_x component 1 is not finite at t=0.8 (node 8)"
    assert capsys.readouterr().err == f"nsvar: error: {reason}\n"
    summary = json.loads((out / "summary.json").read_text())
    assert summary == {"problem": "blowup", "status": "failed", "reason": reason}


def test_run_uncertified_min_norm_leaves_summary(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise MinNormUncertified(3, 0.5)

    monkeypatch.setattr(nsvar.solver, "min_norm_field", fail)
    out = tmp_path / "o"
    assert run(["solve", "example1", "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "failed"
    assert summary["reason"].startswith("minimum-norm certificate failed at node 3")


def test_run_non_finite_x0_is_rejected_on_entry(tmp_path, capsys):
    f = tmp_path / "bad.prob"
    f.write_text("n = 1\nT = 1\nx0 = nan\nintegrand = abs(x1)\n")
    out = tmp_path / "bad_run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["solve", str(f), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"nsvar: error: invalid problem file {str(f)!r}: x0 must be finite\n")
    assert not out.exists()


def test_run_zero_iteration_budget_is_error(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["solve", "example1", "--out", str(out), "--max-iters", "0"]) == 1
    assert capsys.readouterr().err == "nsvar: error: max_iters must be at least 1\n"
    assert not out.exists()


def test_problem_file_named_like_a_builtin_gets_no_builtin_settings(tmp_path):
    f = tmp_path / "example4.prob"
    f.write_text("n = 1\nT = 1\nx0 = 0\nintegrand = abs(x1)\n")
    out = tmp_path / "o"
    assert run(["solve", str(f), "--out", str(out)]) == 0
    _, rows = _read_csv(out / "convergence.csv")
    assert rows[0, 8] == SolverConfig().grid_sizes[0] == 11


# Problem-file keys and flags the property test draws, at values that
# solve; it replaces up to three with values drawn from _ODD (or, for the
# integer --max-iters, _ODD_ITERS).
_USUAL = {"x0": "0.5", "xT": "1", "T": "1", "lambda0": "20", "eps": "0.03",
          "lambda-max": "100", "constraint-tol": "1e-3", "max-iters": "5"}
_ODD = ("nan", "inf", "-inf", "0", "-1", "-1e300", "1e300")
_ODD_ITERS = ("0", "-1", "1000000000")


def _odd_value(key):
    values = _ODD_ITERS if key == "max-iters" else _ODD
    return st.tuples(st.just(key), st.sampled_from(values))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(odd=st.lists(st.sampled_from(sorted(_USUAL)).flatmap(_odd_value),
                    max_size=3))
def test_run_entry_point_solves_or_fails_cleanly(odd):
    # Whatever the values, a run ends in a status with all three
    # artifacts, or in an error message and at most a failed summary.
    v = {**_USUAL, **dict(odd)}
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "drawn.prob"
        f.write_text(f"n = 1\nT = {v['T']}\nx0 = {v['x0']}\nxT = {v['xT']}\n"
                     "integrand = abs(x1 - 1) + pow(z1, 2)\n"
                     f"lambda0 = {v['lambda0']}\n")
        out = Path(tmp) / "out"
        flags = [f"--{k}={v[k]}"
                 for k in ("eps", "lambda-max", "constraint-tol", "max-iters")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = run(["solve", str(f), "--out", str(out), "--grid", "3,5",
                        *flags])
        files = sorted(q.name for q in out.iterdir()) if out.exists() else None
        if code == 1:
            assert err.getvalue().startswith("nsvar: error: ")
            if files is not None:
                assert files == ["convergence.csv", "summary.json",
                                 "trajectory.csv"]
                summary = json.loads((out / "summary.json").read_text())
                assert summary["status"] == "failed"
        else:
            assert code in (0, 2)
            assert files == ["convergence.csv", "summary.json", "trajectory.csv"]


def test_run_bad_grid_is_error(tmp_path):
    assert run(["solve", "example1", "--out", str(tmp_path / "o"),
                "--grid", "21,11"]) == 1
    assert run(["solve", "example1", "--out", str(tmp_path / "o2"),
                "--grid", "a,b"]) == 1


def test_run_bad_flag_value_reports_through_nsvar_error(tmp_path, capsys):
    for flags, message in (
            (["--max-iters", "nan"],
             "argument --max-iters: invalid int value: 'nan'"),
            (["--constraint-tol", "-inf"],
             "argument --constraint-tol: expected one argument")):
        out = tmp_path / "o"
        assert run(["solve", "example1", "--out", str(out), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"nsvar: error: {message}\n"
        assert captured.out == ""
        assert not out.exists()


def test_run_emit_plot_data(tmp_path):
    out = tmp_path / "run4"
    assert run(["solve", "example1", "--out", str(out),
                "--emit-plot-data"]) == 0
    files = sorted((out / "plotdata").glob("direction_*.csv"))
    assert len(files) == 1
    header, rows = _read_csv(files[0])
    assert header == ["t", "gx1", "gz1"]
    assert np.allclose(rows[:, 1], [np.sqrt(3.0), 0.0, -np.sqrt(3.0)], atol=1e-12)


@pytest.mark.parametrize("as_array", [True, False])
def test_csv_rows_are_written_as_each_value_formatted_alone(tmp_path, as_array):
    """One format string per row gives the bytes of one f"{v:.17g}" per value."""
    rows = [(-0.0, float("nan"), float("inf"), -float("inf")),
            (5e-324, 2.2250738585072014e-308 / 3, 1e300, -1.7976931348623157e308),
            (0.1, 1 / 3, 2.0 ** 53 + 2, -123456789.125),
            (0, 7, -42, 2 ** 60 + 1)]
    header = ["a", "b", "c", "d"]
    path = tmp_path / "t.csv"
    nsvar.cli._write_csv(path, header, np.array(rows) if as_array else rows)
    want = [",".join(header)] + [",".join(f"{v:.17g}" for v in row) for row in rows]
    assert path.read_text() == "\n".join(want) + "\n"
    assert "-0,nan,inf,-inf" in path.read_text()


def test_run_prints_table(tmp_path, capsys):
    assert run(["solve", "example1", "--out", str(tmp_path / "r")]) == 0
    text = capsys.readouterr().out
    assert "converged" in text
    assert "example1" in text


def test_run_help_exits_cleanly():
    assert run(["--help"]) == 0
    assert run(["solve", "--help"]) == 0


def test_solve_help_says_eps_bounds_the_squared_norm(capsys):
    # solve stops at ||v||^2 <= eps_bar, not at ||v|| <= eps_bar
    assert run(["solve", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--eps EPS stationarity threshold on the squared residual norm ||v||^2" in text


def test_every_solver_setting_is_reachable_from_the_command_line():
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    assert fields == set(nsvar.cli._FLAG_FIELDS.values()) | {"grid_sizes"}


def test_lambda0_flag_replaces_the_problems_value(tmp_path, capsys):
    # example3's problem text sets lambda0 = 20; --lambda0 takes its place
    for flags, lam in (([], 20.0), (["--lambda0", "7"], 7.0)):
        out = tmp_path / f"run{lam}"
        run(["solve", "example3", "--out", str(out), "--max-iters", "1", *flags])
        _, rows = _read_csv(out / "convergence.csv")
        assert rows[0, 6] == lam
    assert run(["solve", "example3", "--lambda0", "0"]) == 1
    assert capsys.readouterr().err.endswith("lambda0 must be positive\n")

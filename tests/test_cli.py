"""Problem files, the solve command, and its on-disk outputs."""

import contextlib
import csv
import dataclasses
import io
import json
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
from nsvar.functional import MinNormUncertified
from nsvar.solver import SolverConfig


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


def test_problem_file_errors(tmp_path):
    cases = {
        "T = 1.0\nx0 = 0.0\nintegrand = abs(x1)\n": "missing key 'n'",
        "n = 1\nT = 1.0\nx0 = 0.0\nintegrand = abs(x1)\nwibble = 3\n":
            "line 5: unknown key 'wibble'",
        "n = 1\nn = 2\nT = 1.0\nx0 = 0.0\nintegrand = abs(x1)\n":
            "line 2: duplicate key 'n'",
        "n = 1\nT = 1.0\nx0 = 0.0\nuse_phi = maybe\nintegrand = abs(x1)\n":
            "expected true or false",
        "n = 1\nT = 1.0\nx0 = 0.0\nintegrand = abs(q1)\n":
            "unknown identifier",
        "n = 1\nT = 1.0\nx0 = 0.0\nxT = 1.0\nuse_psi = false\nintegrand = abs(x1)\n":
            "exactly when use_psi",
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
    assert cheader == ["k", "I", "J", "psi", "phi", "vnorm", "lambda", "gamma", "N"]
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


def test_run_exhausted_exit_code(tmp_path):
    out = tmp_path / "run3"
    code = run(["solve", "example2", "--out", str(out),
                "--eps", "1e-20", "--max-iters", "2"])
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "exhausted"


def test_run_missing_problem_is_error(tmp_path, capsys):
    assert run(["solve", str(tmp_path / "nope.prob"),
                "--out", str(tmp_path / "o")]) == 1
    assert "no such problem" in capsys.readouterr().err


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
    assert sorted(q.name for q in out.iterdir()) == ["summary.json"]


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
                assert files == ["summary.json"]
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


def test_run_emit_plot_data(tmp_path):
    out = tmp_path / "run4"
    assert run(["solve", "example1", "--out", str(out),
                "--emit-plot-data"]) == 0
    files = sorted((out / "plotdata").glob("direction_*.csv"))
    assert len(files) == 1
    header, rows = _read_csv(files[0])
    assert header == ["t", "gx1", "gz1"]
    assert np.allclose(rows[:, 1], [np.sqrt(3.0), 0.0, -np.sqrt(3.0)], atol=1e-12)


def test_run_prints_table(tmp_path, capsys):
    assert run(["solve", "example1", "--out", str(tmp_path / "r")]) == 0
    text = capsys.readouterr().out
    assert "converged" in text
    assert "example1" in text


def test_run_help_exits_cleanly():
    assert run(["--help"]) == 0
    assert run(["solve", "--help"]) == 0


def test_every_solver_setting_is_reachable_from_the_command_line():
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    assert fields == set(nsvar.cli._FLAG_FIELDS.values()) | {"grid_sizes"}

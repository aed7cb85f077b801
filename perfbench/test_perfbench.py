"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import nsvar.cli  # noqa: E402
from nsvar.convexgeom import Ball, MinkowskiSum, Polytope, Singleton  # noqa: E402

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def _solve(argv, out):
    with contextlib.redirect_stdout(io.StringIO()):
        return nsvar.cli.run(["solve", *argv, "--out", str(out)])


@pytest.mark.parametrize("name, builtin", [("penalty_ladder", "example3")])
def test_seed0_reproduces_builtin(tmp_path, name, builtin):
    text, flags = workloads.generate(name, 0)
    prob = tmp_path / f"{name}.prob"
    prob.write_text(text)
    assert _solve([prob.as_posix(), *flags], tmp_path / "gen") == 0
    assert _solve([builtin], tmp_path / "builtin") == 0
    gen = (tmp_path / "gen" / "convergence.csv").read_bytes()
    assert gen == (tmp_path / "builtin" / "convergence.csv").read_bytes()


def test_generator_is_seeded():
    for name, w in workloads.WORKLOADS.items():
        assert w.params(0) == w.reference
        assert workloads.generate(name, 7) == workloads.generate(name, 7)
        assert workloads.generate(name, 7) != workloads.generate(name, 8)
        for k, v in w.params(11).items():
            assert abs(v - w.reference[k]) <= w.spread[k]
        assert [s for s, _ in w.panel(0)] == list(range(w.panel_size))
        assert w.panel(0)[0][1] == workloads.generate(name, 0)[0]
        seeds = [s for s, _ in w.panel(12345)]
        assert seeds == [s for s, _ in w.panel(12345)]
        assert len(set(seeds)) == w.panel_size
        assert all(0 <= s < w.pool_size for s in seeds)


def test_panel_time_is_the_median_of_each_members_fastest_scaled_solve():
    ref = run.PROBE_REF_S
    solves = {1: [(3.0, ref), (4.0, 2 * ref), (2.5, ref)],
              2: [(5.0, ref), (6.0, 2 * ref)],
              3: [(1.0, ref / 4), (9.0, ref)]}
    records = [{"member": m, "wall_s": w, "probe_s": p}
               for m, ws in solves.items() for w, p in ws]
    assert run.panel_time(records, "wall_s") == 3.0


def test_speed_probe_reads_every_solve(tmp_path):
    prob, flags = _kink_prob(tmp_path)
    spec = {"flags": flags, "workload": "kink_tracking", "final_grid": 21}
    probe = child.SpeedProbe()
    rec = child.solve_once(spec, {"seed": 0, "prob": prob}, tmp_path / "out",
                           probe=probe)
    assert len(probe.samples) >= 1 and rec["probe_s"] > 0.0
    assert 0.0 < rec["wall_s"] and 0.0 < rec["cpu_s"]


def test_manifest_matches_workloads():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("s, route", [
    (Singleton([1.0, 2.0]), "point"),
    (Polytope([[1.0, 0.0]]), "point"),
    (Polytope([[1.0, 0.0], [-1.0, 0.0]]), "segment"),
    (MinkowskiSum((Polytope([[1.0, 0.0], [-1.0, 0.0]]),
                   Polytope([[0.0, 1.0], [0.0, -1.0]]))), "wolfe"),
    (MinkowskiSum((Ball([0.0, 0.0], 1.0, [True, False]), Singleton([1.0, 1.0]))),
     "ball"),
    (MinkowskiSum((Ball([0.0, 0.0], 1.0), Polytope([[1.0, 0.0], [0.0, 1.0]]))),
     "ball"),
    (MinkowskiSum((Ball([0.0, 0.0], 1.0, [True, False]),
                   Polytope([[1.0, 0.0], [0.0, 1.0]]))), "away"),
    (Ball([1.0, 1.0], 0.0), "point"),
])
def test_min_norm_route(s, route):
    assert tracer.min_norm_route(s) == route


def _kink_prob(tmp_path):
    text, _ = workloads.generate("kink_tracking", 0)
    prob = tmp_path / "kink.prob"
    prob.write_text(text)
    return prob.as_posix(), ["--grid", "11,21", "--max-iters", "20"]


def test_traced_solve_is_identical_and_reports_every_layer_metric(tmp_path):
    prob, flags = _kink_prob(tmp_path)
    _solve([prob, *flags], tmp_path / "plain")
    tr = tracer.Tracer()
    tr.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            tr.wrap("cli.run", nsvar.cli.run)(
                ["solve", prob, *flags, "--out", str(tmp_path / "traced")])
    finally:
        tr.uninstall()
    assert nsvar.solver.eval_I is nsvar.functional.eval_I
    assert not hasattr(nsvar.functional.min_norm_point, "__wrapped__")
    for f in ("convergence.csv", "trajectory.csv"):
        assert ((tmp_path / "plain" / f).read_bytes()
                == (tmp_path / "traced" / f).read_bytes())

    rec = checks.check_solve(tmp_path / "traced", 0, "kink_tracking", 21)
    layers, by_N = tracer.layer_metrics(tr, rec["stages"], 20)
    added_by_child = {"cli.bytes_written", "solver.J_final",
                      "solver.penalty_final", "trace.overhead_s",
                      "trace.overhead_frac"}
    declared = {m["name"] for m in MANIFEST["per_layer"]}
    assert declared == set(layers) | added_by_child
    assert sorted(by_N) == [11, 21]
    assert layers["convexgeom.uncertified"] == 0.0
    assert 0.0 < layers["integrand.kink_node_frac"] <= 1.0
    calls = sum(layers[f"convexgeom.min_norm_point.calls.{r}"] for r in tracer.ROUTES)
    spans = [sp for sp in tr.spans if tr.names[sp[0]] == "convexgeom.min_norm_point"]
    assert calls == len(spans) > 0


def test_checks_flag_broken_artifacts(tmp_path):
    out = tmp_path / "run"
    prob, _ = _kink_prob(tmp_path)
    assert _solve([prob, "--grid", "11,21", "--max-iters", "300"], out) == 0
    assert checks.check_solve(out, 0, "kink_tracking", 21)["problems"] == []
    assert checks.check_solve(out, 0, "kink_tracking", 41)["problems"]

    conv = out / "convergence.csv"
    lines = conv.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[2].split(",")
    row[header.index("I")] = repr(float(lines[1].split(",")[header.index("I")]) + 1.0)
    conv.write_text("\n".join([lines[0], lines[1], ",".join(row), *lines[3:]]) + "\n")
    problems = checks.check_solve(out, 0, "kink_tracking", 21)["problems"]
    assert any("I increases" in p for p in problems)

    traj = out / "trajectory.csv"
    lines = traj.read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = "nan"
    traj.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
    problems = checks.check_solve(out, 0, "kink_tracking", 21)["problems"]
    assert any("trajectory.csv has non-finite" in p for p in problems)

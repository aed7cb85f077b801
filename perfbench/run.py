"""End-to-end and per-layer benchmark of ``nsvar solve``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads, their reasons and the metrics are declared in
BENCHMARK.json next to this directory; ``workloads.py`` generates the
problems.  A run:

1. writes the seed's panel of problem files (``workloads.panel``) under
   ``.perfbench_runs/`` in the checkout;
2. times set-up: a fresh interpreter importing ``nsvar.cli`` and loading
   the first panel problem, ``SETUP_REPEATS`` times;
3. runs the workload in one child interpreter with BLAS/OpenMP pinned to
   one thread.  Solves go through ``nsvar.cli.run`` one at a time (a
   closed loop with one client, since the machine has two cores) and
   every solve's artifacts are checked (``checks.py``).

Untraced (``--trace 0``): the child cycles through the panel, one solve
at a time, until every member has been solved ``workloads.REPEATS``
times and ``--seconds`` have passed, so a run can take longer than
``--seconds`` but never measures less.  Every repeat must leave the same
artifacts as the member's first solve.  It reports the end-to-end
metrics.  A shared machine slows every solve by up to 80% for seconds
to minutes, so each solve's wall and CPU time is scaled to a machine on
which the child's speed probe (``child.py``) takes PROBE_REF_S: a solve
that ran while the probe took twice that counts half its time.
``solve_s`` and ``solve_cpu_s`` are the median over the panel of each
member's fastest scaled solve; the repeats of a member lie a panel
apart.  The panel averages out the seed's effect on the solve, whose
iteration count jumps by tens of percent between nearby problems.  The
raw times are printed for each solve.

Traced (``--trace 1``): the child solves the first panel member
untraced and then with spans recorded around every traced layer call
(``tracer.py``), in turn, until ``--seconds`` have passed.  Traced
artifacts must be byte-identical to the untraced ones; the tracing
overhead is the difference of the two sides' median solve times.  It
reports the per-layer metrics, with per-call costs also for the first
and last grid size (``.Nmin``, ``.Nmax``), and prints them for every
grid size.  The spans of the last traced solve go to
``.perfbench_runs/trace_<workload>_s<seed>.json.gz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when a result was printed and 2 when the run could not start or the
child failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

SETUP_REPEATS = 5
PROBE_REF_S = 100e-6        # the machine speed solve times are scaled to
TIME_LIMIT_S = 170.0        # whole run, including set-up

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

SETUP_SNIPPET = (
    "import sys\n"
    "import nsvar.cli\n"
    "nsvar.cli.load_problem(sys.argv[1])\n"
    "sys.stdout.write('ready\\n')\n"
    "sys.stdout.flush()\n"
)


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    env.update({var: "1" for var in THREAD_VARS})
    return env


def time_setup(prob: Path, env: dict) -> float:
    """Seconds from spawning an interpreter to its problem being loaded."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_SNIPPET, str(prob)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up child failed: {err.strip()}")
    return elapsed


def run_child(spec: dict, workdir: Path, env: dict, timeout: float) -> dict:
    spec_path = workdir / "spec.json"
    result_path = workdir / "result.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path),
         str(result_path)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env, cwd=ROOT,
        text=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"workload child exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"workload child failed:\n{err}")
    return json.loads(result_path.read_text())


def scaled(rec: dict, key: str) -> float:
    """``rec[key]`` at the machine speed where the probe takes PROBE_REF_S."""
    return rec[key] * PROBE_REF_S / rec["probe_s"]


def panel_time(records: list[dict], key: str) -> float:
    """Median over panel members of each member's smallest scaled ``key``."""
    by_member: dict = {}
    for rec in records:
        by_member.setdefault(rec["member"], []).append(scaled(rec, key))
    return statistics.median(min(v) for v in by_member.values())


def per_member_median(records: list[dict], key: str) -> tuple[float, int]:
    """Median over panel members of each member's median ``key``."""
    by_member: dict = {}
    for rec in records:
        if rec.get(key) is not None:
            by_member.setdefault(rec["member"], []).append(rec[key])
    if not by_member:
        return 0.0, 0
    return (statistics.median(statistics.median(v) for v in by_member.values()),
            len(by_member))


def env_line() -> str:
    import numpy
    threads = ",".join(f"{v}=1" for v in THREAD_VARS)
    return (f"env: python {platform.python_version()}, numpy {numpy.__version__}, "
            f"nproc {os.cpu_count()}, {threads}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    start = time.perf_counter()

    if not (SRC / "nsvar" / "cli.py").is_file():
        print(f"perfbench: no nsvar sources under {SRC}", file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in manifest["workloads"]}
    if args.workload not in why:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = manifest["per_layer" if args.trace else "end_to_end"]

    workload = workloads.WORKLOADS[args.workload]
    RUNS.mkdir(exist_ok=True)
    workdir = RUNS / f"{args.workload}_s{args.seed}_{os.getpid()}"
    workdir.mkdir()
    try:
        members = []
        for member_seed, text in workload.panel(args.seed):
            prob = workdir / f"{args.workload}_{member_seed}.prob"
            prob.write_text(text)
            members.append({"seed": member_seed, "prob": str(prob)})
        env = child_env()
        spec = {
            "workload": args.workload,
            "members": members if not args.trace else members[:1],
            "flags": list(workload.flags),
            "final_grid": workload.final_grid(),
            "max_iters": workload.max_iters(),
            "repeats": workloads.REPEATS,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "outdir": str(workdir / "out"),
            "trace_file": str(RUNS / f"trace_{args.workload}_s{args.seed}.json.gz"),
        }
        setup = []
        if not args.trace:
            setup = [time_setup(Path(members[0]["prob"]), env)
                     for _ in range(SETUP_REPEATS)]
        timeout = TIME_LIMIT_S - (time.perf_counter() - start)
        result = run_child(spec, workdir, env, timeout)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = result["records"]
    failed = [r for r in records if r["problems"]]
    print(env_line())
    print(f"workload: {args.workload}: {why[args.workload]}")
    print(f"panel: seeds {[m['seed'] for m in spec['members']]}, "
          f"{len(records)} solves, {len(failed)} failed")
    for m in spec["members"]:
        recs = [r for r in records if r["member"] == m["seed"]]
        print(f"  seed {m['seed']}: {recs[0].get('iterations')} iterations, "
              f"wall " + " ".join(f"{r['wall_s']:.3f}" for r in recs) + " s, "
              f"cpu " + " ".join(f"{r['cpu_s']:.3f}" for r in recs) + " s"
              + (", probe " + " ".join(f"{r['probe_s'] * 1e6:.1f}" for r in recs)
                 + " us, scaled wall " + " ".join(f"{scaled(r, 'wall_s'):.3f}"
                                                  for r in recs) + " s"
                 if "probe_s" in recs[0] else ""))
    for rec in failed:
        print(f"  failed solve of seed {rec['member']}: {'; '.join(rec['problems'])}")

    if args.trace:
        layers = result["layers"]
        values = layers.get("metrics", {})
        if layers:
            print(f"traced solves: {layers['traced_solves']}; spans in "
                  f"{spec['trace_file']}")
            print(f"tracing overhead: {values['trace.overhead_s']:.3f} s "
                  f"({values['trace.overhead_frac']:.1%} of the untraced solve)")
            for N, row in layers["by_N"].items():
                print(f"  N={N}: " + ", ".join(f"{k} {v:.4g}" for k, v in row.items()))
    else:
        ok = [r for r in records if not r["problems"]]
        values = {
            "setup_s": statistics.median(setup),
            "solve_s": panel_time(records, "wall_s"),
            "solve_cpu_s": panel_time(records, "cpu_s"),
            "iterations": float(per_member_median(records, "iterations")[0]),
            "peak_rss_mb": result["peak_rss_mb"],
            "converged_frac": len(ok) / len(records),
        }
        print(f"setup_s: median of {len(setup)}; solve_s, solve_cpu_s: median "
              f"over {len(spec['members'])} panel members of each member's "
              f"fastest solve, {len(records)} solves, scaled to a probe time "
              f"of {PROBE_REF_S * 1e6:.0f} us")

    missing = [m["name"] for m in declared if m["name"] not in values]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}
    correct = not failed and not missing
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

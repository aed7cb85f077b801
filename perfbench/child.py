"""One workload run inside its own interpreter.

Usage: ``python3 perfbench/child.py SPEC_JSON RESULT_JSON``.  The spec
(written by run.py) names the workload, its panel of generated problem
files, the solve flags, the output directory and whether to trace.
Solves run one at a time through ``nsvar.cli.run`` (a closed loop with
one client); the result file gets one record per solve.

While an untraced solve runs, a SIGALRM handler times ``_probe``, a fixed
slice of work that shares no code with nsvar, every PROBE_INTERVAL_S.
On a shared machine (a 2-core VM, measured) the speed drifts by up to
80% over seconds to minutes; the probe's median time during a solve
reads the speed the solve ran at.
The record keeps the probe's median, and the solve's wall and CPU time
without the time spent in the probe (about 0.5%).
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import nsvar.cli

import checks

PROBE_INTERVAL_S = 0.02
_PROBE_X = np.linspace(0.0, 1.0, 32)


def _probe() -> float:
    """Small-array numpy calls and interpreter work, like the solver's."""
    acc = 0.0
    for i in range(10):
        b = np.maximum(_PROBE_X * (i % 5) - 1.0, 0.0)
        acc += float(b @ _PROBE_X) + sum(j * 0.5 for j in range(8))
    return acc


class SpeedProbe:
    """Times ``_probe`` every PROBE_INTERVAL_S of wall time inside a
    ``with`` block.  Python runs the handler between bytecodes of the
    main thread, so it never interrupts a numpy call."""

    def __init__(self):
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _probe()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self.samples.clear()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)


def solve_once(spec: dict, member: dict, outdir: Path, tracer=None,
               probe: SpeedProbe | None = None) -> dict:
    """Run one cli solve of a panel member, time it and check its output.

    With ``probe`` the record also gets ``probe_s``, the probe's median
    time during the solve, and ``wall_s`` and ``cpu_s`` leave out the
    time spent in the probe."""
    argv = ["solve", member["prob"], *spec["flags"], "--out", str(outdir)]
    run = nsvar.cli.run if tracer is None else tracer.wrap("cli.run", nsvar.cli.run)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            (probe or contextlib.nullcontext()):
        c0 = time.process_time()
        t0 = time.perf_counter()
        rc = run(argv)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    rec = checks.check_solve(outdir, rc, spec["workload"], spec["final_grid"])
    rec.update(member=member["seed"], wall_s=wall, cpu_s=cpu)
    if probe is not None:
        probed = sum(probe.samples)
        if not probe.samples:       # a solve shorter than one interval
            probe._tick()
        rec.update(wall_s=wall - probed, cpu_s=cpu - probed,
                   probe_s=statistics.median(probe.samples))
    return rec


def run_panel(spec: dict, out: Path) -> list[dict]:
    """Cycle through the panel, one solve at a time, until every member
    has been solved ``repeats`` times and the measuring time is used up.
    Every repeat must leave the same artifacts as the member's first
    solve."""
    members = spec["members"]
    deadline = time.perf_counter() + spec["seconds"]
    records = []
    first_digests: dict = {}
    probe = SpeedProbe()
    i = 0
    while i < spec["repeats"] * len(members) or time.perf_counter() < deadline:
        member = members[i % len(members)]
        rec = solve_once(spec, member, out / f"solve{i}", probe=probe)
        digests = first_digests.setdefault(member["seed"], rec.get("digests"))
        if rec.get("digests") != digests:
            rec["problems"].append("artifacts differ from an earlier solve "
                                   "of the same problem")
        records.append(rec)
        i += 1
    return records


def run_traced(spec: dict, out: Path) -> tuple[list[dict], dict]:
    """Untraced and traced solves of member 0, alternating, until the
    measuring time is used up.  Returns the solve records and the layer
    metrics (medians over the traced solves) with the per-N tables."""
    import tracer as tracing

    member = spec["members"][0]
    records = []
    per_solve = []
    tr = None
    deadline = time.perf_counter() + spec["seconds"]
    while not per_solve or time.perf_counter() < deadline:
        base = solve_once(spec, member, out / f"untraced{len(per_solve)}")
        base["traced"] = False
        records.append(base)
        tr = tracing.Tracer()
        tr.install()
        try:
            rec = solve_once(spec, member, out / f"traced{len(per_solve)}", tr)
        finally:
            tr.uninstall()
        rec["traced"] = True
        if rec.get("digests") != records[0].get("digests"):
            rec["problems"].append("traced artifacts differ from the untraced solve")
        if base.get("digests") != records[0].get("digests"):
            base["problems"].append("artifacts differ from an earlier solve "
                                    "of the same problem")
        records.append(rec)
        if rec["problems"] or base["problems"]:
            break
        layers, by_N = tracing.layer_metrics(tr, rec["stages"], spec["max_iters"])
        layers["cli.bytes_written"] = float(rec["bytes_written"])
        layers["solver.J_final"] = rec["J"]
        layers["solver.penalty_final"] = rec["penalty"]
        per_solve.append((layers, by_N))
    if tr is not None:
        tr.dump(spec["trace_file"])
    if not per_solve:
        return records, {}
    layers = {name: statistics.median(ls[name] for ls, _ in per_solve)
              for name in per_solve[0][0]}
    untraced = statistics.median(r["wall_s"] for r in records if not r["traced"])
    traced = statistics.median(r["wall_s"] for r in records if r["traced"])
    layers["trace.overhead_s"] = traced - untraced
    layers["trace.overhead_frac"] = (traced - untraced) / untraced
    by_N = {str(N): {name: statistics.median(bn[N][name] for _, bn in per_solve)
                     for name in per_solve[0][1][N]}
            for N in per_solve[0][1]}
    return records, {"metrics": layers, "by_N": by_N,
                     "traced_solves": len(per_solve)}


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    out = Path(spec["outdir"])
    if spec["trace"]:
        records, layers = run_traced(spec, out)
    else:
        records, layers = run_panel(spec, out), {}
    result = {
        "records": records,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    Path(argv[1]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Checks on the artifacts of one ``nsvar solve`` run.

A solve passes when it exits 0 with status ``converged`` and:

* convergence.csv has one finite row per iteration, k = 1, 2, ..., and
  I never increases within a (N, lambda) stage;
* trajectory.csv is finite with one row per node of the final grid;
* summary.json agrees with the last convergence row;
* the workload's acceptance thresholds hold.

Determinism (repeated solves give byte-identical CSVs) is checked by the
caller, which compares the digests returned here.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# Acceptance thresholds per workload, from the reference problems'
# acceptance criteria; they hold at every benchmark seed.
THRESHOLDS = {
    "penalty_ladder": {"J_max": -0.020, "end_abs_max": 5e-3},
    "kink_tracking": {"J_max": 5e-3},
}


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def stages(conv_header: list[str], conv_rows: list[list[float]]) -> list[tuple]:
    """(N, rows, last gamma) for each run of rows sharing (N, lambda)."""
    iN, ilam, igam = (conv_header.index(c) for c in ("N", "lambda", "gamma"))
    out: list[list] = []
    for row in conv_rows:
        key = (row[iN], row[ilam])
        if out and out[-1][0] == key:
            out[-1][1] += 1
            out[-1][2] = row[igam]
        else:
            out.append([key, 1, row[igam]])
    return [(int(key[0]), n, gamma) for key, n, gamma in out]


def check_solve(outdir: Path, rc: int, workload: str, final_grid: int) -> dict:
    """Check one solve's artifacts; returns problems found and key values."""
    problems: list[str] = []
    res = {"problems": problems}
    if rc != 0:
        problems.append(f"exit code {rc}")
    try:
        summary = json.loads((outdir / "summary.json").read_text())
        conv_bytes = (outdir / "convergence.csv").read_bytes()
        traj_bytes = (outdir / "trajectory.csv").read_bytes()
        conv_header, conv = _read_csv(outdir / "convergence.csv")
        traj_header, traj = _read_csv(outdir / "trajectory.csv")
    except (OSError, ValueError, IndexError) as exc:
        problems.append(f"unreadable artifacts: {exc}")
        return res
    res["digests"] = [hashlib.sha256(conv_bytes).hexdigest(),
                      hashlib.sha256(traj_bytes).hexdigest()]
    res["bytes_written"] = sum(f.stat().st_size for f in outdir.rglob("*")
                               if f.is_file())
    res.update(iterations=summary.get("iterations"), J=summary.get("J"),
               penalty=summary.get("psi", 0.0) + summary.get("phi", 0.0))

    if summary.get("status") != "converged":
        problems.append(f"status {summary.get('status')!r}")

    cols = ("k", "I", "N", "lambda", "gamma")
    if not all(c in conv_header for c in cols):
        problems.append(f"convergence.csv lacks columns {cols}")
        return res
    ik, iI, iN, ilam = (conv_header.index(c) for c in ("k", "I", "N", "lambda"))
    if len(conv) != summary.get("iterations"):
        problems.append(f"convergence.csv has {len(conv)} rows, "
                        f"summary says {summary.get('iterations')}")
    if [int(r[ik]) for r in conv] != list(range(1, len(conv) + 1)):
        problems.append("convergence.csv k is not 1, 2, ...")
    if not all(math.isfinite(v) for r in conv for v in r):
        problems.append("convergence.csv has non-finite values")
    for prev, cur in zip(conv, conv[1:]):
        if (prev[iN], prev[ilam]) == (cur[iN], cur[ilam]) and cur[iI] > prev[iI]:
            problems.append(f"I increases within a stage at k={int(cur[ik])}")
            break
    res["stages"] = stages(conv_header, conv)
    if conv and summary.get("I") != conv[-1][iI]:
        problems.append("summary I differs from the last convergence row")

    if len(traj) != final_grid or summary.get("npoints") != final_grid:
        problems.append(f"trajectory.csv has {len(traj)} rows, expected {final_grid}")
    if not all(math.isfinite(v) for r in traj for v in r):
        problems.append("trajectory.csv has non-finite values")

    limits = THRESHOLDS[workload]
    J = summary.get("J")
    if not (isinstance(J, (int, float)) and J <= limits["J_max"]):
        problems.append(f"J = {J} above {limits['J_max']}")
    if "end_abs_max" in limits and traj:
        xcols = [i for i, c in enumerate(traj_header) if c.startswith("x")]
        end = max(abs(traj[-1][i]) for i in xcols)
        if not end <= limits["end_abs_max"]:
            problems.append(f"|x(T)| = {end} above {limits['end_abs_max']}")
    return res

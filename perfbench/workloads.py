"""Seeded problem generator for the benchmark workloads.

Each workload is a family of problems.  ``generate(name, seed)`` returns
the problem file text and the ``nsvar solve`` flags for one member.
Seed 0 is the family's reference problem; any other seed draws the
family's parameters uniformly from narrow ranges around it.

The iteration count of a solve jumps by tens of percent between nearby
members, and a few members exhaust the iteration budget (penalty_ladder
member seeds 850, 853 and 863 do).  A benchmark run therefore solves a
panel of members drawn from a pool, the member seeds below the
workload's ``pool_size``, every one of which converged when the
benchmark was defined, and solves each member at least REPEATS times.
The workloads' reasons are in BENCHMARK.json.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


# Solves of one member lie a panel apart, and run.py takes the fastest after
# scaling each to a fixed machine speed: a shared machine slows every solve
# by up to 80% for seconds to minutes, and the scaling corrects only part.
REPEATS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    reference: dict            # parameter values at seed 0
    spread: dict               # half-width of the uniform draw per parameter
    problem: Callable[[dict], str]
    flags: tuple
    # panel_size * REPEATS solves must fit in BENCHMARK.json's
    # run_seconds.  A member's solve time is chaotic, with a spread of
    # ~20% over the family, so the median of a panel of 6 drawn from 40
    # members moved by ~10% between run seeds.  A pool little larger than
    # the panel makes the panels of any two run seeds share most members.
    panel_size: int
    pool_size: int

    def panel(self, seed: int) -> list[tuple[int, str]]:
        """(member seed, problem text) for the problems one run solves.

        Run seed 0 takes the first pool members, starting with the
        reference problem; other run seeds sample the pool.
        """
        if seed == 0:
            seeds = list(range(self.panel_size))
        else:
            seeds = random.Random(seed).sample(range(self.pool_size),
                                               self.panel_size)
        return [(s, self.problem(self.params(s))) for s in seeds]

    def params(self, seed: int) -> dict:
        if seed == 0:
            return dict(self.reference)
        rng = random.Random(seed)
        return {k: v + rng.uniform(-self.spread[k], self.spread[k])
                for k, v in sorted(self.reference.items())}

    def _flag(self, name: str) -> str:
        return self.flags[self.flags.index(name) + 1]

    def final_grid(self) -> int:
        return int(self._flag("--grid").split(",")[-1])

    def max_iters(self) -> int:
        return int(self._flag("--max-iters"))


def _num(v: float) -> str:
    # repr round-trips exactly through the problem-file parser
    return repr(float(v))


def _penalty_ladder(p: dict) -> str:
    return (
        "n = 2\n"
        "T = 1.0\n"
        "x0 = 0, 0\n"
        "xT = 0, 0\n"
        f"integrand = max(pow(z1, 2) - pow(x1, 2) - {_num(p['c'])} * t * x1, x2)\n"
        "initial_x = 0, 0\n"
        "initial_z = 0, 0\n"
        "lambda0 = 20\n"
    )


def _kink_tracking(p: dict) -> str:
    return (
        "n = 2\n"
        "T = 1.0\n"
        "x0 = -1, 1\n"
        f"integrand = abs(x1 - max(t - {_num(p['a'])}, 0))"
        f" + abs(x2 - sin({_num(p['w'])} * t))\n"
        "initial_x = 2 * t - 1, 1 - t\n"
    )


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="penalty_ladder",
            reference={"c": 2.0},
            spread={"c": 0.02},
            problem=_penalty_ladder,
            flags=("--grid", "11,21", "--lambda0", "20", "--lambda-factor", "5",
                   "--lambda-max", "300", "--eps", "9e-3",
                   "--constraint-tol", "5e-5", "--max-iters", "400"),
            panel_size=6,
            pool_size=8,
        ),
        Workload(
            name="kink_tracking",
            reference={"a": 0.5, "w": 6.0},
            spread={"a": 0.02, "w": 0.1},
            problem=_kink_tracking,
            flags=("--grid", "51,201,401", "--max-iters", "300"),
            panel_size=5,
            pool_size=6,
        ),
    )
}


def generate(name: str, seed: int) -> tuple[str, list[str]]:
    """Problem file text and solve flags for one seeded workload member."""
    w = WORKLOADS[name]
    return w.problem(w.params(seed)), list(w.flags)

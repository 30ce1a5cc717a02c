"""Shared seeded instance suites for the module tests and the acceptance run,
and a switch that runs the exact solvers with and without their root check."""

from collections import Counter
from contextlib import contextmanager

from scensched import dp_minavg
from scensched.generators import gen_random
from scensched.model import ObjectiveKind, Schedule, evaluate


@contextmanager
def solver_paths(root_check=True):
    """Tallies the paths the exact solvers take inside the block: "root" when
    the greedy schedule meets the root bound and is returned at once,
    "search" when the depth-first descent under a falling cap runs.  With
    ``root_check=False`` the check never passes, and the incumbent is the
    schedule with every job on machine 0 in place of the greedy one.  The
    descent starts at its value less one, so every solve searches, from well
    above the optimum, and finds a leaf unless that schedule is optimal."""
    seen = Counter()
    shipped, shipped_bounds = dp_minavg._meets_root, dp_minavg._bounds

    def spy(ub, root):
        path = "root" if root_check and shipped(ub, root) else "search"
        seen[path] += 1
        return path == "root"

    def all_on_one(inst):
        *_, lb = shipped_bounds(inst)
        assign = (0,) * inst.n
        return assign, evaluate(inst, Schedule(assign), ObjectiveKind.MINMAX).per_scenario, lb

    dp_minavg._meets_root = spy
    if not root_check:
        dp_minavg._bounds = all_on_one
    try:
        yield seen
    finally:
        dp_minavg._meets_root, dp_minavg._bounds = shipped, shipped_bounds


def on_both_paths(check, reach_both=True):
    """Runs ``check()`` with the root check and again without it (and from
    the all-on-one incumbent, see :func:`solver_paths`), so that the search
    stays under test on inputs the greedy schedule already solves.
    With the check on, a suite must reach both paths (unless ``reach_both``
    is false, for a single drawn example); without it, every solve must
    search."""
    for root_check in (True, False):
        with solver_paths(root_check) as seen:
            check()
        if root_check and reach_both:
            assert set(seen) == {"root", "search"}, seen
        if not root_check:
            assert set(seen) == {"search"}, seen


def weighted_suite(count=300):
    """General instances: n <= 8, m <= 3, K <= 3, weights <= 6."""
    return [
        gen_random(3 + i % 6, 2 + i % 2, 1 + i % 3, w_max=6, density=0.6, seed=1000 + i)
        for i in range(count)
    ]


def unit_suite(count=300):
    """Unit-weight instances: n <= 10, m <= 4, K <= 3."""
    return [
        gen_random(4 + i % 7, 2 + i % 3, 1 + i % 3, w_max=1, density=0.6, seed=2000 + i)
        for i in range(count)
    ]


def two_scenario_suite(count=200):
    """K = 2 instances: n <= 10, m <= 4, weights <= 9."""
    return [
        gen_random(4 + i % 7, 2 + i % 3, 2, w_max=9, density=0.5, seed=3000 + i)
        for i in range(count)
    ]


def k2_unit_suite(count=300):
    """Unit-weight K <= 2 instances: n <= 8, m <= 3."""
    return [
        gen_random(4 + i % 5, 2 + i % 2, 1 + i % 2, w_max=1, density=0.6, seed=4000 + i)
        for i in range(count)
    ]


def small_suite(count=60):
    """Instances with n <= 7 for full-enumeration properties."""
    return [
        gen_random(3 + i % 5, 2 + i % 2, 1 + i % 3, w_max=5, density=0.6, seed=5000 + i)
        for i in range(count)
    ]

"""Shared seeded instance suites for the module tests and the acceptance run,
and a switch that runs the exact solvers from a far worse incumbent."""

from collections import Counter
from contextlib import contextmanager

from pytest import MonkeyPatch

from scensched import dp_minavg
from scensched.generators import gen_random
from scensched.model import ObjectiveKind, Schedule, evaluate


@contextmanager
def solver_paths():
    """Runs the exact solvers inside the block from the schedule with every
    job on machine 0 in place of the greedy one.  The descent starts at its
    value less one, so it searches from well above the optimum, and finds a
    leaf unless that schedule is optimal."""
    shipped = dp_minavg._bounds

    def all_on_one(inst):
        *_, lb = shipped(inst)
        assign = (0,) * inst.n
        return assign, evaluate(inst, Schedule(assign), ObjectiveKind.MINMAX).per_scenario, lb

    with MonkeyPatch.context() as mp:
        mp.setattr(dp_minavg, "_bounds", all_on_one)
        yield


def on_both_paths(check, reach_both=True):
    """Runs ``check()`` with the greedy incumbent, then again from the
    all-on-one one (:func:`solver_paths`), so that the descent stays under
    test on inputs the greedy schedule already solves.  With the greedy
    incumbent a suite must reach both ends of the descent (unless
    ``reach_both`` is false, for a single drawn example): a solve that finds
    a leaf, whose witness ``_replay`` rebuilds, and one that finds none."""
    calls = Counter()

    def counted(name, function):
        def spy(*args):
            calls[name] += 1
            return function(*args)
        return spy

    with MonkeyPatch.context() as mp:
        mp.setattr(dp_minavg, "_bounds", counted("solves", dp_minavg._bounds))
        mp.setattr(dp_minavg, "_replay", counted("leaves", dp_minavg._replay))
        check()
    if reach_both:
        assert 0 < calls["leaves"] < calls["solves"], calls
    with solver_paths():
        check()


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

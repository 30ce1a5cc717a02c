"""Ideal scheduler for two scenarios.

With K = 2 there is always one schedule that is optimal for both scenarios
simultaneously, and it can be built in one linear pass over the jobs in
canonical order.  The pass maintains, per scenario, a 0/1 vector of relative
loads over a *logical* machine order: 0 marks the least-loaded machines of
that scenario.  Jobs appearing in exactly one scenario fill that scenario's
zeros from the left; jobs in both scenarios fill the shared right end (the
construction keeps the highest zero position of the two vectors aligned).
When a vector becomes all ones it is reset to zero and the logical machine
order is permuted so the other vector reads (1,...,1,0,...,0) again.

Each vector's zeros are one run of logical machines, ``mu[k]..nu[k]``, so
the pass keeps only those two ends: the vector is all ones when
``mu[k] > nu[k]``.  The permutation is bookkeeping only -- placed jobs never
move; the emitted schedule is in original machine labels.  Jobs in neither
scenario go to the current logical machine 1 and cost nothing anywhere.

Each job turns at most one entry of a vector to one, so a reset needs m <= n
jobs; until the first one the permutation is the identity ``range(m)``, and
only a reset builds it as a list.  So the pass takes O(n) time and memory
whatever m is.
"""

from __future__ import annotations

from .model import Instance, Schedule


def solve_two_scenarios(inst: Instance) -> Schedule:
    """A schedule meeting both scenarios' standalone optima (requires K=2)."""
    if inst.K != 2:
        raise ValueError(f"two-scenario solver requires K=2, got K={inst.K}")
    m = inst.m
    mu = [0, 0]  # lowest zero entry per scenario (0-based)
    nu = [m - 1, m - 1]  # highest zero entry per scenario
    perm = range(m)  # logical index -> physical machine label
    assign = [0] * inst.n

    for j in range(inst.n):
        ks = inst.job_scenarios[j]
        if len(ks) == 2:
            assert nu[0] == nu[1], "aligned right ends lost -- reset rule violated"
            l = nu[0]
            nu[0] -= 1
            nu[1] -= 1
        elif len(ks) == 1:
            k = ks[0]
            l = mu[k]
            mu[k] += 1
        else:
            l = 0  # cost-neutral job; no state update
        assign[j] = perm[l]
        for k in (0, 1):
            if mu[k] > nu[k]:
                # scenario k's vector is all ones: clear it and renumber the
                # machines so that the other vector becomes (1,...,1,0,...,0).
                # Its ones occupy the prefix [0, mu_o) and the suffix
                # (nu_o, m); move both blocks to the front, preserving
                # relative order within each block.
                o = 1 - k
                new_order = (
                    *range(mu[o]), *range(nu[o] + 1, m), *range(mu[o], nu[o] + 1)
                )
                perm = [perm[i] for i in new_order]
                mu[k], nu[k] = 0, m - 1
                mu[o], nu[o] = mu[o] + (m - 1 - nu[o]), m - 1

    return Schedule(tuple(assign))

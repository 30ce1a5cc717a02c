"""Instance constructions: graph-based gadgets, the three-way partition
family, unsplittable scenario matrices, and seeded random instances.

Counts, vertices, matrix entries and partition numbers must be ints, not
bools or floats (checked with ``type(x) is int``, as :class:`.model.Instance`
does); anything else raises ValueError rather than being coerced.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from .model import (
    MAX_MEMBERSHIPS, MAX_ROWS, MAX_SUBSET_ROWS, GuardExceeded, Instance, _Frozen, make_instance,
)

if TYPE_CHECKING:
    from fractions import Fraction


class Graph(_Frozen):
    """A simple undirected graph on vertices 0..n_vertices-1."""

    __slots__ = _fields = ("n_vertices", "edges")

    def __init__(self, n_vertices: int, edges: tuple[tuple[int, int], ...]) -> None:
        if type(n_vertices) is not int:
            raise ValueError(f"vertex count {n_vertices!r} is not an integer")
        if n_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        if type(edges) is not tuple:
            raise ValueError(f"edges must be a tuple, got {type(edges).__name__}")
        seen = set()
        for edge in edges:
            if type(edge) is not tuple or len(edge) != 2:
                raise ValueError(f"edge {edge!r} is not a pair tuple")
            u, v = edge
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge ({u!r},{v!r}) has an end that is not an integer")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise ValueError(f"edge ({u},{v}) out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
        object.__setattr__(self, "n_vertices", n_vertices)
        object.__setattr__(self, "edges", edges)


class ScenarioMatrix(_Frozen):
    """0/1 matrix with jobs as rows and scenarios as columns."""

    __slots__ = _fields = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]) -> None:
        if type(rows) is not tuple:
            raise ValueError(f"rows must be a tuple, got {type(rows).__name__}")
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        for r in rows:
            if type(r) is not tuple:
                raise ValueError(f"row {r!r} is not a tuple")
            if len(r) != width:
                raise ValueError("ragged matrix")
            if any(type(v) is not int or v not in (0, 1) for v in r):
                raise ValueError("entries must be 0 or 1")
        object.__setattr__(self, "rows", rows)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0])

    def column_sums(self) -> tuple[int, ...]:
        return tuple(sum(r[c] for r in self.rows) for c in range(self.n_cols))

    def uniform_column_sum(self) -> int | None:
        sums = set(self.column_sums())
        return sums.pop() if len(sums) == 1 else None


# ---------------------------------------------------------------------------
# Graph gadgets: one unit job per vertex, one two-job scenario per edge.
# ---------------------------------------------------------------------------


def _check_size(family: str, jobs: int, memberships: int) -> None:
    """GuardExceeded when an instance of ``jobs`` jobs and ``memberships``
    scenario memberships would hold more than ``model.MAX_MEMBERSHIPS`` of
    them together; called before anything is built."""
    if jobs + memberships > MAX_MEMBERSHIPS:
        raise GuardExceeded(
            f"{family} instance guard: {jobs} jobs and {memberships} memberships "
            f"exceed {MAX_MEMBERSHIPS}"
        )


def gen_coloring(g: Graph, m: int) -> Instance:
    """Coloring gadget: the max objective is 2 iff the graph is m-colorable.

    An edgeless graph yields one empty scenario (the model requires K >= 1).
    More than ``model.MAX_MEMBERSHIPS`` jobs and memberships together (one job
    per vertex, two memberships per edge) raise GuardExceeded before the
    instance is built.
    """
    _check_size("graph", g.n_vertices, 2 * len(g.edges))
    scenarios = [list(e) for e in g.edges] or [[]]
    return make_instance(m, [1] * g.n_vertices, scenarios)


def gen_maxcut(g: Graph) -> Instance:
    """Cut gadget on two machines: a cut edge's scenario costs 2, an uncut
    one costs 3, so the sum objective equals 3|E| minus the cut size."""
    return gen_coloring(g, 2)


# ---------------------------------------------------------------------------
# Three-way partition family (three scenarios, geometric weight blocks)
# ---------------------------------------------------------------------------

_WHITE_PROFILES = ((0, 1), (1, 2), (0, 2))


def partition3_block_weights(a: list[int], m: int) -> list[int]:
    """The geometric block weights (4*m*n*a_max)^(n-j), j = 1..n."""
    n = len(a)
    base = 4 * m * n * max(a)
    return [base ** (n - j) for j in range(1, n + 1)]


def gen_partition3(a: list[int], m: int) -> Instance:
    """Three-scenario family encoding a three-way number partition.

    Block j holds three "white" jobs of weight Q_j on pair profiles, three
    "black" jobs of weight Q_j + a_j on the same profiles, and 2(m-2) "gray"
    jobs of weight Q_j in all three scenarios, so every scenario meets every
    block in exactly 2m jobs.  More than ``model.MAX_MEMBERSHIPS`` jobs and
    memberships together (2m + 2 jobs and 6m memberships per block) raise
    GuardExceeded before the block weights are computed.
    """
    if type(m) is not int or m < 2:
        raise ValueError("need at least two machines")
    if not a or any(type(v) is not int or v < 1 for v in a):
        raise ValueError("need a nonempty list of positive integers")
    n = len(a)
    _check_size("partition3", n * (2 * m + 2), n * 6 * m)
    q = partition3_block_weights(a, m)
    for j in range(n - 1):
        assert q[j] > q[j + 1] + a[j + 1], "block weights must dominate later blocks"

    weights: list[int] = []
    profiles: list[tuple[int, ...]] = []
    for j in range(n):
        for prof in _WHITE_PROFILES:
            weights.append(q[j])
            profiles.append(prof)
        for prof in _WHITE_PROFILES:
            weights.append(q[j] + a[j])
            profiles.append(prof)
        for _ in range(2 * (m - 2)):
            weights.append(q[j])
            profiles.append((0, 1, 2))
    scenarios = [
        [job for job, prof in enumerate(profiles) if k in prof] for k in range(3)
    ]
    return make_instance(m, weights, scenarios)


def partition3_tight_bound(a: list[int], m: int) -> Fraction:
    """Max-objective lower bound met exactly by yes-instances (machines 1, 2;
    gray machines contribute equally everywhere and are not counted here)."""
    from fractions import Fraction

    q = partition3_block_weights(a, m)
    total = sum(
        (8 * (j + 1) - 2) * q[j] + (4 * (j + 1) - 2) * a[j] for j in range(len(a))
    )
    return total + Fraction(sum(a), 3)


# ---------------------------------------------------------------------------
# Unsplittable matrices
# ---------------------------------------------------------------------------


def gen_unsplittable(q: int, t: int) -> ScenarioMatrix:
    """The recursive unsplittable family: tq columns, uniform column sums,
    rows and column sums both monic degree-t polynomials in q.

    Base (t=2): an identity-next-to-ones block over q-1 copies of
    (ones | ones-minus-identity).  Step: complement the previous matrix,
    append a ones column block, and pad with enough (ones | ones-minus-
    identity) copies to restore uniform column sums; the copy count that
    balances the columns is exactly the previous matrix's column sum.
    A level that would have more than ``model.MAX_ROWS`` rows raises
    GuardExceeded before it is built.
    """
    if type(q) is not int or type(t) is not int:
        raise ValueError("q and t must be integers")
    if q < 2 or t < 2:
        raise ValueError("need q >= 2 and t >= 2")

    def guard(n_rows: int, level: int) -> None:
        if n_rows > MAX_ROWS:
            raise GuardExceeded(f"matrix would grow past {MAX_ROWS} rows at level {level}")

    guard(q * q, 2)
    identity = [[1 if i == j else 0 for j in range(q)] for i in range(q)]
    ones = [[1] * q for _ in range(q)]
    hole = [[1 - identity[i][j] for j in range(q)] for i in range(q)]

    rows = [identity[i] + ones[i] for i in range(q)]
    for _ in range(q - 1):
        rows.extend(ones[i] + hole[i] for i in range(q))

    for level in range(3, t + 1):
        width = (level - 1) * q
        colsum = sum(r[0] for r in rows)
        guard(len(rows) + colsum * q, level)
        complement = [[1 - v for v in r] for r in rows]
        new_rows = [r + [1] * q for r in complement]
        for _ in range(colsum):
            new_rows.extend([1] * width + hole[i] for i in range(q))
        rows = new_rows

    matrix = ScenarioMatrix(tuple(tuple(r) for r in rows))
    assert matrix.uniform_column_sum() is not None, "columns failed to balance"
    return matrix


def is_unsplittable(matrix: ScenarioMatrix) -> bool:
    """True iff no proper nonempty row subset has uniform column sums.

    A matrix of more than ``model.MAX_SUBSET_ROWS`` rows raises GuardExceeded.
    """
    r = matrix.n_rows
    if r > MAX_SUBSET_ROWS:
        raise GuardExceeded(
            f"{r} rows exceed the 2^rows subset-check guard of {MAX_SUBSET_ROWS}"
        )
    cols = matrix.n_cols
    for mask in range(1, (1 << r) - 1):
        sums = [0] * cols
        for i in range(r):
            if mask & (1 << i):
                row = matrix.rows[i]
                for c in range(cols):
                    sums[c] += row[c]
        if len(set(sums)) == 1:
            return False
    return True


def matrix_to_instance(matrix: ScenarioMatrix, eps_denominator: int = 100) -> Instance:
    """Two-machine instance from a uniform-column matrix.

    One weight-D job per row (D = eps_denominator), plus column-sum many
    jobs of weight D-1 in every scenario; this realizes "weight 1 - eps"
    extras with eps = 1/D in integer weights.
    """
    if type(eps_denominator) is not int:
        raise ValueError(f"eps denominator {eps_denominator!r} is not an integer")
    if eps_denominator < 2:
        raise ValueError("eps denominator must be at least 2")
    c = matrix.uniform_column_sum()
    if c is None:
        raise ValueError("matrix columns must have a uniform sum")
    d = eps_denominator
    weights = [d] * matrix.n_rows + [d - 1] * c
    scenarios = []
    for col in range(matrix.n_cols):
        members = [i for i in range(matrix.n_rows) if matrix.rows[i][col]]
        members.extend(range(matrix.n_rows, matrix.n_rows + c))
        scenarios.append(members)
    return make_instance(2, weights, scenarios)


# ---------------------------------------------------------------------------
# Seeded random instances
# ---------------------------------------------------------------------------


def _check_random_args(n, m, K, w_max, density) -> None:
    """gen_random's argument checks; ValueError names the first one that fails."""
    if any(type(x) is not int for x in (n, m, K, w_max)):
        raise ValueError("n, m, K and w_max must be integers")
    if n < 1 or m < 1 or K < 1:
        raise ValueError("n, m, K must all be at least 1")
    if w_max < 1:
        raise ValueError("w_max must be at least 1")
    if type(density) is bool or not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")


def gen_random(
    n: int, m: int, K: int, *, w_max: int = 9, density: float = 0.5, seed: int = 0
) -> Instance:
    """Random instance: weights uniform on 1..w_max, independent memberships.

    Draw order is pinned (all weights first, then memberships job-major), so
    equal parameters give identical instances.  More than
    ``model.MAX_MEMBERSHIPS`` memberships to draw (n*K) raise GuardExceeded
    before the first draw.
    """
    _check_random_args(n, m, K, w_max, density)
    if n * K > MAX_MEMBERSHIPS:
        raise GuardExceeded(
            f"random instance guard: n*K = {n * K} memberships exceed {MAX_MEMBERSHIPS}"
        )
    rng = random.Random(seed)
    weights = [rng.randint(1, w_max) for _ in range(n)]
    members: list[list[int]] = [[] for _ in range(K)]
    for j in range(n):
        for k in range(K):
            if rng.random() < density:
                members[k].append(j)
    return make_instance(m, weights, members)

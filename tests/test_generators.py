import pytest

from scensched import generators
from scensched.generators import (
    Graph,
    ScenarioMatrix,
    gen_coloring,
    gen_maxcut,
    gen_partition3,
    gen_random,
    gen_unsplittable,
    is_unsplittable,
    matrix_to_instance,
    partition3_block_weights,
    partition3_tight_bound,
)
from scensched.model import MAX_WEIGHT_DIGITS, GuardExceeded, ObjectiveKind, disbalance
from scensched.oracle import brute_force


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(2, ((0, 2),))
    with pytest.raises(ValueError):
        Graph(2, ((0, 1), (1, 0)))


def test_coloring_single_edge():
    inst = gen_coloring(Graph(2, ((0, 1),)), 2)
    assert brute_force(inst, ObjectiveKind.MINMAX).best_value == 2


def test_coloring_triangle_not_two_colorable():
    inst = gen_coloring(Graph(3, ((0, 1), (1, 2), (0, 2))), 2)
    assert brute_force(inst, ObjectiveKind.MINMAX).best_value == 3


def test_coloring_bipartite_graphs_cost_two():
    path = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
    cycle = Graph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)))
    for g in (path, cycle):
        inst = gen_coloring(g, 2)
        assert brute_force(inst, ObjectiveKind.MINMAX).best_value == 2


def test_coloring_edgeless_graph_yields_empty_scenario():
    inst = gen_coloring(Graph(3, ()), 2)
    assert inst.K == 1
    assert brute_force(inst, ObjectiveKind.MINAVG).best_value == 0


def test_maxcut_values():
    assert brute_force(gen_maxcut(Graph(2, ((0, 1),))), ObjectiveKind.MINAVG).best_value == 2
    triangle = gen_maxcut(Graph(3, ((0, 1), (1, 2), (0, 2))))
    # 3|E| - maxcut = 9 - 2
    assert brute_force(triangle, ObjectiveKind.MINAVG).best_value == 7


def test_maxcut_objective_is_three_e_minus_cut():
    g = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2)))
    inst = gen_maxcut(g)
    best = brute_force(inst, ObjectiveKind.MINAVG).best_value
    maxcut = 0
    for mask in range(1 << g.n_vertices):
        cut = sum(1 for u, v in g.edges if ((mask >> u) ^ (mask >> v)) & 1)
        maxcut = max(maxcut, cut)
    assert best == 3 * len(g.edges) - maxcut


def test_partition3_structure():
    for m in (2, 3):
        a = [1, 2, 1]
        inst = gen_partition3(a, m)
        assert inst.n == (2 * m + 2) * len(a)
        assert inst.K == 3
        q = partition3_block_weights(a, m)
        # block j = jobs with weight q[j] or q[j] + a[j]; scenario meets each in 2m jobs
        for j, qj in enumerate(q):
            block = {
                job
                for job in range(inst.n)
                if inst.weights[job] in (qj, qj + a[j])
            }
            assert len(block) == 2 * m + 2
            for k in range(3):
                assert len(block & inst.scenarios[k]) == 2 * m


def test_partition3_weight_sequence():
    assert partition3_block_weights([1, 1, 1], 2) == [576, 24, 1]
    assert partition3_tight_bound([1, 1, 1], 2) == 3833


def test_partition3_validation():
    with pytest.raises(ValueError):
        gen_partition3([], 2)
    with pytest.raises(ValueError):
        gen_partition3([0, 1], 2)
    with pytest.raises(ValueError):
        gen_partition3([1, 1], 1)


def test_unsplittable_base_matrix():
    matrix = gen_unsplittable(2, 2)
    assert matrix.rows == (
        (1, 0, 1, 1),
        (0, 1, 1, 1),
        (1, 1, 0, 1),
        (1, 1, 1, 0),
    )
    assert matrix.column_sums() == (3, 3, 3, 3)


def test_unsplittable_shapes_and_column_sums():
    for q in (2, 3, 4):
        m2 = gen_unsplittable(q, 2)
        assert m2.n_cols == 2 * q
        assert m2.n_rows == q * q
        assert m2.uniform_column_sum() == q * q - q + 1
        m3 = gen_unsplittable(q, 3)
        assert m3.n_cols == 3 * q
        assert m3.n_rows == q**3 + q
        assert m3.uniform_column_sum() == q**3 - q**2 + 2 * q - 1


def test_unsplittable_check_on_generated_matrices():
    assert is_unsplittable(gen_unsplittable(2, 2))
    assert is_unsplittable(gen_unsplittable(3, 2))
    assert is_unsplittable(gen_unsplittable(2, 3))


def test_unsplittable_guard_runs_before_a_level_is_built(monkeypatch):
    with pytest.raises(GuardExceeded):
        gen_unsplittable(80, 2)  # a base of 6400 rows
    assert gen_unsplittable(70, 2).n_rows == 4900
    with pytest.raises(GuardExceeded):
        gen_unsplittable(30, 3)  # 900 rows, then 900 + 871 * 30
    monkeypatch.setattr(generators, "MAX_ROWS", 10)
    assert gen_unsplittable(2, 3).n_rows == 10
    monkeypatch.setattr(generators, "MAX_ROWS", 9)
    with pytest.raises(GuardExceeded):
        gen_unsplittable(2, 3)
    monkeypatch.setattr(generators, "MAX_ROWS", 3)
    with pytest.raises(GuardExceeded):
        gen_unsplittable(2, 2)


def test_unsplittable_check_counterexamples():
    all_ones = ScenarioMatrix(((1, 1), (1, 1)))
    assert not is_unsplittable(all_ones)
    with pytest.raises(GuardExceeded):
        is_unsplittable(gen_unsplittable(5, 2))


def test_matrix_to_instance_shape():
    inst = matrix_to_instance(gen_unsplittable(2, 2), 100)
    assert inst.n == 7
    assert inst.K == 4
    assert inst.weights == (100,) * 4 + (99,) * 3


def test_matrix_to_instance_optimum_separates_rows():
    inst = matrix_to_instance(gen_unsplittable(2, 2), 100)
    res = brute_force(inst, ObjectiveKind.MINAVG)
    sides = set(res.best_schedule.assignment[:4])
    extra_sides = set(res.best_schedule.assignment[4:])
    assert len(sides) == 1 and len(extra_sides) == 1 and sides != extra_sides
    # heavy rows all precede the extras, forcing a prefix spread of the column sum
    assert disbalance(inst, res.best_schedule).full_f == 3


def test_matrix_to_instance_validation():
    with pytest.raises(ValueError):
        matrix_to_instance(ScenarioMatrix(((1, 0), (1, 1))), 100)
    with pytest.raises(ValueError):
        matrix_to_instance(gen_unsplittable(2, 2), 1)


def test_gen_random_determinism_and_density_one():
    a = gen_random(8, 3, 3, w_max=9, density=0.5, seed=42)
    b = gen_random(8, 3, 3, w_max=9, density=0.5, seed=42)
    assert a == b
    full = gen_random(5, 2, 2, w_max=1, density=1.0, seed=0)
    assert all(s == frozenset(range(5)) for s in full.scenarios)


def test_gen_random_validation():
    with pytest.raises(ValueError):
        gen_random(0, 1, 1, seed=0)
    with pytest.raises(ValueError):
        gen_random(1, 1, 1, density=0.0, seed=0)
    with pytest.raises(ValueError):
        gen_random(1, 1, 1, w_max=0, seed=0)


def test_gen_random_membership_guard_runs_before_the_first_draw(monkeypatch):
    monkeypatch.setattr(generators, "random", None)  # any draw would fail
    with pytest.raises(GuardExceeded, match=r"^random instance guard: n\*K = 1000000 "):
        gen_random(500_000, 2, 2)
    with pytest.raises(ValueError, match="density"):  # the argument checks come first
        gen_random(500_000, 2, 2, density=0)
    monkeypatch.undo()
    monkeypatch.setattr(generators, "MAX_MEMBERSHIPS", 6)
    assert gen_random(3, 2, 2).K == 2  # n*K = MAX_MEMBERSHIPS is admitted
    with pytest.raises(GuardExceeded, match=r"n\*K = 7 memberships exceed 6$"):
        gen_random(7, 2, 1)


def test_graph_and_partition3_size_guards_run_before_building(monkeypatch):
    monkeypatch.setattr(generators, "make_instance", None)  # any build would fail
    with pytest.raises(GuardExceeded, match=(
            r"^graph instance guard: 200000000 jobs and 0 memberships exceed 100000$")):
        gen_maxcut(Graph(200_000_000, ()))
    with pytest.raises(GuardExceeded, match=(
            r"^partition3 instance guard: 600000006 jobs and 1800000000 memberships ")):
        gen_partition3([1, 1, 1], 100_000_000)
    with pytest.raises(ValueError, match="positive"):  # the argument checks come first
        gen_partition3([0] * 100_000, 2)
    monkeypatch.undo()
    # a triangle is 3 jobs and 6 memberships; p3-36 is 36 jobs and 72
    monkeypatch.setattr(generators, "MAX_MEMBERSHIPS", 9)
    assert gen_coloring(Graph(3, ((0, 1), (1, 2), (0, 2))), 2).n == 3
    with pytest.raises(GuardExceeded, match=r"4 jobs and 6 memberships exceed 9$"):
        gen_coloring(Graph(4, ((0, 1), (1, 2), (2, 3))), 2)
    monkeypatch.setattr(generators, "MAX_MEMBERSHIPS", 108)
    assert gen_partition3([10, 11, 12, 13, 14, 15], 2).n == 36
    with pytest.raises(GuardExceeded, match=r"42 jobs and 84 memberships exceed 108$"):
        gen_partition3([10, 11, 12, 13, 14, 15, 16], 2)


def test_partition3_weight_guard_admits_the_largest_weight_it_can_write(monkeypatch):
    # ones on two machines: the largest weight is (8n)^(n-1) + 1, and n = 1092
    # is the largest n whose weight has at most MAX_WEIGHT_DIGITS digits
    assert (8 * 1092) ** 1091 + 1 < 10 ** MAX_WEIGHT_DIGITS <= (8 * 1093) ** 1092 + 1
    inst = gen_partition3([1] * 1092, 2)
    assert len(str(max(inst.weights))) == MAX_WEIGHT_DIGITS
    monkeypatch.setattr(generators, "partition3_block_weights", None)  # no weight is built
    with pytest.raises(GuardExceeded, match=(
            r"^partition3 weight guard: the largest weight has about 4305 digits, "
            r"more than 4300$")):
        gen_partition3([1] * 1093, 2)
    # one block: the largest weight is 1 + a_1 = 10^4300, one digit too many
    with pytest.raises(GuardExceeded, match="about 4301 digits"):
        gen_partition3([10 ** MAX_WEIGHT_DIGITS - 1], 2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: gen_partition3([True], 2),
        lambda: gen_partition3([1, 2], 2.0),
        lambda: Graph(True, ()),
        lambda: Graph(3, ((0, True),)),
        lambda: ScenarioMatrix(((True, 1.0),)),
        lambda: ScenarioMatrix(((1, 0), (0, 1.0))),
        lambda: gen_random(True, 2, 1),
        lambda: gen_random(3.0, 2, 1),
        lambda: gen_random(3, 2, 1, w_max=2.5),
        lambda: gen_random(3, 2, 1, density=True),
        lambda: gen_unsplittable(2.0, 2),
        lambda: gen_unsplittable(2, 2.0),
        lambda: matrix_to_instance(gen_unsplittable(2, 2), 100.0),
    ],
    ids=[
        "partition3-bool-number", "partition3-float-m", "graph-bool-vertices",
        "graph-bool-edge-end", "matrix-bool-and-float", "matrix-float",
        "random-bool-n", "random-float-n", "random-float-w-max", "random-bool-density",
        "unsplittable-float-q", "unsplittable-float-t", "matrix-to-instance-float-denominator",
    ],
)
def test_generators_reject_bools_and_floats(build):
    # a bool or float is rejected, never coerced to an int
    with pytest.raises(ValueError):
        build()


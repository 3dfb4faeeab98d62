import pytest
from hypothesis import given, settings, strategies as st

from ultrafraisse.balltree import (
    BallTree,
    NowhereDenseFailure,
    NowhereDenseWitness,
    ball_quotients,
    factoring_level,
    from_sequence,
    is_uniformly_nowhere_dense,
    u_metric,
    validate_witness,
)
from ultrafraisse.sequences import InverseSequence
from ultrafraisse.spaces import FiniteSpace, Surjection

import oracles
from oracles import (
    ball,
    check_axioms,
    children,
    descendants,
    leafset,
    limit_threads,
    nowhere_dense_to_uniform,
    random_tree,
    thread_embedding,
)


def seq_125():
    a = FiniteSpace("a", ("a0",))
    b = FiniteSpace("b", ("b0", "b1"))
    c = FiniteSpace("c", ("c0", "c1", "c2", "c3", "c4"))
    return InverseSequence(
        (a, b, c),
        (
            Surjection(b, a, {"b0": "a0", "b1": "a0"}),
            Surjection(c, b, {"c0": "b0", "c1": "b1", "c2": "b1", "c3": "b1", "c4": "b0"}),
        ),
    )


def test_root_level_must_be_singleton():
    two = FiniteSpace("two", ("a", "b"))
    with pytest.raises(ValueError, match="single ball"):
        BallTree(levels=(two, two), parents=(Surjection(two, two, {"a": "a", "b": "b"}),))


def test_metric_on_bitstrings(tree_b3):
    assert u_metric(tree_b3, "001", "000") == 2
    assert u_metric(tree_b3, "000", "000") == 3
    assert u_metric(tree_b3, "100", "011") == 0
    with pytest.raises(ValueError, match="unknown"):
        u_metric(tree_b3, "777", "000")


def test_balls(tree_b3):
    assert ball(tree_b3, "010", 0) == frozenset(tree_b3.points)
    assert ball(tree_b3, "010", 3) == frozenset({"010"})
    assert ball(tree_b3, "010", 1) == frozenset({"000", "001", "010", "011"})


def test_axioms_hold_on_binary_fixture(tree_b3):
    assert check_axioms(tree_b3).ok


def test_triangle_law_is_strict_somewhere(tree_b3):
    # the minimum in the triangle law is actually attained strictly
    pts = tree_b3.points
    strict = [
        (y, x, z)
        for y in pts
        for x in pts
        for z in pts
        if u_metric(tree_b3, y, z) > min(u_metric(tree_b3, y, x), u_metric(tree_b3, x, z))
    ]
    assert strict


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_axioms_hold_on_random_trees(seed):
    tree = random_tree(seed, max_depth=4, max_points=24)
    assert check_axioms(tree).ok


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_quotient_threads_closed_under_compatibility(seed):
    import itertools

    tree = random_tree(seed, max_depth=3, max_points=10)
    seq = ball_quotients(tree)
    threads = set(limit_threads(seq))
    compatible = {
        tup
        for tup in itertools.product(*[sp.points for sp in seq.spaces])
        if all(seq.steps[a](tup[a + 1]) == tup[a] for a in range(seq.length))
    }
    assert threads == compatible


def test_ball_quotients_reads_levels(tree_k4):
    seq = ball_quotients(tree_k4)
    assert [len(sp) for sp in seq.spaces] == [1, 2, 4]
    assert len(limit_threads(seq)) == len(tree_k4.points)


def test_roundtrip_from_sequence(tree_b3):
    rebuilt = from_sequence(ball_quotients(tree_b3))
    assert rebuilt.depth == tree_b3.depth
    for a in range(tree_b3.depth + 1):
        assert rebuilt.levels[a].points == tree_b3.levels[a].points
    for a in range(tree_b3.depth):
        assert rebuilt.parents[a].mapping == tree_b3.parents[a].mapping


def test_from_sequence_prepends_root():
    b = FiniteSpace("b", ("b0", "b1"))
    c = FiniteSpace("c", ("c0", "c1", "c2"))
    seq = InverseSequence((b, c), (Surjection(c, b, {"c0": "b0", "c1": "b1", "c2": "b1"}),))
    tree = from_sequence(seq)
    assert tree.depth == 2
    assert len(tree.levels[0]) == 1
    assert tree.levels[1].points == ("b0", "b1")


def test_from_sequence_singleton():
    a = FiniteSpace("a", ("a0",))
    seq = InverseSequence((a, a), (Surjection(a, a, {"a0": "a0"}),))
    tree = from_sequence(seq)
    assert tree.points == ("a0",)


def test_from_sequence_metric_matches_tuple_agreement():
    seq = seq_125()
    tree = from_sequence(seq)
    threads = {t[-1]: t for t in limit_threads(ball_quotients(tree))}
    for p in tree.points:
        for q in tree.points:
            t1, t2 = threads[p], threads[q]
            agree = max(i for i in range(tree.depth + 1) if t1[i] == t2[i])
            assert u_metric(tree, p, q) == agree


def test_thread_embedding_injective_and_separating(tree_b3):
    emb = thread_embedding(tree_b3)
    assert len(set(emb.values())) == len(tree_b3.points)
    for a in tree_b3.points:
        for b in tree_b3.points:
            if a == b:
                continue
            meet = u_metric(tree_b3, a, b)
            assert emb[a][meet] == emb[b][meet]
            assert emb[a][meet + 1] != emb[b][meet + 1]


def test_thread_embedding_preimage_law(tree_b3):
    emb = thread_embedding(tree_b3)
    for alpha in range(tree_b3.depth + 1):
        for label in tree_b3.levels[alpha].points:
            cylinder = {p for p, t in emb.items() if t[alpha] == label}
            assert cylinder == leafset(tree_b3, alpha, label)


def test_one_point_tree_embedding():
    a = FiniteSpace("a", ("a0",))
    tree = BallTree(levels=(a, a), parents=(Surjection(a, a, {"a0": "a0"}),))
    emb = thread_embedding(tree)
    assert emb == {"a0": ("a0", "a0")}


def test_spherical_completeness_chains(tree_b3):
    # every chain of balls has nonempty intersection: the deepest ball survives
    chains = []
    for p in tree_b3.points:
        chains.append([ball(tree_b3, p, a) for a in range(tree_b3.depth + 1)])
    for chain in chains:
        inter = set(tree_b3.points)
        for b in chain:
            inter &= b
        assert inter == set(chain[-1])


def test_nowhere_dense_empty_set(tree_b3):
    witness = is_uniformly_nowhere_dense(tree_b3, set())
    assert isinstance(witness, NowhereDenseWitness)
    assert witness.target_levels == (1, 2, 3)
    assert validate_witness(tree_b3, set(), witness).ok


def test_nowhere_dense_single_point(tree_b3):
    witness = is_uniformly_nowhere_dense(tree_b3, {"000"})
    assert isinstance(witness, NowhereDenseWitness)
    assert witness.target_levels == (1, 2, 3)
    assert validate_witness(tree_b3, {"000"}, witness).ok
    # the root's avoiding ball is the least label missing the point
    assert witness.choices[0][""] == "1"


def test_clopen_two_ball_fails_at_level_two(tree_b3):
    outcome = is_uniformly_nowhere_dense(tree_b3, {"000", "001"})
    assert isinstance(outcome, NowhereDenseFailure)
    assert outcome.level == 2
    assert outcome.ball == "00"


def test_clopen_one_ball_fails_at_level_one(tree_b3):
    outcome = is_uniformly_nowhere_dense(tree_b3, {"000", "001", "010", "011"})
    assert isinstance(outcome, NowhereDenseFailure)
    assert outcome.level == 1
    assert outcome.ball == "0"


@pytest.mark.parametrize("seed", [1, 7, 23, 145])
def test_uniform_density_agrees_with_brute_force(seed):
    tree = random_tree(seed, max_depth=4, max_points=20)
    subset = set(tree.points[:: max(1, len(tree.points) // 3)])
    assert is_uniformly_nowhere_dense(tree, subset) == oracles.is_uniformly_nowhere_dense(tree, subset)


def test_uniform_implies_plain_nowhere_density(tree_b3):
    subset = {"000"}
    witness = is_uniformly_nowhere_dense(tree_b3, subset)
    assert isinstance(witness, NowhereDenseWitness)
    # every ball contains a sub-ball missing the set
    for alpha in range(tree_b3.depth):
        for label in tree_b3.levels[alpha].points:
            assert any(
                not (leafset(tree_b3, beta, c) & subset)
                for beta in range(alpha + 1, tree_b3.depth + 1)
                for c in descendants(tree_b3, alpha, label, beta)
            )


def test_nowhere_dense_to_uniform_equal_levels(tree_b3):
    subset = {"000"}
    per_ball = {}
    for alpha in range(tree_b3.depth):
        for label in tree_b3.levels[alpha].points:
            pick = next(c for c in children(tree_b3, alpha, label) if not (leafset(tree_b3, alpha + 1, c) & subset))
            per_ball[(alpha, label)] = (alpha + 1, pick)
    witness = nowhere_dense_to_uniform(tree_b3, subset, per_ball)
    assert witness.target_levels == (1, 2, 3)
    assert validate_witness(tree_b3, subset, witness).ok


def test_nowhere_dense_to_uniform_takes_max_and_deepens(tree_b3):
    # mixed per-ball levels at level 1: the uniform level is their maximum
    subset = {"000"}
    per_ball = {(0, ""): (1, "1")}
    per_ball[(1, "0")] = (2, "01")
    per_ball[(1, "1")] = (3, "100")
    for label in tree_b3.levels[2].points:
        pick = next(c for c in children(tree_b3, 2, label) if not (leafset(tree_b3, 3, c) & subset))
        per_ball[(2, label)] = (3, pick)
    witness = nowhere_dense_to_uniform(tree_b3, subset, per_ball)
    assert witness.target_levels[1] == 3
    assert witness.choices[1]["0"] == "010"  # least descendant of the level-2 pick
    assert witness.choices[1]["1"] == "100"
    assert validate_witness(tree_b3, subset, witness).ok


def test_nowhere_dense_to_uniform_single_ball_level(tree_b3):
    subset = set()
    per_ball = {(alpha, label): (alpha + 1, children(tree_b3, alpha, label)[0])
                for alpha in range(tree_b3.depth)
                for label in tree_b3.levels[alpha].points}
    witness = nowhere_dense_to_uniform(tree_b3, subset, per_ball)
    assert witness.choices[0][""] == per_ball[(0, "")][1]


def test_nowhere_dense_to_uniform_rejects_meeting_witness(tree_b3):
    per_ball = {(alpha, label): (alpha + 1, children(tree_b3, alpha, label)[0])
                for alpha in range(tree_b3.depth)
                for label in tree_b3.levels[alpha].points}
    with pytest.raises(ValueError, match="meets the subset"):
        nowhere_dense_to_uniform(tree_b3, {"000"}, per_ball)


def test_factoring_level_cases(tree_b3):
    constant = {p: "v" for p in tree_b3.points}
    assert factoring_level(tree_b3, constant)[0] == 0
    first_bit = {p: p[0] for p in tree_b3.points}
    assert factoring_level(tree_b3, first_bit)[0] == 1
    injective = {p: p for p in tree_b3.points}
    assert factoring_level(tree_b3, injective)[0] == 3
    with pytest.raises(ValueError, match="undefined"):
        factoring_level(tree_b3, {"000": "v"})

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything here recomputes its expectations from independent
brute-force routes; no tolerance is involved, all equalities are exact.
"""

import itertools
import json
import random

import pytest

from ultrafraisse import serial
from ultrafraisse.balltree import (
    NowhereDenseFailure,
    NowhereDenseWitness,
    ball_quotients,
    factoring_level,
    from_sequence,
    is_uniformly_nowhere_dense,
    validate_witness,
)
from ultrafraisse.cli import main
from ultrafraisse.engine import verify_fraisse
from ultrafraisse.errors import InputError
from ultrafraisse.fixtures import binary_tree, k4
from ultrafraisse.generic import (
    PartialHomeo,
    brute_force_lift_oracle,
    embed_generic,
    extend_homeo,
    lift_through_generic,
    presentation_from_subset,
    retract_onto,
    retraction_table,
)
from ultrafraisse.engine import PaddingSchedule, build_fraisse
from ultrafraisse.sequences import InverseSequence, SlicedSequence, apply_sequence_arrow
from ultrafraisse.slices import SliceObject, amalgamate_slice
from ultrafraisse.spaces import FiniteSpace, PointMap, Surjection, compose

from oracles import (
    apply_level_maps,
    check_axioms,
    nowhere_dense_to_uniform,
    point_value,
    random_tree,
    thread_embedding,
    value_on_ball,
)


SCHEDULE = PaddingSchedule()


@pytest.fixture(scope="module")
def k4_presentation():
    return embed_generic(k4(), 4, SCHEDULE)


def report(number, label):
    print(f"ACCEPTANCE {number:02d} PASS  {label}")


def test_acceptance_01_ultrametric_laws():
    fixtures = [binary_tree(3)] + [random_tree(seed, 5, 64) for seed in range(20)]
    for tree in fixtures:
        outcome = check_axioms(tree)
        assert outcome.ok, outcome.issues[:3]
    report(1, "ultrametric laws, ball nesting: zero violations on 21 trees")


def test_acceptance_02_roundtrip_and_preimage_law():
    fixtures = [binary_tree(d) for d in (1, 2, 3)] + [random_tree(s, 4, 32) for s in range(6)]
    for tree in fixtures:
        rebuilt = from_sequence(ball_quotients(tree))
        assert rebuilt.depth == tree.depth
        assert all(a.points == b.points for a, b in zip(rebuilt.levels, tree.levels))
        assert all(a.mapping == b.mapping for a, b in zip(rebuilt.parents, tree.parents))
        embedding = thread_embedding(tree)
        for alpha in range(tree.depth + 1):
            for label in tree.levels[alpha].points:
                cylinder = {p for p, t in embedding.items() if t[alpha] == label}
                assert cylinder == tree.leafset(alpha, label)
    report(2, "quotient/limit round trip and cylinder preimage law, exhaustive")


def _random_cospan(tree, rng, max_size=5):
    hsize = rng.randint(1, max_size)
    hlevel = rng.randint(0, tree.depth)
    hpoints = tuple(f"z{i}" for i in range(hsize))
    htarget = FiniteSpace("h", hpoints)
    hvals = {b: rng.choice(hpoints) for b in tree.levels[hlevel].points}
    h = SliceObject(
        base=tree, level=hlevel, target=htarget,
        quotient_map=PointMap(tree.levels[hlevel], htarget, hvals),
    )
    legs = []
    for name in ("f", "g"):
        size = rng.randint(hsize, max_size)
        points = tuple(f"{name}{i}" for i in range(size))
        target = FiniteSpace(name, points)
        qmap = {p: hpoints[i % hsize] for i, p in enumerate(points)}
        q = Surjection(target, htarget, qmap)
        level = rng.randint(hlevel, tree.depth)
        vals = {
            b: rng.choice(q.fiber(value_on_ball(h, level, b)))
            for b in tree.levels[level].points
        }
        obj = SliceObject(
            base=tree, level=level, target=target,
            quotient_map=PointMap(tree.levels[level], target, vals),
        )
        from ultrafraisse.slices import SliceArrow

        legs.append(SliceArrow(obj, h, q))
    return legs[0].src, legs[1].src, h, legs[0], legs[1]


def test_acceptance_03_amalgamation_suite():
    tree = k4()
    rng = random.Random(2024)
    cone_budget = 3
    for trial in range(100):
        f, g, h, q1, q2 = _random_cospan(tree, rng)
        k_obj, f1, g1 = amalgamate_slice(f, g, h, q1, q2)
        for p in k_obj.target.points:
            assert q1.q(f1.q(p)) == q2.q(g1.q(p))
        for leaf in tree.points:
            assert f1.q(point_value(k_obj, leaf)) == point_value(f, leaf)
            assert g1.q(point_value(k_obj, leaf)) == point_value(g, leaf)
        # universal property, pointwise over every compatible pair
        for x in f.target.points:
            for y in g.target.points:
                mediating = [
                    w for w in k_obj.target.points if f1.q(w) == x and g1.q(w) == y
                ]
                assert len(mediating) == (1 if q1.q(x) == q2.q(y) else 0)
        # full cone check on the first few cospans, cones of size up to 4
        if trial < cone_budget:
            for tsize in (1, 2, 3, 4):
                tspace = FiniteSpace("t", tuple(f"t{i}" for i in range(tsize)))
                pairs = [
                    (x, y)
                    for x in f.target.points
                    for y in g.target.points
                    if q1.q(x) == q2.q(y)
                ]
                sampled = pairs if len(pairs) ** tsize <= 4000 else pairs[:2]
                for combo in itertools.product(sampled, repeat=tsize):
                    a = {t: c[0] for t, c in zip(tspace.points, combo)}
                    b = {t: c[1] for t, c in zip(tspace.points, combo)}
                    mediating = [
                        m
                        for m in itertools.product(k_obj.target.points, repeat=tsize)
                        if all(
                            f1.q(m[i]) == a[t] and g1.q(m[i]) == b[t]
                            for i, t in enumerate(tspace.points)
                        )
                    ]
                    assert len(mediating) == 1
    report(3, "100 random cospans amalgamate; pullback universal property verified")


SPLITS = (
    (0, "p0"), (0, "p1"),
    (1, "0"), (1, "1"), (1, "p0"), (1, "p1"), (1, "p2"), (1, "p3"),
    (2, "00"), (2, "01"), (2, "p0"), (2, "p1"),
)


def test_acceptance_04_fraisse_absorption():
    tree = k4()
    assert len(SPLITS) >= 10
    build = build_fraisse(tree, 4, SCHEDULE, SPLITS)
    tasks = [t for _, t in build.tasks]
    assert len(tasks) == len(SPLITS)
    outcome = verify_fraisse(build.sequence, tasks)
    for result in outcome.tasks:
        assert result.status == "witnessed", result.detail
        task = tasks[result.index]
        assert compose(task.arrow.q, result.mapping) == build.sequence.seq.bonding(
            task.stage, result.beta
        )
    # corrupted bonding: redirect every preimage of a split pad point
    seq = build.sequence.seq
    victim = dict(build.tasks)["split:1:p0"]
    bad_step = {
        x: ("p1" if v == "p0" else v) for x, v in seq.steps[1].mapping.items()
    }
    corrupted = SlicedSequence(
        InverseSequence(
            seq.spaces,
            (seq.steps[0], PointMap(seq.spaces[2], seq.spaces[1], bad_step)) + seq.steps[2:],
        ),
        build.sequence.phis,
    )
    bad = verify_fraisse(corrupted, [victim])
    assert bad.tasks[0].status == "failed"
    assert "p0" in bad.tasks[0].detail
    report(4, f"{len(tasks)} splitting tasks absorbed with witnesses; mutant rejected")


def test_acceptance_05_uniform_nowhere_density(k4_presentation):
    pres = k4_presentation
    image = [pres.eta_point(x) for x in pres.space.points]
    found = is_uniformly_nowhere_dense(pres.ambient, image)
    assert found.target_levels == tuple(range(1, pres.ambient.depth + 1))
    assert validate_witness(pres.ambient, image, found).ok
    # the clopen-ball negative fixture fails exactly at the documented level
    tree = binary_tree(3)
    outcome = is_uniformly_nowhere_dense(tree, {"000", "001"})
    assert isinstance(outcome, NowhereDenseFailure)
    assert outcome.level == 2 and outcome.ball == "00"
    with pytest.raises(InputError):
        presentation_from_subset(tree, ["000", "001"])
    report(5, "embedding witness re-validates; clopen ball rejected at level 2")


def _lift_fixtures():
    tree = binary_tree(3)
    pres = presentation_from_subset(tree, ["000", "111"])
    x2 = FiniteSpace("X", ("x0", "x1"))
    fixtures = []

    y2 = FiniteSpace("Y", ("w0", "w1"))
    f_bij = Surjection(y2, x2, {"w0": "x0", "w1": "x1"})
    g = {w: ("x0" if w.startswith("0") else "x1") for w in tree.points}
    fixtures.append((pres, f_bij, {"000": "w0", "111": "w1"}, g, True))

    y3 = FiniteSpace("Y", ("y0", "extra", "y1"))
    f_extra = Surjection(y3, x2, {"y0": "x0", "extra": "x0", "y1": "x1"})
    fixtures.append((pres, f_extra, {"000": "y0", "111": "y1"}, g, True))

    y4 = FiniteSpace("Y", ("a", "b", "c", "d"))
    f_wide = Surjection(y4, x2, {"a": "x0", "b": "x0", "c": "x1", "d": "x1"})
    fixtures.append((pres, f_wide, {"000": "a", "111": "c"}, g, True))

    bad_b = {"000": "y1", "111": "y1"}  # f(y1) = x1 but g(eta(000)) = x0
    fixtures.append((pres, f_extra, bad_b, g, False))
    return fixtures


def test_acceptance_06_lift_oracle_equivalence(k4_presentation):
    for pres, f, b, g, good in _lift_fixtures():
        beta_hint = None
        if good:
            lift = lift_through_generic(pres, f, b, g)
            beta_hint = lift.beta
            assert len(pres.ambient.levels[lift.beta]) <= 8
            for w in pres.ambient.points:
                assert f(lift.on_points[w]) == g[w]
            for x in pres.space.points:
                assert lift.on_points[pres.eta_point(x)] == b[x]
            oracle = brute_force_lift_oracle(pres, f, b, g, beta=lift.beta)
            assert oracle and lift.ball_table in oracle
        else:
            with pytest.raises(InputError):
                lift_through_generic(pres, f, b, g)
            assert brute_force_lift_oracle(pres, f, b, g, beta=3) == []
    # the engine-built presentation also agrees with its oracle
    pres = k4_presentation
    x2 = FiniteSpace("X", ("x0", "x1"))
    y3 = FiniteSpace("Y", ("y0", "y1", "extra"))
    f = Surjection(y3, x2, {"y0": "x0", "y1": "x1", "extra": "x1"})
    root_ball = pres.ambient.levels[1].points[0]
    g = {
        w: ("x0" if pres.ambient.ancestor(pres.ambient.depth, w, 1) == root_ball else "x1")
        for w in pres.ambient.points
    }
    b = {x: "y0" for x in pres.space.points}
    lift = lift_through_generic(pres, f, b, g)
    assert len(pres.ambient.levels[lift.beta]) <= 8
    oracle = brute_force_lift_oracle(pres, f, b, g, beta=lift.beta)
    assert oracle and lift.ball_table in oracle
    report(6, "constructive lifts agree with the exhaustive oracle, equalities exact")


def _assert_automap_contract(level_maps, homeo):
    src, dst = homeo.src.ambient, homeo.dst.ambient
    for level, table in enumerate(level_maps):
        assert set(table) == set(src.levels[level].points)
        assert set(table.values()) == set(dst.levels[level].points)
    for level in range(src.depth):
        for child in src.levels[level + 1].points:
            got = dst.parents[level](level_maps[level + 1][child])
            want = level_maps[level][src.parents[level](child)]
            assert got == want
    for x, y in homeo.mapping.items():
        assert apply_level_maps(level_maps, homeo.src.eta[x]) == homeo.dst.eta[y]


def test_acceptance_07_homeomorphism_extension():
    tree = binary_tree(3)
    src = presentation_from_subset(tree, ["000"])
    dst = presentation_from_subset(tree, ["111"])
    single = PartialHomeo(src, dst, {"000": "111"})
    _assert_automap_contract(extend_homeo(single), single)

    deep = binary_tree(4)
    pair = presentation_from_subset(deep, ["0000", "1111"])
    swap = PartialHomeo(pair, pair, {"0000": "1111", "1111": "0000"})
    level_maps = extend_homeo(swap)
    _assert_automap_contract(level_maps, swap)
    emb = thread_embedding(deep)
    assert apply_level_maps(level_maps, emb["0000"]) == emb["1111"]

    a = embed_generic(k4(), 4, SCHEDULE, ((1, "p0"),))
    b = embed_generic(k4(), 4, SCHEDULE, ((1, "p1"),))
    ident = PartialHomeo(a, b, {x: x for x in k4().points})
    _assert_automap_contract(extend_homeo(ident), ident)
    report(7, "swap fixtures extend; independent builds joined by the identity")


def test_acceptance_08_retraction(k4_presentation):
    pres = k4_presentation
    arrow = retract_onto(pres)
    table = retraction_table(pres.ambient, arrow)
    for x in pres.space.points:
        assert table[pres.eta_point(x)] == x
    chains = thread_embedding(pres.space)
    ambient_chains = thread_embedding(pres.ambient)
    for w in pres.ambient.points:  # exhaustive over all ambient threads
        out = apply_sequence_arrow(arrow, ambient_chains[w])
        assert out == chains[table[w]]
    for m in range(pres.space.depth + 1):
        component = {
            w: pres.space.ancestor(pres.space.depth, table[w], m) for w in pres.ambient.points
        }
        assert factoring_level(pres.ambient, component)[0] == arrow.reindex[m]
    assert set(table.values()) == set(pres.space.points)
    report(8, "retraction restores every base point, constant on certified levels")


def test_acceptance_09_per_ball_to_uniform():
    cases = [
        (binary_tree(3), set()),
        (binary_tree(3), {"000"}),
        (binary_tree(3), {"000", "111"}),
        (binary_tree(4), {"0000", "0111", "1010"}),
    ]
    for seed in (11, 29, 41):
        tree = random_tree(seed, 4, 24)
        subset = set(tree.points[:: max(1, len(tree.points) // 2)])
        if isinstance(is_uniformly_nowhere_dense(tree, subset), NowhereDenseWitness):
            cases.append((tree, subset))
    for tree, subset in cases:
        uniform = is_uniformly_nowhere_dense(tree, subset)
        assert isinstance(uniform, NowhereDenseWitness)
        per_ball = {}
        for alpha in range(tree.depth):
            for label in tree.levels[alpha].points:
                found = next(
                    (beta, cand)
                    for beta in range(alpha + 1, tree.depth + 1)
                    for cand in tree.descendants(alpha, label, beta)
                    if not (tree.leafset(beta, cand) & subset)
                )
                per_ball[(alpha, label)] = found
        combined = nowhere_dense_to_uniform(tree, subset, per_ball)
        assert combined.target_levels == uniform.target_levels
        assert validate_witness(tree, subset, combined).ok
    report(9, "per-ball data combines to the same minimal uniform levels")


def test_acceptance_10_cli_round_trip(tmp_path, capsys):
    demo_dir = tmp_path / "demo"
    assert main(["demo", "--out", str(demo_dir)]) == 0
    certs = ["k4-embedding.json", "swap-extension.json", "k4-retraction.json"]
    for cert in certs:
        assert main(["verify", str(demo_dir / cert)]) == 0
    mutations = {
        "k4-embedding.json": lambda c: c["eta"]["00"].__setitem__(2, "p0"),
        "swap-extension.json": lambda c: c["levels"][1]["map"].update({"0": "0", "1": "1"}),
        "k4-retraction.json": lambda c: c["table"].update(
            {next(iter(c["table"])): "11" if c["table"][next(iter(c["table"]))] != "11" else "00"}
        ),
    }
    for cert, mutate in mutations.items():
        data = json.loads((demo_dir / cert).read_text())
        mutate(data)
        path = tmp_path / f"mut-{cert}"
        path.write_text(serial.dumps(data))
        assert main(["verify", str(path)]) == 1
    capsys.readouterr()
    report(10, "demo certificates re-verify; mutated tables are rejected")

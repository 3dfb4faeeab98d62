import itertools

import pytest
from hypothesis import given, strategies as st

from ultrafraisse.spaces import (
    FiniteSpace,
    PointMap,
    Surjection,
    compose,
    identity,
    pair_label,
    pullback,
)


def space(name, *points):
    return FiniteSpace(id=name, points=points)


def test_space_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        space("x")
    with pytest.raises(ValueError):
        space("x", "a", "a")


def test_point_map_totality_checked():
    x, y = space("x", "a", "b"), space("y", "z")
    with pytest.raises(ValueError):
        PointMap(x, y, {"a": "z"})
    with pytest.raises(ValueError):
        PointMap(x, y, {"a": "z", "b": "w"})


def test_surjection_rejects_missed_point():
    x, y = space("x", "a", "b"), space("y", "u", "v")
    with pytest.raises(ValueError, match="misses"):
        Surjection(x, y, {"a": "u", "b": "u"})


def test_compose_identity_laws():
    x, y = space("x", "a", "b"), space("y", "u", "v")
    f = Surjection(x, y, {"a": "u", "b": "v"})
    assert compose(identity(y), f) == f
    assert compose(f, identity(x)) == f


def test_compose_constant_maps():
    x, z, w = space("x", "a", "b"), space("z", "z0"), space("w", "w0")
    f = Surjection(x, z, {"a": "z0", "b": "z0"})
    g = Surjection(z, w, {"z0": "w0"})
    gf = compose(g, f)
    assert gf.mapping == {"a": "w0", "b": "w0"}
    assert isinstance(gf, Surjection)


def test_compose_checks_boundaries():
    x, y = space("x", "a"), space("y", "u")
    f = Surjection(x, x, {"a": "a"})
    g = Surjection(y, y, {"u": "u"})
    with pytest.raises(ValueError, match="compose"):
        compose(g, f)


def test_pullback_over_singleton_is_product():
    x, y, z = space("x", "x0", "x1"), space("y", "y0", "y1"), space("z", "z0")
    q1 = Surjection(x, z, {"x0": "z0", "x1": "z0"})
    q2 = Surjection(y, z, {"y0": "z0", "y1": "z0"})
    w, f1, g1 = pullback(q1, q2)
    assert len(w) == 4
    assert w.points == ("(x0,y0)", "(x0,y1)", "(x1,y0)", "(x1,y1)")


def test_pullback_along_identity_is_bijection():
    z = space("z", "z0", "z1")
    y = space("y", "a", "b", "c")
    q2 = Surjection(y, z, {"a": "z0", "b": "z1", "c": "z1"})
    w, f1, g1 = pullback(identity(z), q2)
    assert len(w) == len(y)
    assert sorted(g1.mapping.values()) == sorted(y.points)
    assert len(set(g1.mapping.values())) == len(y)


def brute_force_pairs(q1, q2):
    return [
        (x, y) for x in q1.dom.points for y in q2.dom.points if q1(x) == q2(y)
    ]


def test_pullback_fiber_count_matches_enumeration():
    # fibers (2, 1) against (1, 3) over a two-point base
    x = space("x", "x0", "x1", "x2")
    y = space("y", "y0", "y1", "y2", "y3")
    z = space("z", "z0", "z1")
    q1 = Surjection(x, z, {"x0": "z0", "x1": "z0", "x2": "z1"})
    q2 = Surjection(y, z, {"y0": "z0", "y1": "z1", "y2": "z1", "y3": "z1"})
    expected = brute_force_pairs(q1, q2)
    assert len(expected) == 2 * 1 + 1 * 3
    w, f1, g1 = pullback(q1, q2)
    assert w.points == tuple(pair_label(x_, y_) for x_, y_ in expected)
    for x_, y_ in expected:
        lbl = pair_label(x_, y_)
        assert f1(lbl) == x_ and g1(lbl) == y_


def test_pullback_square_commutes():
    x = space("x", "x0", "x1", "x2")
    z = space("z", "z0", "z1")
    q1 = Surjection(x, z, {"x0": "z0", "x1": "z1", "x2": "z1"})
    q2 = Surjection(x, z, {"x0": "z1", "x1": "z0", "x2": "z1"})
    w, f1, g1 = pullback(q1, q2)
    for p in w.points:
        assert q1(f1(p)) == q2(g1(p))


def test_pullback_requires_shared_codomain():
    x = space("x", "a")
    with pytest.raises(ValueError, match="codomain"):
        pullback(Surjection(x, x, {"a": "a"}), Surjection(x, space("y", "b"), {"a": "b"}))


@st.composite
def small_cospans(draw):
    nx = draw(st.integers(1, 4))
    ny = draw(st.integers(1, 4))
    nz = draw(st.integers(1, 2))
    x = space("x", *[f"x{i}" for i in range(nx)])
    y = space("y", *[f"y{i}" for i in range(ny)])
    z = space("z", *[f"z{i}" for i in range(nz)])
    q1m = {p: f"z{draw(st.integers(0, nz - 1))}" for p in x.points}
    q2m = {p: f"z{draw(st.integers(0, nz - 1))}" for p in y.points}
    # force surjectivity by cycling the first points
    for i in range(nz):
        q1m[x.points[i % nx]] = f"z{i}" if i < nx else q1m[x.points[i % nx]]
        q2m[y.points[i % ny]] = f"z{i}" if i < ny else q2m[y.points[i % ny]]
    if set(q1m.values()) != set(z.points) or set(q2m.values()) != set(z.points):
        # fall back to constant base
        z = space("z", "z0")
        q1m = {p: "z0" for p in x.points}
        q2m = {p: "z0" for p in y.points}
    return Surjection(x, z, q1m), Surjection(y, z, q2m)


@given(small_cospans())
def test_pullback_universal_property_pointwise(cospan):
    q1, q2 = cospan
    w, f1, g1 = pullback(q1, q2)
    for x in q1.dom.points:
        for y in q2.dom.points:
            mediating = [p for p in w.points if f1(p) == x and g1(p) == y]
            assert len(mediating) == (1 if q1(x) == q2(y) else 0)


def test_pullback_universal_property_with_cones():
    x = space("x", "x0", "x1")
    y = space("y", "y0", "y1", "y2")
    z = space("z", "z0", "z1")
    q1 = Surjection(x, z, {"x0": "z0", "x1": "z1"})
    q2 = Surjection(y, z, {"y0": "z0", "y1": "z0", "y2": "z1"})
    w, f1, g1 = pullback(q1, q2)
    t = space("t", "t0", "t1", "t2")
    cones = 0
    for avals in itertools.product(x.points, repeat=len(t)):
        for bvals in itertools.product(y.points, repeat=len(t)):
            if any(q1(a) != q2(b) for a, b in zip(avals, bvals)):
                continue
            cones += 1
            mediating = [
                m
                for m in itertools.product(w.points, repeat=len(t))
                if all(f1(m[i]) == avals[i] and g1(m[i]) == bvals[i] for i in range(len(t)))
            ]
            assert len(mediating) == 1
    assert cones > 0


def test_operations_are_deterministic():
    x = space("x", "x0", "x1")
    z = space("z", "z0")
    q = Surjection(x, z, {"x0": "z0", "x1": "z0"})
    assert pullback(q, q)[0] == pullback(q, q)[0]

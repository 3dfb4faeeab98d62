"""The certificate writer, map validation and the digest helper against the
stdlib encoder, the entry-by-entry scans they replace and `hashlib`."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ultrafraisse
from ultrafraisse import serial
from ultrafraisse.errors import SchemaError
from ultrafraisse.balltree import BallTree
from ultrafraisse.spaces import FiniteSpace, PointMap, Surjection

# --- serial.dumps is byte for byte the stdlib's indent=2 sorted encoding

_tricky = st.text(alphabet=st.sampled_from('a0 "\\/\n\t\x00\x1f\x7féß€ \U0001f600'))
_strings = st.one_of(st.text(), _tricky)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(),
    _strings,
)
_json = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(_strings, max_size=5),
        st.lists(st.integers(), max_size=5),
        st.dictionaries(_strings, inner, max_size=5),
        st.dictionaries(_strings, _strings, max_size=5),
        # non-string keys of one comparable kind, as sort_keys needs
        st.dictionaries(st.integers(), inner, max_size=4),
        st.dictionaries(st.floats(allow_nan=False), inner, max_size=4),
        st.dictionaries(st.booleans(), inner, max_size=2),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_json)
def test_dumps_matches_the_stdlib_encoder(value):
    assert serial.dumps(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_dumps_matches_on_nested_empty_containers():
    value = {"a": [[], {}, [[]], {"b": {}}], "": [{"c": []}], "z": {}}
    assert serial.dumps(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


# --- map validation reports what the entry-by-entry scans reported


def _scan_point_map(dom, cod, mapping):
    """The validation PointMap ran before its set tests, verbatim."""
    missing = [p for p in dom.points if p not in mapping]
    if missing:
        raise ValueError(f"map {dom.id!r}->{cod.id!r} undefined at {missing[0]!r}")
    extra = [p for p in mapping if p not in dom]
    if extra:
        raise ValueError(f"map {dom.id!r}->{cod.id!r} defined at foreign point {extra[0]!r}")
    bad = [v for v in mapping.values() if v not in cod]
    if bad:
        raise ValueError(f"map {dom.id!r}->{cod.id!r} hits foreign value {bad[0]!r}")


def _scan_surjection(dom, cod, mapping):
    _scan_point_map(dom, cod, mapping)
    if not set(mapping.values()) == set(cod.points):
        miss = next(q for q in cod.points if q not in set(mapping.values()))
        raise ValueError(f"map {dom.id!r}->{cod.id!r} misses {miss!r}: not a surjection")


def _scan_map_from_json(data, dom, cod, name, surjective):
    """serial.map_from_json before it moved the type scan after construction."""
    serial.require(isinstance(data, dict), f"{name}: expected a label-to-label object")
    serial.require(
        all(isinstance(k, str) and isinstance(v, str) for k, v in data.items()),
        f"{name}: labels must be strings",
    )
    try:
        (_scan_surjection if surjective else _scan_point_map)(dom, cod, data)
    except ValueError as exc:
        raise SchemaError(f"{name}: {exc}") from None


def _outcome(fn, *args):
    """The class and text of what `fn` raises, or None when it returns."""
    try:
        fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


_DOM = FiniteSpace("dom", ("a", "b", "c", "d"))
_COD = FiniteSpace("cod", ("u", "v", "w"))
_foreign_keys = st.sampled_from(["e", "u", "", "A", 0, 1])
_foreign_values = st.one_of(
    st.sampled_from(["x", "a", "", 0, 2, None]), st.lists(st.sampled_from("uv"), max_size=2)
)


@st.composite
def _malformed_maps(draw):
    """A total map dom -> cod, possibly not onto, with random entries dropped,
    added at foreign or integer labels, or sent to foreign, integer or
    unhashable values."""
    mapping = {p: draw(st.sampled_from(_COD.points)) for p in _DOM.points}
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["drop", "add", "value"]))
        if edit == "drop" and mapping:
            del mapping[draw(st.sampled_from(sorted(mapping, key=repr)))]
        elif edit == "add":
            mapping[draw(_foreign_keys)] = draw(st.one_of(st.sampled_from(_COD.points), _foreign_values))
        elif edit == "value" and mapping:
            mapping[draw(st.sampled_from(sorted(mapping, key=repr)))] = draw(_foreign_values)
    return mapping


@settings(max_examples=400, deadline=None)
@given(_malformed_maps())
def test_map_errors_match_the_entry_scans(mapping):
    args = (_DOM, _COD, mapping)
    assert _outcome(PointMap, *args) == _outcome(_scan_point_map, *args)
    assert _outcome(Surjection, *args) == _outcome(_scan_surjection, *args)
    for surjective in (False, True):
        args = (mapping, _DOM, _COD, "step 0", surjective)
        assert _outcome(serial.map_from_json, *args) == _outcome(_scan_map_from_json, *args)


@pytest.mark.parametrize(
    "mapping, message",
    [
        ({"a": "u", "b": "u", "c": "u"}, "undefined at 'd'"),
        ({"a": "u", "b": "v", "c": "w", "d": "u", "e": "u"}, "defined at foreign point 'e'"),
        ({"a": "u", "b": "v", "c": "w", "d": ["u"]}, "hits foreign value ['u']"),
        ({"a": "u", "b": "v", "c": "u", "d": "v"}, "misses 'w': not a surjection"),
    ],
    ids=["missing", "extra", "unhashable", "not-onto"],
)
def test_surjection_names_the_first_offender(mapping, message):
    with pytest.raises(ValueError) as info:
        Surjection(_DOM, _COD, mapping)
    assert str(info.value) == f"map 'dom'->'cod' {message}"


def test_map_from_json_reports_non_string_labels_first():
    # an integer key is also a foreign point, but the type error wins
    data = {"a": "u", "b": "v", "c": "w", "d": "u", 1: "u"}
    with pytest.raises(SchemaError, match="^step 0: labels must be strings$"):
        serial.map_from_json(data, _DOM, _COD, "step 0")


# --- a tree section's shape is read without building it, and rejects what building rejects


def _checked_tree_from_json(data, name="tree"):
    """serial.tree_from_json when the constructors' own checks judged the
    section, verbatim."""
    serial.require(isinstance(data, dict), f"{name}: expected an object")
    serial.require(type(data.get("depth")) is int, f"{name}: 'depth' must be an integer")
    levels_raw = data.get("levels")
    parents_raw = data.get("parents")
    serial.require(isinstance(levels_raw, list) and levels_raw, f"{name}: 'levels' must be a list")
    serial.require(isinstance(parents_raw, list), f"{name}: 'parents' must be a list")
    serial.require(len(levels_raw) == data["depth"] + 1, f"{name}: depth disagrees with level count")
    serial.require(len(parents_raw) == data["depth"], f"{name}: need one parent row per non-root level")
    levels = []
    for a, labels in enumerate(levels_raw):
        labels = serial.label_list(labels, f"{name}: level {a}")
        try:
            levels.append(FiniteSpace(id=f"level{a}", points=labels))
        except ValueError as exc:
            raise SchemaError(f"{name}: level {a}: {exc}") from None
    parents = []
    for a, row in enumerate(parents_raw):
        upper, lower = levels[a + 1], levels[a]
        serial.require(
            isinstance(row, list) and len(row) == len(upper),
            f"{name}: parent row {a} must list one index per level-{a + 1} ball",
        )
        mapping = {}
        size = len(lower)
        for child, idx in zip(upper.points, row):
            if type(idx) is not int or not 0 <= idx < size:
                raise SchemaError(f"{name}: parent row {a}: index {idx!r} out of range")
            mapping[child] = lower.points[idx]
        try:
            parents.append(Surjection(upper, lower, mapping))
        except ValueError as exc:
            raise SchemaError(f"{name}: parent row {a}: {exc}") from None
    try:
        return BallTree(levels=tuple(levels), parents=tuple(parents))
    except ValueError as exc:
        raise SchemaError(f"{name}: {exc}") from None


_odd_values = st.sampled_from([True, False, 1.0, None, "0", [], {}])


@st.composite
def _malformed_trees(draw):
    """A small tree section with a label, an index, a row, a level, the
    depth or a key changed, or no object at all."""
    depth = draw(st.integers(0, 3))
    levels, parents = [["r"]], []
    for a in range(depth):
        size = len(levels[a])
        extra = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=2))
        parents.append(draw(st.permutations(list(range(size)) + extra)))
        levels.append([f"{a}.{i}" for i in range(len(parents[a]))])
    data = {"depth": depth, "levels": levels, "parents": parents}
    edit = draw(st.sampled_from(["none", "depth", "label", "index", "row", "level", "root", "section"]))
    k = draw(st.integers(min(depth, 1), depth))  # a level, above the root when there is one
    if edit == "depth":
        data["depth"] = draw(st.one_of(st.integers(-1, 4), _odd_values))
    elif edit == "label":
        levels[k][-1] = draw(st.one_of(st.sampled_from([levels[k][0], "x"]), _odd_values))
    elif edit == "index" and depth:
        row = parents[k - 1]
        row[draw(st.integers(0, len(row) - 1))] = draw(st.one_of(st.integers(-1, len(levels[k - 1])), _odd_values))
    elif edit == "row" and depth:
        row = parents[k - 1]
        parents[k - 1] = draw(st.sampled_from([row[1:], row + [0], [0] * len(row), 3, None]))
    elif edit == "level":
        levels[k] = draw(st.sampled_from([levels[k] + ["extra"], [], "r", None]))
    elif edit == "root":  # a second root ball, which the first parent row reaches
        levels[0].append("s")
        if parents:
            parents[0][-1] = 1
    elif edit == "section":
        del data[draw(st.sampled_from(["depth", "levels", "parents"]))]
    return draw(st.sampled_from([data] * 8 + [[data], None]))


@settings(max_examples=300, deadline=None)
@given(_malformed_trees())
def test_tree_shape_rejects_what_the_constructors_reject(data):
    checked = _outcome(_checked_tree_from_json, data)
    shape = _outcome(serial.tree_parts_from_json, data)
    if checked is None:
        assert shape is None
        assert serial.tree_from_json(data) == _checked_tree_from_json(data)
    else:
        assert shape is not None and shape[0] is SchemaError
        assert _outcome(serial.tree_from_json, data) == shape


# --- every digest is SHA-256 of the UTF-8 text, whichever module computes it


@given(_strings)
def test_text_digest_is_hashlib_sha256(text):
    assert serial.text_digest(text) == hashlib.sha256(text.encode()).hexdigest()


_DEMO = """\
import sys
if sys.argv[2] == "blocked":  # the interpreter's built-in modules cannot be imported
    sys.modules["_sha256"] = sys.modules["_sha2"] = None
from ultrafraisse import serial
from ultrafraisse.cli import main
import hashlib
print(serial.sha256 is hashlib.sha256)
sys.exit(main(["demo", "--out", sys.argv[1]]))
"""


def test_demo_files_are_identical_with_the_hashlib_fallback(tmp_path):
    src = str(Path(ultrafraisse.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    files = {}
    for mode in ("default", "blocked"):
        out = tmp_path / mode
        done = subprocess.run(
            [sys.executable, "-c", _DEMO, str(out), mode],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[0] == str(mode == "blocked")
        files[mode] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    assert len(files["default"]) == 6
    assert files["blocked"] == files["default"]

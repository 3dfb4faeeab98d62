"""JSON encoding of trees, sequences and certificates.

The schema is flat and diffable: a tree is its depth, the label lists per
level and the parent index per child; maps are label-to-label objects.
Serialization is byte-deterministic (sorted keys, fixed separators).
`certificate_from_json` is the one schema pass over a certificate: every
malformed section is a SchemaError before any check runs.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from .balltree import BallTree, NowhereDenseWitness
from .errors import SchemaError
from .sequences import InverseSequence, SlicedSequence
from .slices import SliceObject
from .spaces import FiniteSpace, PointMap, Surjection

# hashlib loads OpenSSL, megabytes per process; the interpreter's built-in
# SHA-256 gives the same digest without it (as random.py does for sha512)
try:
    from _sha256 import sha256  # Python <= 3.11
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        from hashlib import sha256


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def label_list(data: Any, name: str) -> tuple[str, ...]:
    """A JSON list of labels as a tuple; SchemaError otherwise."""
    require(
        isinstance(data, list) and all(isinstance(x, str) for x in data),
        f"{name} must be a list of strings",
    )
    return tuple(data)


def label_map(data: Any, name: str) -> dict[str, str]:
    """A JSON label-to-label object as a dict; SchemaError otherwise."""
    require(
        isinstance(data, dict)
        and all(isinstance(k, str) and isinstance(v, str) for k, v in data.items()),
        f"{name} must be a label-to-label object",
    )
    return dict(data)


def _encode(value: Any, pad: str) -> str:
    """`value` as `json.dumps(indent=2, sort_keys=True)` writes it, nested
    where `pad` (a newline and the enclosing indentation) starts its lines.

    Lists and string-keyed objects are joined here; all strings go through
    the stdlib's C string encoder.  Any other value (floats, non-string
    keys, subclasses of the JSON types) is written by the stdlib encoder
    and re-indented: its newlines are all structural, since strings escape
    theirs.
    """
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is list:
        if not value:
            return "[]"
        inner = pad + "  "
        kinds = set(map(type, value))
        if kinds == {str}:
            body = map(_quote, value)
        elif kinds == {int}:
            body = map(int.__repr__, value)
        else:
            body = [_encode(x, inner) for x in value]
        return "[" + inner + ("," + inner).join(body) + pad + "]"
    if kind is dict:
        if not value:
            return "{}"
        if set(map(type, value)) == {str}:
            inner = pad + "  "
            items = sorted(value.items())
            if set(map(type, value.values())) == {str}:
                body = [_quote(k) + ": " + _quote(v) for k, v in items]
            else:
                body = [_quote(k) + ": " + _encode(v, inner) for k, v in items]
            return "{" + inner + ("," + inner).join(body) + pad + "}"
    if kind is int:
        return int.__repr__(value)
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", pad)


def dumps(payload: Any) -> str:
    """Byte for byte `json.dumps(payload, indent=2, sort_keys=True) + "\\n"`."""
    return _encode(payload, "\n") + "\n"


def text_digest(text: str) -> str:
    """Hex SHA-256 of the text's UTF-8 bytes."""
    return sha256(text.encode()).hexdigest()


def content_digest(payload: dict) -> str:
    body = {k: v for k, v in payload.items() if k != "integrity"}
    return text_digest(json.dumps(body, sort_keys=True, separators=(",", ":")))


def loads(text: str) -> Any:
    return json.loads(text)


def tree_to_json(tree: BallTree) -> dict:
    parents = []
    for a, par in enumerate(tree.parents):
        position, parent = tree.levels[a]._positions, par.mapping
        parents.append([position[parent[b]] for b in tree.levels[a + 1].points])
    return {
        "depth": tree.depth,
        "levels": [list(level.points) for level in tree.levels],
        "parents": parents,
    }


def tree_parts_from_json(data: Any, name: str = "tree") -> tuple[list[tuple[str, ...]], list[list[int]]]:
    """A tree section's labels per level and parent rows, read without
    building a tree.  SchemaError for every section `tree_from_json`
    cannot build: repeated labels, bad or unattained parent indices."""
    require(isinstance(data, dict), f"{name}: expected an object")
    depth, levels_raw, parents_raw = data.get("depth"), data.get("levels"), data.get("parents")
    require(type(depth) is int, f"{name}: 'depth' must be an integer")
    require(isinstance(levels_raw, list) and levels_raw, f"{name}: 'levels' must be a list")
    require(isinstance(parents_raw, list), f"{name}: 'parents' must be a list")
    require(len(levels_raw) == depth + 1, f"{name}: depth disagrees with level count")
    require(len(parents_raw) == depth, f"{name}: need one parent row per non-root level")
    levels = []
    for a, labels in enumerate(levels_raw):
        labels = label_list(labels, f"{name}: level {a}")
        require(labels, f"{name}: level {a} has no labels")
        require(len(set(labels)) == len(labels), f"{name}: level {a} repeats a label")
        levels.append(labels)
    for a, row in enumerate(parents_raw):
        size = len(levels[a])
        require(
            isinstance(row, list) and len(row) == len(levels[a + 1]),
            f"{name}: parent row {a} must list one index per level-{a + 1} ball",
        )
        # the offender is looked for only in a bad row: these scans read every ball
        if set(map(type, row)) != {int} or min(row) < 0 or max(row) >= size:
            idx = next(i for i in row if type(i) is not int or not 0 <= i < size)
            raise SchemaError(f"{name}: parent row {a}: index {idx!r} out of range")
        hit = set(row)
        if len(hit) != size:
            miss = next(q for i, q in enumerate(levels[a]) if i not in hit)
            raise SchemaError(f"{name}: parent row {a} misses level-{a} ball {miss!r}")
    require(depth >= 1, f"{name}: a ball tree needs depth >= 1")
    require(len(levels[0]) == 1, f"{name}: level 0 must consist of a single ball")
    return levels, parents_raw


def tree_from_json(data: Any, name: str = "tree") -> BallTree:
    labels, rows = tree_parts_from_json(data, name)
    levels = tuple(FiniteSpace(id=f"level{a}", points=points) for a, points in enumerate(labels))
    parents = tuple(
        Surjection._built(upper, lower, dict(zip(upper.points, map(lower.points.__getitem__, row))))
        for upper, lower, row in zip(levels[1:], levels, rows)
    )
    return BallTree(levels=levels, parents=parents)


def map_from_json(data: Any, dom: FiniteSpace, cod: FiniteSpace, name: str, surjective: bool = True):
    require(isinstance(data, dict), f"{name}: expected a label-to-label object")
    cls = Surjection if surjective else PointMap
    try:
        return cls(dom, cod, data)
    except ValueError as exc:
        # a map that constructs has only dom's and cod's labels, which are
        # strings here, so the type scan is needed only to report first
        require(all(isinstance(k, str) and isinstance(v, str) for k, v in data.items()), f"{name}: labels must be strings")
        raise SchemaError(f"{name}: {exc}") from None


def sliced_to_json(sliced: SlicedSequence) -> dict:
    return {
        "spaces": [{"id": sp.id, "points": list(sp.points)} for sp in sliced.seq.spaces],
        "steps": [dict(step.mapping) for step in sliced.seq.steps],
        "phis": [
            {"level": phi.level, "map": dict(phi.quotient_map.mapping)} for phi in sliced.phis
        ],
    }


def sliced_parts_from_json(
    data: Any, base: BallTree, name: str = "sequence"
) -> tuple[tuple[FiniteSpace, ...], tuple[PointMap, ...], tuple[SliceObject, ...]]:
    """Parse the shape of a sliced sequence without judging its semantics.

    Steps come back as plain point maps; surjectivity and compatibility stay
    with the verifier so that bad certificate content reads as a failed
    check, not as a parse error.
    """
    require(isinstance(data, dict), f"{name}: expected an object")
    spaces_raw = data.get("spaces")
    steps_raw = data.get("steps")
    phis_raw = data.get("phis")
    require(isinstance(spaces_raw, list) and spaces_raw, f"{name}: 'spaces' must be a list")
    require(isinstance(steps_raw, list), f"{name}: 'steps' must be a list")
    require(isinstance(phis_raw, list), f"{name}: 'phis' must be a list")
    require(len(steps_raw) == len(spaces_raw) - 1, f"{name}: need one step per adjacent pair")
    require(len(phis_raw) == len(spaces_raw), f"{name}: need one slice map per space")
    spaces = []
    for i, entry in enumerate(spaces_raw):
        require(
            isinstance(entry, dict) and isinstance(entry.get("id"), str),
            f"{name}: space {i} needs an 'id'",
        )
        pts = label_list(entry.get("points"), f"{name}: space {i} points")
        try:
            spaces.append(FiniteSpace(id=entry["id"], points=pts))
        except ValueError as exc:
            raise SchemaError(f"{name}: space {i}: {exc}") from None
    steps = tuple(
        map_from_json(step, spaces[i + 1], spaces[i], f"{name}: step {i}", surjective=False)
        for i, step in enumerate(steps_raw)
    )
    phis = []
    for i, entry in enumerate(phis_raw):
        require(isinstance(entry, dict), f"{name}: phi {i} must be an object")
        level = entry.get("level")
        require(
            type(level) is int and 0 <= level <= base.depth,
            f"{name}: phi {i} has a bad level",
        )
        quotient = map_from_json(
            entry.get("map"), base.levels[level], spaces[i], f"{name}: phi {i}", surjective=False
        )
        try:
            phis.append(SliceObject(base=base, level=level, target=spaces[i], quotient_map=quotient))
        except ValueError as exc:
            raise SchemaError(f"{name}: phi {i}: {exc}") from None
    return tuple(spaces), steps, tuple(phis)


def sliced_from_json(data: Any, base: BallTree, name: str = "sequence") -> SlicedSequence:
    spaces, steps, phis = sliced_parts_from_json(data, base, name)
    try:
        return SlicedSequence(InverseSequence(spaces, steps), phis)
    except ValueError as exc:
        raise SchemaError(f"{name}: {exc}") from None


def witness_to_json(witness: NowhereDenseWitness) -> dict:
    return {
        "levels": [
            {"alpha": alpha, "beta": witness.target_levels[alpha], "choices": dict(witness.choices[alpha])}
            for alpha in range(len(witness.target_levels))
        ]
    }


def witness_from_json(data: Any, name: str = "witness") -> NowhereDenseWitness:
    require(isinstance(data, dict) and isinstance(data.get("levels"), list), f"{name}: expected levels")
    targets = []
    choices = []
    for i, entry in enumerate(data["levels"]):
        require(isinstance(entry, dict), f"{name}: level {i} must be an object")
        alpha = entry.get("alpha")
        require(type(alpha) is int and alpha == i, f"{name}: level {i} out of order")
        beta = entry.get("beta")
        require(type(beta) is int, f"{name}: level {i} needs an integer 'beta'")
        targets.append(beta)
        choices.append(label_map(entry.get("choices"), f"{name}: level {i} choices"))
    return NowhereDenseWitness(tuple(targets), tuple(choices))


_ENTRY_KEYS = {
    "tasks": ("tag", "stage", "source_points", "source_level", "source_map", "arrow_map",
              "witness_beta", "witness_map"),
    "probes": ("target_points", "level", "target_map", "witness_stage", "witness_map"),
}


def _label_lists(data: Any, name: str) -> dict[str, tuple[str, ...]]:
    """A JSON object of label lists as a dict of tuples; SchemaError otherwise."""
    require(isinstance(data, dict), f"{name} must map labels to label lists")
    return {x: label_list(v, f"{name} {x!r}") for x, v in data.items()}


def _presentation_sections(cert: dict) -> dict:
    """The presentation that embedding and retraction certificates share.
    `ambient` stays JSON once its shape is read: verify compares it with
    the tree it rebuilds from the sequence."""
    params, space = cert["params"], tree_from_json(cert["space"], "space")
    tree_parts_from_json(cert["ambient"], "ambient")
    require(isinstance(params, dict), "params: expected an object")
    require(type(params.get("depth")) is int and params["depth"] >= 1, "params: 'depth' must be an integer >= 1")
    for key in ("pad_base", "pad_growth"):
        require(type(params.get(key)) is int, f"params: {key!r} must be an integer")
    require(isinstance(params.get("seed_label"), str), "params: 'seed_label' must be a string")
    return {
        "params": {**params, "splits": label_list(params.get("splits"), "params: 'splits'")},
        "space": space,
        "sequence": sliced_parts_from_json(cert["sequence"], space),
        "eta": _label_lists(cert["eta"], "eta"),
    }


def _embedding_sections(cert: dict) -> dict:
    """Task and probe entries stay JSON: verify compares them with the tasks
    and probes it re-derives from the sequence."""
    for key, keys in _ENTRY_KEYS.items():
        entries = cert[key]
        require(
            isinstance(entries, list)
            and all(isinstance(e, dict) and all(map(e.__contains__, keys)) for e in entries),
            f"{key} must be a list of objects with keys {', '.join(keys)}",
        )
    return {
        **_presentation_sections(cert),
        "witness": witness_from_json(cert["witness"]),
        "log": label_list(cert["log"], "log"),
    }


def _retraction_sections(cert: dict) -> dict:
    """The maps' labels and the reindex levels are judged against the
    ambient that verify rebuilds, so only their types and counts are read."""
    reindex, maps = cert["reindex"], cert["maps"]
    require(isinstance(reindex, list) and all(type(r) is int for r in reindex), "reindex must be a list of integers")
    require(isinstance(maps, list) and len(maps) == len(reindex), "need one retraction map per reindex entry")
    return {
        **_presentation_sections(cert),
        "reindex": tuple(reindex),
        "maps": [label_map(m, f"retraction map {i}") for i, m in enumerate(maps)],
        "table": label_map(cert["table"], "retraction table"),
    }


def _extension_sections(cert: dict) -> dict:
    ambient, levels = tree_from_json(cert["ambient"], "ambient"), cert["levels"]
    require(
        isinstance(levels, list)
        and len(levels) == ambient.depth + 1
        and all(isinstance(e, dict) and type(e.get("level")) is int and e["level"] == i for i, e in enumerate(levels)),
        "levels malformed",
    )
    return {
        "ambient": ambient,
        "src_points": label_list(cert["src_points"], "src_points"),
        "dst_points": label_list(cert["dst_points"], "dst_points"),
        "mapping": label_map(cert["mapping"], "mapping"),
        "levels": [label_map(e.get("map"), f"level {i} map") for i, e in enumerate(levels)],
    }


def _lift_sections(cert: dict) -> dict:
    ambient, beta = tree_from_json(cert["ambient"], "ambient"), cert["beta"]
    require(type(beta) is int and 0 < beta <= ambient.depth, "bad lift level")
    try:
        y_space = FiniteSpace("Y", label_list(cert["f_source"], "f_source"))
        x_space = FiniteSpace("X", label_list(cert["f_target"], "f_target"))
    except ValueError as exc:
        raise SchemaError(f"lift arrow: {exc}") from None
    families = {key: _label_lists(cert[key], key) for key in ("avoid_families", "image_families")}
    for key, family in families.items():
        require(set(family) == set(y_space.points), f"{key} must hold one family per f_source point")
    return {
        "ambient": ambient,
        "subset": label_list(cert["subset"], "subset"),
        "f": map_from_json(cert["f"], y_space, x_space, "lift arrow"),
        "b": label_map(cert["b"], "b"),
        "g": label_map(cert["g"], "g"),
        "ball_table": label_map(cert["ball_table"], "ball_table"),
        **families,
    }


_PRESENTATION = ("params", "space", "sequence", "ambient", "eta")
# each kind's reader, and every top-level key its producer writes besides `integrity`
_KINDS = {
    "embedding-certificate": (_embedding_sections, _PRESENTATION + ("witness", "tasks", "probes", "log")),
    "retraction-certificate": (_retraction_sections, _PRESENTATION + ("reindex", "maps", "table")),
    "extension-certificate": (_extension_sections, ("ambient", "src_points", "dst_points", "mapping", "levels")),
    "lift-certificate": (_lift_sections, ("ambient", "subset", "f_source", "f_target", "f", "b", "g", "beta",
                                          "ball_table", "avoid_families", "image_families")),
}


def certificate_from_json(payload: Any) -> tuple[str, dict]:
    """A certificate's kind and its sections, keyed as in the certificate,
    each read once into the value the verifier checks.  SchemaError unless
    every key the producer writes is present with its shape."""
    require(isinstance(payload, dict), "certificate must be a JSON object")
    kind = payload.get("kind")
    require(isinstance(kind, str) and kind in _KINDS, f"unknown certificate kind {kind!r}")
    read, keys = _KINDS[kind]
    missing = [key for key in keys if key not in payload]
    require(not missing, f"{kind} lacks {', '.join(missing)}")
    return kind, {**{key: payload[key] for key in keys}, **read(payload)}

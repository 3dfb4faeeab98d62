"""Batch front end: build and re-verify embedding, extension and retraction
certificates as JSON documents.

Exit codes: 0 ok, 1 verification failure, 2 parse error, 3 capacity or
depth error, 4 semantic input error, 5 internal error.

`verify` runs in two phases.  `serial.certificate_from_json` first reads
the shape of every section, and every key the producer writes is
required: a malformed or missing one is a parse error (exit 2) before any
check runs.  The `_verify_*` functions then hold only checks, each a PASS
or FAIL line, and a FAIL exits 1.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys

from ._record import Record
from .balltree import (
    NowhereDenseFailure,
    ball_quotients,
    from_sequence,
    is_uniformly_nowhere_dense,
    validate_witness,
)
from .engine import (
    FraisseTask,
    PaddingSchedule,
    split_tags,
    split_task,
    stage_log_line,
    task_log_line,
    verify_fraisse,
)
from .errors import DepthError, InputError, SchemaError
from .fixtures import binary_tree, k4
from .generic import (
    GenericPresentation,
    PartialHomeo,
    check_level_bijections,
    check_level_extension,
    check_level_parents,
    check_restores,
    check_square,
    extend_homeo,
    embed_generic,
    eta_threads,
    lift_on_points,
    presentation_from_subset,
    retract_onto,
    retraction_components,
    retraction_table,
)
from .sequences import (
    InverseSequence,
    SequenceArrow,
    SlicedSequence,
    check_coherent,
)
from .slices import SliceArrow, SliceObject
from .spaces import FiniteSpace, Surjection, compose, identity
from . import serial


class RunConfig(Record):
    """Parsed command line: all algorithms are deterministic, the seed label
    is recorded in certificates verbatim."""

    command: str
    inputs: tuple[str, ...] = ()
    depth: int = 4
    pad_base: int = 2
    pad_growth: int = 2
    bounds: int = 200_000
    out: str | None = None
    seed_label: str = ""
    splits: tuple[str, ...] = ()

    def __post_init__(self):
        if self.depth < 1:
            raise DepthError("depth must be at least 1")
        try:
            PaddingSchedule(self.pad_base, self.pad_growth)
        except ValueError as exc:
            raise InputError(str(exc)) from None


def _read_json(path: str):
    # bytes, decoded here: pathlib's text layer costs more than the decode
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(data.decode())
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{path}: malformed JSON: {exc.msg} (line {exc.lineno} column {exc.colno})"
        ) from None
    except (ValueError, RecursionError) as exc:
        # an integer past the interpreter's digit limit, or nesting past the recursion limit
        raise SchemaError(f"{path}: malformed JSON: {exc}") from None


def _parse_splits(splits: tuple[str, ...]) -> tuple[tuple[int, str], ...]:
    """Each --split STAGE:POINT as a (stage, point) pair."""
    entries = []
    for spec_text in splits:
        stage_text, _, point = spec_text.partition(":")
        if not point:
            raise InputError(f"--split wants STAGE:POINT, got {spec_text!r}")
        try:
            stage = int(stage_text)
        except ValueError:
            raise InputError(f"--split stage {stage_text!r} is not an integer") from None
        entries.append((stage, point))
    return tuple(entries)


def _canonical_probes(tree) -> list[SliceObject]:
    """One probe per base level (the ball quotient itself) plus a constant probe."""
    point_space = FiniteSpace(id="pt", points=("pt",))
    constant = Surjection(tree.levels[0], point_space, {b: "pt" for b in tree.levels[0].points})
    return [SliceObject(tree, 0, point_space, constant)] + [
        SliceObject(tree, alpha, level, identity(level)) for alpha, level in enumerate(tree.levels)
    ]


def _task_json(task: FraisseTask) -> dict:
    """The fields of a task entry that its split determines."""
    src = task.arrow.src
    return {
        "stage": task.stage,
        "source_points": list(src.target.points),
        "source_level": src.level,
        "source_map": dict(src.quotient_map.mapping),
        "arrow_map": dict(task.arrow.q.mapping),
    }


def _probe_json(probe: SliceObject) -> dict:
    """The fields of a probe entry that the canonical probe determines."""
    return {
        "target_points": list(probe.target.points),
        "level": probe.level,
        "target_map": dict(probe.quotient_map.mapping),
    }


def _check_task_witness(sliced: SlicedSequence, task: FraisseTask, beta: int, witness) -> None:
    """A task's absorption witness at stage beta: a slice arrow from phis[beta]
    onto the task's source with bonding(stage, beta) = arrow o witness.
    Raises ValueError when it is not one."""
    SliceArrow(sliced.phis[beta], task.arrow.src, witness)
    if compose(task.arrow.q, witness) != sliced.seq.bonding(task.stage, beta):
        raise ValueError(f"bonding({task.stage},{beta}) is not arrow o witness")


def _presentation(config: RunConfig) -> tuple[GenericPresentation, dict]:
    """Embed the input tree, and state the embedding as the presentation
    section (params, space, sequence, ambient, eta) that embedding and
    retraction certificates share."""
    tree = serial.tree_from_json(_read_json(config.inputs[0]), name=config.inputs[0])
    schedule = PaddingSchedule(config.pad_base, config.pad_growth)
    pres = embed_generic(tree, config.depth, schedule, _parse_splits(config.splits))
    section = {
        "params": {
            "depth": config.depth,
            "pad_base": config.pad_base,
            "pad_growth": config.pad_growth,
            "seed_label": config.seed_label,
            "splits": list(config.splits),
        },
        "space": serial.tree_to_json(tree),
        "sequence": serial.sliced_to_json(pres.sliced),
        "ambient": serial.tree_to_json(pres.ambient),
        "eta": {x: list(t) for x, t in pres.eta.items()},
    }
    return pres, section


def cmd_embed(config: RunConfig) -> dict:
    pres, section = _presentation(config)
    probes = _canonical_probes(pres.space)
    report = verify_fraisse(pres.sliced, (), probes, bound=config.bounds)
    if not report.ok:
        raise RuntimeError("engine bug: freshly built sequence failed its own certification")
    for tag, task in pres.build.tasks:
        witness = pres.build.witnesses[tag]
        try:
            _check_task_witness(pres.sliced, task, witness.beta, witness.mapping)
        except ValueError as exc:
            raise RuntimeError(f"engine bug: the build's witness for task {tag!r} fails: {exc}") from None
    image = [t[-1] for t in pres.eta.values()]
    image_witness = is_uniformly_nowhere_dense(pres.ambient, image)
    if isinstance(image_witness, NowhereDenseFailure):
        raise RuntimeError(
            f"engine bug: the embedded image is not uniformly nowhere dense: fails at level "
            f"{image_witness.level} inside ball {image_witness.ball!r}"
        )
    payload = {
        "kind": "embedding-certificate",
        **section,
        "witness": serial.witness_to_json(image_witness),
        "tasks": [
            {
                "tag": tag,
                **_task_json(task),
                "witness_beta": pres.build.witnesses[tag].beta,
                "witness_map": dict(pres.build.witnesses[tag].mapping.mapping),
            }
            for tag, task in pres.build.tasks
        ],
        "probes": [
            {
                **_probe_json(probe),
                "witness_stage": result.level,
                "witness_map": dict(result.mapping.mapping),
            }
            for probe, result in zip(probes, report.probes)
        ],
        "log": list(pres.build.log),
    }
    payload["integrity"] = serial.content_digest(payload)
    return payload


def cmd_extend(config: RunConfig) -> dict:
    data = _read_json(config.inputs[0])
    serial.require(isinstance(data, dict), "extend input: expected an object")
    ambient = serial.tree_from_json(data.get("ambient"), name="extend input ambient")
    src_points = serial.label_list(data.get("src"), "extend input: 'src'")
    dst_points = serial.label_list(data.get("dst"), "extend input: 'dst'")
    mapping = serial.label_map(data.get("map"), "extend input: 'map'")
    src_pres = presentation_from_subset(ambient, src_points)
    dst_pres = presentation_from_subset(ambient, dst_points)
    level_maps = extend_homeo(PartialHomeo(src_pres, dst_pres, mapping))
    payload = {
        "kind": "extension-certificate",
        "ambient": serial.tree_to_json(ambient),
        "src_points": list(src_points),
        "dst_points": list(dst_points),
        "mapping": mapping,
        "levels": [
            {"level": level, "map": dict(table)} for level, table in enumerate(level_maps)
        ],
    }
    payload["integrity"] = serial.content_digest(payload)
    return payload


def cmd_retract(config: RunConfig) -> dict:
    pres, section = _presentation(config)
    arrow = retract_onto(pres)
    payload = {
        "kind": "retraction-certificate",
        **section,
        "reindex": list(arrow.reindex),
        "maps": [dict(m.mapping) for m in arrow.maps],
        "table": retraction_table(pres.ambient, arrow),
    }
    payload["integrity"] = serial.content_digest(payload)
    return payload


Check = tuple[str, str, str]  # name, status, detail


def _check(checks: list[Check], name: str, fn) -> bool:
    try:
        fn()
    except (AssertionError, ValueError, KeyError) as exc:
        checks.append((name, "fail", str(exc) or repr(exc)))
        return False
    except MemoryError:
        raise  # a capacity limit of this run, not a verdict on the certificate
    except Exception as exc:
        # any other error inside a check is a failed check too, never a traceback
        checks.append((name, "fail", f"{type(exc).__name__}: {exc}"))
        return False
    checks.append((name, "pass", ""))
    return True


def _verify_presentation(checks: list[Check], sections: dict):
    """Re-check the presentation section of an embedding or retraction
    certificate: the sequence clause by clause, then the ambient tree and the
    eta table, which the sequence determines, re-derived and compared with
    the stated ones.  Returns (params, space, sliced, ambient, eta), or None
    once the sequence checks fail."""
    params, space = sections["params"], sections["space"]
    spaces, steps, phis = sections["sequence"]
    holder: dict[str, SlicedSequence] = {}

    def assemble():
        if len(steps) != params["depth"]:
            raise ValueError(f"params depth {params['depth']} but the sequence has {len(steps)} steps")
        _check_padded_spaces(params, space, spaces)
        holder["sliced"] = SlicedSequence(InverseSequence(spaces, steps), phis)

    if not _check(checks, "sequence wiring and slice compatibility", assemble):
        return None
    sliced = holder["sliced"]
    report = check_coherent(sliced.seq)
    if not _check(
        checks,
        "sequence is coherent with surjective steps",
        lambda: _raise_unless(report.ok, "; ".join(report.issues[:3])),
    ):
        return None

    ambient = from_sequence(sliced.seq)
    ambient_raw = sections["ambient"]
    _check(
        checks,
        "ambient tree equals the rebuilt sequence tree",
        lambda: _raise_unless(_same_json(ambient_raw, serial.tree_to_json(ambient)), "trees differ"),
    )
    stated = sections["eta"]
    eta = eta_threads(sliced, ambient)

    def run():
        if set(stated) != set(eta):
            raise ValueError("eta table does not cover exactly the base points")
        for x, thread in eta.items():
            if stated[x] != thread:
                raise ValueError(f"eta entry for {x!r} disagrees with the slice maps")
        if len({t[-1] for t in eta.values()}) != len(eta):
            raise ValueError("eta table is not injective")

    _check(checks, "eta table matches the sequence and is injective", run)
    return params, space, sliced, ambient, eta


def _check_padded_spaces(params: dict, space, spaces: tuple[FiniteSpace, ...]) -> None:
    """Each sequence space i must be the padded space the build makes: id
    L{l}P{k} with l = min(i, space depth) and k strictly increasing, points
    the level-l balls followed by p0..p{n-1}, n = pad_base * pad_growth**k.
    The index must be the one the pad count needs before a pad size is
    computed from it, so a huge index fails instead of allocating."""
    schedule = PaddingSchedule(params["pad_base"], params["pad_growth"])
    last = -1
    for i, sp in enumerate(spaces):
        level = min(i, space.depth)
        prefix = f"L{level}P"
        digits = sp.id[len(prefix):]
        if not (digits.isascii() and digits.isdigit()) or sp.id != f"{prefix}{int(digits)}":
            raise ValueError(f"space {i} has id {sp.id!r}, want {prefix}<pad index>")
        index = int(digits)
        if index <= last:
            raise ValueError(f"space {i}: pad index {index} does not exceed {last}")
        last = index
        balls = space.levels[level].points
        count = len(sp) - len(balls)
        if schedule.min_index_for(count) != index or schedule.pad(index) != count:
            raise ValueError(f"space {i}: {count} pad points are not pad_base * pad_growth**{index}")
        if sp.points != balls + tuple(f"p{j}" for j in range(count)):
            raise ValueError(f"space {i}: points are not the level-{level} balls and p0..p{count - 1}")


def _verify_embedding(sections: dict) -> list[Check]:
    checks: list[Check] = []
    presented = _verify_presentation(checks, sections)
    if presented is None:
        return checks
    params, space, sliced, ambient, eta = presented
    tasks, probes, witness = sections["tasks"], sections["probes"], sections["witness"]
    image = [t[-1] for t in eta.values()]

    witness_report = validate_witness(ambient, image, witness)
    _check(
        checks,
        "nowhere-density witness is valid",
        lambda: _raise_unless(witness_report.ok, "; ".join(witness_report.issues[:3])),
    )

    def minimality():
        if is_uniformly_nowhere_dense(ambient, image) != witness:
            raise ValueError("exhaustive search disagrees with the stated witness")
    _check(checks, "witness matches the exhaustive search", minimality)

    @functools.cache
    def scheduled() -> dict:  # tag -> (stage, point)
        splits = _parse_splits(params["splits"])
        return dict(zip(split_tags(splits), splits))

    canonical = _canonical_probes(space)

    def stated_lists():
        tags = [entry["tag"] for entry in tasks]
        want = list(scheduled())
        if not all(isinstance(tag, str) for tag in tags) or sorted(tags) != sorted(want):
            raise ValueError(f"task tags {tags!r} are not the scheduled splits {want!r}")
        determined = [_probe_json(p) for p in canonical]
        stated = [{key: e[key] for key in determined[0]} for e in probes]
        if not _same_json(stated, determined):
            raise ValueError("probes are not the canonical probes of the space")
    _check(checks, "tasks and probes are those params and space determine", stated_lists)

    top = sliced.seq.length
    tasks_ok = True
    for i, entry in enumerate(tasks):
        def task_check(entry=entry):
            # the split the tag names determines the task; only its witness was searched for
            tag = entry["tag"]
            split = scheduled().get(tag)
            if split is None or split[0] > top:
                raise ValueError(f"task tag {tag!r} names no split of this sequence")
            task = split_task(sliced.phis[split[0]], *split)
            for key, want in _task_json(task).items():
                if not _same_json(entry[key], want):
                    raise ValueError(f"{key} is not the one {tag!r} determines")
            beta = _index_field(entry, "witness_beta", top)
            witness_map = serial.map_from_json(
                entry["witness_map"], sliced.seq.spaces[beta], task.arrow.src.target, "task witness"
            )
            _check_task_witness(sliced, task, beta, witness_map)
        tasks_ok &= _check(checks, f"task {entry['tag']} absorption witness", task_check)

    def log_lines():
        want = []
        for i, sp in enumerate(sliced.seq.spaces[1:], start=1):
            want.append(stage_log_line(i, sp))
            want += [
                task_log_line(e["tag"], e["stage"], i, e["witness_map"])
                for e in tasks
                if e["witness_beta"] == i
            ]
        for n, (got, expected) in enumerate(itertools.zip_longest(sections["log"], want)):
            if got != expected:
                raise ValueError(f"log line {n} is {got!r}, expected {expected!r}")

    # the log restates the task witnesses, so it is compared with them only
    # once each has passed its own check
    if tasks_ok:
        _check(checks, "log matches the sequence and the task witnesses", log_lines)

    for i, entry in enumerate(probes):
        def probe_check(i=i, entry=entry):
            probe = canonical[i]
            stage = _index_field(entry, "witness_stage", top)
            witness_map = serial.map_from_json(
                entry["witness_map"], sliced.seq.spaces[stage], probe.target, "probe witness"
            )
            SliceArrow(sliced.phis[stage], probe, witness_map)
        _check(checks, f"probe {i} reachability witness", probe_check)
    return checks


def _verify_extension(sections: dict) -> list[Check]:
    checks: list[Check] = []
    ambient, mapping, tables = sections["ambient"], sections["mapping"], sections["levels"]
    src = presentation_from_subset(ambient, sections["src_points"])
    dst = presentation_from_subset(ambient, sections["dst_points"])

    _check(checks, "level maps are bijections", lambda: check_level_bijections(ambient, ambient, tables))
    _check(checks, "level maps commute with parents", lambda: check_level_parents(ambient, ambient, tables))
    _check(checks, "level maps extend the point mapping", lambda: check_level_extension(src, dst, mapping, tables))
    return checks


def _verify_retraction(sections: dict) -> list[Check]:
    checks: list[Check] = []
    presented = _verify_presentation(checks, sections)
    if presented is None:
        return checks
    _, space, sliced, ambient, eta = presented
    reindex, table = sections["reindex"], sections["table"]
    holder: dict[str, SequenceArrow] = {}

    def arrow_check():
        _raise_unless(
            len(reindex) == space.depth + 1 and all(0 <= r <= ambient.depth for r in reindex),
            "reindex malformed",
        )
        maps = tuple(
            serial.map_from_json(m, ambient.levels[reindex[i]], space.levels[i], f"retract map {i}")
            for i, m in enumerate(sections["maps"])
        )
        holder["arrow"] = SequenceArrow(
            src=ball_quotients(ambient), dst=ball_quotients(space), reindex=reindex, maps=maps
        )
    _check(checks, "retraction is a natural arrow of sequences", arrow_check)
    if "arrow" not in holder:
        return checks
    # the arrow is natural, so its point table states it (see retraction_table)
    derived = retraction_table(ambient, holder["arrow"])

    _check(checks, "retraction is a left inverse of the embedding", lambda: check_restores(eta, derived))

    def table_check():
        if table != derived:
            w = next((w for w in derived if table.get(w) != derived[w]), None)
            raise ValueError(
                f"table entry for {w!r} disagrees with the arrow" if w is not None
                else "table has entries off the ambient points"
            )
    _check(checks, "point table matches the arrow", table_check)

    def certified_levels():
        for m, (level, _) in enumerate(retraction_components(ambient, space, derived)):
            if level != reindex[m]:
                raise ValueError(f"component {m} does not factor first at level {reindex[m]}")
    _check(checks, "reindex levels are the exact factoring levels", certified_levels)
    return checks


def lift_certificate_payload(pres, f: Surjection, b: dict, g: dict, result) -> dict:
    """Serialize a lifting problem and its solution over a subset presentation."""
    if pres.level_offset != 0:
        raise InputError("lift certificates cover subset presentations only")
    payload = {
        "kind": "lift-certificate",
        "ambient": serial.tree_to_json(pres.ambient),
        "subset": sorted(pres.eta),
        "f_source": list(f.dom.points),
        "f_target": list(f.cod.points),
        "f": dict(f.mapping),
        "b": dict(b),
        "g": dict(g),
        "beta": result.beta,
        "ball_table": dict(result.ball_table),
        "avoid_families": {y: list(v) for y, v in result.avoid_families.items()},
        "image_families": {y: list(v) for y, v in result.image_families.items()},
    }
    payload["integrity"] = serial.content_digest(payload)
    return payload


def _verify_lift(sections: dict) -> list[Check]:
    checks: list[Check] = []
    ambient, f, b, g = sections["ambient"], sections["f"], sections["b"], sections["g"]
    beta, table = sections["beta"], sections["ball_table"]
    avoid, image = sections["avoid_families"], sections["image_families"]
    pres = presentation_from_subset(ambient, sections["subset"])

    _check(checks, "lift square commutes", lambda: check_square(pres, f, b, g))

    _check(checks, "lift equations hold pointwise", lambda: lift_on_points(pres, f, b, g, beta, table))

    def families():
        seen: set[str] = set()
        marked = pres.holders(beta)
        for y in f.dom.points:
            for label in avoid[y]:
                if label in seen:
                    raise ValueError(f"ball {label!r} assigned twice")
                seen.add(label)
                if label in marked:
                    raise ValueError(f"avoid ball {label!r} meets the embedded image")
                if table.get(label) != y:
                    raise ValueError(f"avoid ball {label!r} not routed to {y!r}")
            for label in image[y]:
                if label in seen:
                    raise ValueError(f"ball {label!r} assigned twice")
                seen.add(label)
                if label not in marked:
                    raise ValueError(f"image ball {label!r} misses the embedded image")
                if table.get(label) != y:
                    raise ValueError(f"image ball {label!r} not routed to {y!r}")
        if seen != set(ambient.levels[beta].points):
            raise ValueError("families do not partition the level")

    _check(checks, "avoid/image families partition the level", families)
    return checks


def _raise_unless(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _same_json(got, want) -> bool:
    """got == want, with every number of want stated with its JSON type:
    `==` alone takes true and 1.0 for 1.  A string equals only a string, so
    lists and objects of strings need no walk."""
    if got != want:
        return False
    if type(want) is dict:
        got, want = map(got.get, want), want.values()
    elif type(want) is not list:
        return type(got) is type(want)
    kinds = set(map(type, want))
    if kinds == {int}:
        return set(map(type, got)) == {int}
    return kinds <= {str} or all(map(_same_json, got, want))


def _index_field(entry: dict, key: str, top: int) -> int:
    """entry[key] as an int in [0, top]; ValueError (a FAIL line) otherwise."""
    value = entry[key]
    if type(value) is not int or not 0 <= value <= top:
        raise ValueError(f"{key} {value!r} is not an integer in [0, {top}]")
    return value


def cmd_verify(config: RunConfig) -> tuple[list[Check], int]:
    payload = _read_json(config.inputs[0])
    checks: list[Check] = []
    # on a payload that is not an object this check fails, and the schema pass rejects it
    _check(
        checks,
        "content digest matches",
        lambda: _raise_unless(
            payload.get("integrity") == serial.content_digest(payload), "digest mismatch"
        ),
    )
    kind, sections = serial.certificate_from_json(payload)
    verifiers = {
        "embedding-certificate": _verify_embedding,
        "extension-certificate": _verify_extension,
        "retraction-certificate": _verify_retraction,
        "lift-certificate": _verify_lift,
    }
    try:
        checks += verifiers[kind](sections)
    except InputError as exc:
        checks.append(("certificate content re-derivation", "fail", str(exc)))
    failed = [c for c in checks if c[1] == "fail"]
    return checks, 1 if failed else 0


def _write(path, text: str) -> None:
    """Write ASCII text as bytes, without pathlib's text layer."""
    try:
        with open(path, "wb") as handle:
            handle.write(text.encode())
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from None


def _emit(config: RunConfig, payload: dict, summary: str) -> None:
    text = serial.dumps(payload)
    if config.out:
        _write(config.out, text)
        print(f"{summary} -> {config.out}")
    else:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)


def _run_verify(config: RunConfig) -> int:
    checks, code = cmd_verify(config)
    for name, status, detail in checks:
        line = f"{status.upper()} {name}"
        if detail:
            line += f": {detail}"
        print(line)
    print(f"{config.inputs[0]}: {'ok' if code == 0 else 'FAILED'}")
    return code


def cmd_demo(config: RunConfig) -> int:
    out_dir = config.out or "demo-out"
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise SchemaError(f"cannot write {out_dir}: {exc}") from None

    k4_path = os.path.join(out_dir, "k4.json")
    _write(k4_path, serial.dumps(serial.tree_to_json(k4())))
    binary_path = os.path.join(out_dir, "binary3.json")
    _write(binary_path, serial.dumps(serial.tree_to_json(binary_tree(3))))

    embed_cfg = config.replace(
        command="embed",
        inputs=(k4_path,),
        out=os.path.join(out_dir, "k4-embedding.json"),
        splits=("1:p0", "2:00"),
    )
    _emit(embed_cfg, cmd_embed(embed_cfg), "embedding certificate")

    extend_input = {
        "ambient": serial.tree_to_json(binary_tree(3)),
        "src": ["000"],
        "dst": ["111"],
        "map": {"000": "111"},
    }
    extend_in_path = os.path.join(out_dir, "swap-input.json")
    _write(extend_in_path, serial.dumps(extend_input))
    extend_cfg = config.replace(
        command="extend",
        inputs=(extend_in_path,),
        out=os.path.join(out_dir, "swap-extension.json"),
    )
    _emit(extend_cfg, cmd_extend(extend_cfg), "extension certificate")

    retract_cfg = embed_cfg.replace(
        command="retract", out=os.path.join(out_dir, "k4-retraction.json"), splits=()
    )
    _emit(retract_cfg, cmd_retract(retract_cfg), "retraction certificate")

    worst = 0
    for cert in ("k4-embedding.json", "swap-extension.json", "k4-retraction.json"):
        verify_cfg = config.replace(command="verify", inputs=(os.path.join(out_dir, cert),))
        checks, code = cmd_verify(verify_cfg)
        status = "ok" if code == 0 else "FAILED"
        print(f"{cert}: {status} ({len(checks)} checks)")
        worst = max(worst, code)
    return worst


USAGE = """\
usage: ultrafraisse {embed,extend,retract,verify} INPUT [options]
       ultrafraisse demo [options]

Build and verify generic-embedding certificates over ball trees.

commands:
  embed     embed a tree into a generic limit
  extend    extend a bijection of embedded sets
  retract   retract a generic limit onto the tree
  verify    re-verify a certificate
  demo      run the bundled pipeline

options (any command, before or after INPUT; --opt VALUE or --opt=VALUE):
  --depth N             sequence length to build (default 4)
  --pad-base N          padding schedule base (default 2)
  --pad-growth N        padding schedule growth (default 2)
  --bounds N            budget for embed's stage-0 probe enumeration (default 200000)
  --out PATH            output path
  --seed-label TEXT     label recorded in certificates verbatim
  --split STAGE:POINT   schedule a point-splitting task (repeatable)
  -h, --help            show this text
"""

COMMANDS = ("embed", "extend", "retract", "verify", "demo")

# option -> (RunConfig field, value conversion); --split appends, the others
# keep their last value
_OPTIONS = {
    "--depth": ("depth", int),
    "--pad-base": ("pad_base", int),
    "--pad-growth": ("pad_growth", int),
    "--bounds": ("bounds", int),
    "--out": ("out", str),
    "--seed-label": ("seed_label", str),
    "--split": ("splits", str),
}


def _is_option(token: str) -> bool:
    """A token naming an option; "-" and negative integers are values."""
    return len(token) > 1 and token[0] == "-" and not token[1:].isdigit()


def _parse_args(argv: list[str]) -> RunConfig:
    """The command line as a RunConfig; SchemaError when it is malformed."""
    command = argv[0] if argv else None
    if command not in COMMANDS:
        raise SchemaError(f"command must be one of {', '.join(COMMANDS)}; got {command!r}")
    fields: dict = {}
    splits: list[str] = []
    inputs: list[str] = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not _is_option(token):
            inputs.append(token)
            continue
        name, eq, value = token.partition("=")
        if name not in _OPTIONS:
            raise SchemaError(f"unknown option {name}")
        if not eq:
            value = next(tokens, None)
            if value is None or _is_option(value):
                raise SchemaError(f"{name} needs a value")
        field, convert = _OPTIONS[name]
        try:
            value = convert(value)
        except ValueError:
            raise SchemaError(f"{name} wants an integer, got {value!r}") from None
        if field == "splits":
            splits.append(value)
        else:
            fields[field] = value
    wanted = 0 if command == "demo" else 1
    if len(inputs) != wanted:
        raise SchemaError(f"{command} takes {wanted} input path(s), got {len(inputs)}")
    return RunConfig(command=command, inputs=tuple(inputs), splits=tuple(splits), **fields)


_PRODUCERS = {
    "embed": (cmd_embed, "embedding certificate"),
    "extend": (cmd_extend, "extension certificate"),
    "retract": (cmd_retract, "retraction certificate"),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(USAGE)
        return 0
    try:
        config = _parse_args(argv)
        if config.command == "verify":
            return _run_verify(config)
        if config.command == "demo":
            return cmd_demo(config)
        produce, summary = _PRODUCERS[config.command]
        _emit(config, produce(config), summary)
        return 0
    except SchemaError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except DepthError as exc:
        print(f"depth/capacity error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        # library-level contract violations triggered by user data
        print(f"input error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print("depth/capacity error: out of memory", file=sys.stderr)
        return 3
    except Exception as exc:
        # a fault of the program, kept apart from a verification failure (1)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import ultrafraisse

from ultrafraisse import serial
from ultrafraisse.cli import main
from ultrafraisse.fixtures import binary_tree, k4


@pytest.fixture
def k4_path(tmp_path):
    path = tmp_path / "k4.json"
    path.write_text(serial.dumps(serial.tree_to_json(k4())))
    return path


@pytest.fixture
def swap_input_path(tmp_path):
    path = tmp_path / "swap.json"
    path.write_text(
        serial.dumps(
            {
                "ambient": serial.tree_to_json(binary_tree(3)),
                "src": ["000"],
                "dst": ["111"],
                "map": {"000": "111"},
            }
        )
    )
    return path


def run(*argv):
    return main([str(a) for a in argv])


def test_tree_roundtrip():
    tree = binary_tree(3)
    data = serial.tree_to_json(tree)
    back = serial.tree_from_json(data)
    assert serial.tree_to_json(back) == data


def test_embed_writes_verifiable_certificate(tmp_path, k4_path, capsys):
    out = tmp_path / "embed.json"
    assert run("embed", k4_path, "--depth", "4", "--out", out) == 0
    assert run("verify", out) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("PASS") for line in lines)
    assert not any(line.startswith("FAIL") for line in lines)


def test_embed_with_splits_records_tasks(tmp_path, k4_path):
    out = tmp_path / "embed.json"
    assert run("embed", k4_path, "--depth", "4", "--split", "1:p0", "--out", out) == 0
    cert = json.loads(out.read_text())
    assert cert["tasks"] and cert["tasks"][0]["tag"] == "split:1:p0"
    assert any("task split:1:p0" in line for line in cert["log"])
    assert run("verify", out) == 0


def test_extend_certificate_roundtrip(tmp_path, swap_input_path):
    out = tmp_path / "ext.json"
    assert run("extend", swap_input_path, "--out", out) == 0
    assert run("verify", out) == 0


def test_retract_certificate_roundtrip(tmp_path, k4_path):
    out = tmp_path / "ret.json"
    assert run("retract", k4_path, "--depth", "4", "--out", out) == 0
    assert run("verify", out) == 0


def test_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"depth": 1,,}')
    assert run("embed", bad) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_missing_input_exits_2(tmp_path):
    assert run("retract", tmp_path / "absent.json") == 2


def test_certificate_that_is_not_utf8_is_a_parse_error(tmp_path, k4_path, capsys):
    out = tmp_path / "embed.json"
    assert run("embed", k4_path, "--depth", "3", "--out", out) == 0
    capsys.readouterr()
    bad = tmp_path / "latin1.json"
    bad.write_bytes(out.read_bytes().replace(b'"kind"', b'"kind\xe9"', 1))
    assert run("verify", bad) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "not UTF-8" in err
    (tmp_path / "ff.json").write_bytes(b"\xff")
    assert run("verify", tmp_path / "ff.json") == 2


def test_tree_that_is_not_utf8_is_a_parse_error(tmp_path, k4_path, capsys):
    bad = tmp_path / "tree.json"
    bad.write_bytes(b"\xff" + k4_path.read_bytes())
    assert run("embed", bad, "--depth", "3") == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "not UTF-8" in err


def test_schema_violation_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"depth": 2, "levels": [["a"]], "parents": []}))
    assert run("embed", bad) == 2


def test_depth_too_small_exits_3(k4_path):
    assert run("embed", k4_path, "--depth", "1") == 3


def test_non_homeomorphism_exits_4(tmp_path):
    path = tmp_path / "badmap.json"
    path.write_text(
        serial.dumps(
            {
                "ambient": serial.tree_to_json(binary_tree(3)),
                "src": ["000", "011"],
                "dst": ["000", "111"],
                "map": {"000": "000", "011": "111"},
            }
        )
    )
    assert run("extend", path) == 4


def test_clopen_subset_exits_4(tmp_path):
    path = tmp_path / "clopen.json"
    path.write_text(
        serial.dumps(
            {
                "ambient": serial.tree_to_json(binary_tree(3)),
                "src": ["000", "001"],
                "dst": ["110", "111"],
                "map": {"000": "110", "001": "111"},
            }
        )
    )
    assert run("extend", path) == 4


@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: c["eta"].__setitem__(next(iter(c["eta"])), ["*", "p0", "p0", "p0", "p0", "p0"]),
        lambda c: c["witness"]["levels"][0]["choices"].update(
            {k: "" for k in c["witness"]["levels"][0]["choices"]}
        ),
        lambda c: c["sequence"]["steps"][0].update(
            {k: c["sequence"]["spaces"][0]["points"][0] for k in c["sequence"]["steps"][0]}
        ),
        lambda c: c["tasks"][0]["witness_map"].update(
            {k: c["tasks"][0]["source_points"][0] for k in c["tasks"][0]["witness_map"]}
        ),
    ],
    ids=["eta-entry", "witness-choice", "step-table", "task-witness"],
)
def test_mutated_embedding_certificate_fails(tmp_path, k4_path, mutate, capsys):
    out = tmp_path / "embed.json"
    assert run("embed", k4_path, "--depth", "4", "--split", "1:p0", "--out", out) == 0
    cert = json.loads(out.read_text())
    mutate(cert)
    mutated = tmp_path / "mutated.json"
    mutated.write_text(serial.dumps(cert))
    assert run("verify", mutated) == 1
    assert any(line.startswith("FAIL") for line in capsys.readouterr().out.splitlines())


def test_single_flip_always_detected_by_digest(tmp_path, k4_path, capsys):
    out = tmp_path / "embed.json"
    run("embed", k4_path, "--depth", "4", "--out", out)
    cert = json.loads(out.read_text())
    # flip one pad routing in the last step: semantically free, caught by digest
    last = cert["sequence"]["steps"][-1]
    key = next(k for k, v in last.items() if k.startswith("p") and v.startswith("p"))
    values = [v for v in last.values() if v.startswith("p")]
    last[key] = next(v for v in values if v != last[key])
    mutated = tmp_path / "mutated.json"
    mutated.write_text(serial.dumps(cert))
    assert run("verify", mutated) == 1
    assert "digest" in capsys.readouterr().out


def test_extension_mutation_fails(tmp_path, swap_input_path, capsys):
    out = tmp_path / "ext.json"
    run("extend", swap_input_path, "--out", out)
    cert = json.loads(out.read_text())
    table = cert["levels"][1]["map"]
    table["0"], table["1"] = table["1"], table["0"]
    mutated = tmp_path / "mutated.json"
    mutated.write_text(serial.dumps(cert))
    assert run("verify", mutated) == 1


def _set_level_map(level, table):
    def mutate(cert):
        cert["levels"][level]["map"] = table
    return mutate


def _identity_levels(cert):
    for entry in cert["levels"]:
        entry["map"] = {label: label for label in entry["map"]}


@pytest.mark.parametrize(
    "mutate, lines",
    [
        (
            _set_level_map(2, {"00": "10", "01": "10", "10": "00", "11": "01"}),
            [
                "FAIL level maps are bijections: level 2 map is not a bijection of the level",
                "FAIL level maps commute with parents: parent compatibility fails at '000' (level 3)",
                "FAIL level maps extend the point mapping: extension clause fails at '000'",
            ],
        ),
        (
            _set_level_map(1, {"0": "0", "1": "1"}),
            [
                "PASS level maps are bijections",
                "FAIL level maps commute with parents: parent compatibility fails at '00' (level 2)",
                "FAIL level maps extend the point mapping: extension clause fails at '000'",
            ],
        ),
        (
            _identity_levels,
            [
                "PASS level maps are bijections",
                "PASS level maps commute with parents",
                "FAIL level maps extend the point mapping: extension clause fails at '000'",
            ],
        ),
    ],
    ids=["bijection", "parents", "extension"],
)
def test_extension_fail_lines(tmp_path, swap_input_path, mutate, lines, capsys):
    # the demo's swap extension, its level maps edited and the digest restated
    out = tmp_path / "ext.json"
    assert run("extend", swap_input_path, "--out", out) == 0
    cert = json.loads(out.read_text())
    mutate(cert)
    cert["integrity"] = serial.content_digest(cert)
    mutated = tmp_path / "mutated.json"
    mutated.write_text(serial.dumps(cert))
    capsys.readouterr()
    assert run("verify", mutated) == 1
    assert capsys.readouterr().out.splitlines()[1:4] == lines


@pytest.mark.parametrize(
    "command, clause, check",
    [
        ("extend", "check_level_parents", "level maps commute with parents"),
        ("retract", "check_restores", "retraction is a left inverse of the embedding"),
    ],
    ids=["extend", "retract"],
)
def test_producer_and_verify_run_one_clause(tmp_path, swap_input_path, k4_path, command, clause, check,
                                             monkeypatch, capsys):
    # the producer's closing self-check is the function verify runs: broken,
    # it is an internal error of the producer and a FAIL line of verify
    from ultrafraisse import cli, generic

    source = swap_input_path if command == "extend" else k4_path
    out = tmp_path / "cert.json"
    assert run(command, source, "--depth", "3", "--out", out) == 0

    def broken(*args):
        raise AssertionError("broken clause")

    assert getattr(cli, clause) is getattr(generic, clause)
    monkeypatch.setattr(generic, clause, broken)
    monkeypatch.setattr(cli, clause, broken)
    capsys.readouterr()
    assert run(command, source, "--depth", "3", "--out", tmp_path / "again.json") == 5
    assert capsys.readouterr().err == "internal error: AssertionError: broken clause\n"
    assert run("verify", out) == 1
    assert f"FAIL {check}: broken clause" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("level", [99, True, "1", 1.0, None], ids=["99", "true", "str", "float", "null"])
def test_extension_level_field_is_checked(tmp_path, swap_input_path, level, capsys):
    # levels are matched by list position, so a stated `level` other than the
    # integer position is malformed even though every table is intact
    out = tmp_path / "ext.json"
    assert run("extend", swap_input_path, "--out", out) == 0
    cert = json.loads(out.read_text())
    cert["levels"][1]["level"] = level
    cert["integrity"] = serial.content_digest(cert)
    mutated = tmp_path / "mutated.json"
    mutated.write_text(serial.dumps(cert))
    capsys.readouterr()
    assert run("verify", mutated) == 2
    assert "levels malformed" in capsys.readouterr().err


def test_internal_error_has_its_own_exit_code(tmp_path, k4_path, monkeypatch, capsys):
    from ultrafraisse import cli

    def broken(config):
        raise KeyError("lost label")

    monkeypatch.setitem(cli._PRODUCERS, "embed", (broken, "embedding certificate"))
    capsys.readouterr()
    assert run("embed", k4_path, "--depth", "2", "--out", tmp_path / "x.json") == 5
    assert capsys.readouterr().err == "internal error: KeyError: 'lost label'\n"


def test_embed_checks_the_build_witnesses_it_writes(tmp_path, k4_path, monkeypatch, capsys):
    from ultrafraisse import cli
    from ultrafraisse.spaces import Surjection

    real = cli.embed_generic

    def corrupted(*args):
        # swap the images of two stage points whose images the task arrow keeps apart
        pres = real(*args)
        tag, witness = next(iter(pres.build.witnesses.items()))
        q = dict(pres.build.tasks)[tag].arrow.q
        mapping = dict(witness.mapping.mapping)
        x = next(iter(mapping))
        y = next(p for p in mapping if q(mapping[p]) != q(mapping[x]))
        mapping[x], mapping[y] = mapping[y], mapping[x]
        bad = witness.replace(mapping=Surjection(witness.mapping.dom, witness.mapping.cod, mapping))
        return pres.replace(build=pres.build.replace(witnesses={**pres.build.witnesses, tag: bad}))

    monkeypatch.setattr(cli, "embed_generic", corrupted)
    capsys.readouterr()
    out = tmp_path / "x.json"
    assert run("embed", k4_path, "--depth", "3", "--split", "1:p0", "--out", out) == 5
    assert "engine bug: the build's witness for task 'split:1:p0' fails" in capsys.readouterr().err
    assert not out.exists()


def test_embed_checks_the_nowhere_density_search_it_writes(tmp_path, k4_path, monkeypatch, capsys):
    from ultrafraisse import cli
    from ultrafraisse.balltree import NowhereDenseFailure

    failure = NowhereDenseFailure(level=2, ball="b")
    monkeypatch.setattr(cli, "is_uniformly_nowhere_dense", lambda *args: failure)
    capsys.readouterr()
    out = tmp_path / "x.json"
    assert run("embed", k4_path, "--depth", "3", "--out", out) == 5
    err = capsys.readouterr().err
    assert "engine bug: the embedded image is not uniformly nowhere dense: fails at level 2" in err
    assert not out.exists()


def test_retract_computes_no_nowhere_density_witness(tmp_path, k4_path, monkeypatch):
    from ultrafraisse import balltree, cli, generic

    def unwanted(*args):
        raise RuntimeError("retraction certificates carry no nowhere-density witness")

    for module in (balltree, cli, generic):
        monkeypatch.setattr(module, "is_uniformly_nowhere_dense", unwanted)
    monkeypatch.setattr(generic.GenericPresentation, "holders", unwanted)
    out = tmp_path / "ret.json"
    assert run("retract", k4_path, "--depth", "4", "--split", "1:p0", "--out", out) == 0
    assert out.exists()


def test_retraction_mutation_fails(tmp_path, k4_path):
    out = tmp_path / "ret.json"
    run("retract", k4_path, "--depth", "4", "--out", out)
    cert = json.loads(out.read_text())
    any_key = next(iter(cert["table"]))
    cert["table"][any_key] = "00" if cert["table"][any_key] != "00" else "01"
    mutated = tmp_path / "mutated.json"
    mutated.write_text(serial.dumps(cert))
    assert run("verify", mutated) == 1


def test_verify_runs_the_exhaustive_search_under_tiny_bounds(tmp_path, k4_path, capsys):
    # the search is linear in the ambient tree, so no bound skips it
    out = tmp_path / "embed.json"
    run("embed", k4_path, "--depth", "4", "--out", out)
    capsys.readouterr()
    assert run("verify", out, "--bounds", "1") == 0
    lines = capsys.readouterr().out.splitlines()
    assert "PASS witness matches the exhaustive search" in lines
    assert not any(line.startswith("SKIP") for line in lines)


def test_outputs_are_byte_identical(tmp_path, k4_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run("embed", k4_path, "--depth", "4", "--split", "1:p0", "--out", a)
    run("embed", k4_path, "--depth", "4", "--split", "1:p0", "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_demo_pipeline(tmp_path, capsys):
    assert run("demo", "--out", tmp_path / "demo") == 0
    out = capsys.readouterr().out
    assert out.count(": ok") == 3


def test_embed_one_point_tree(tmp_path):
    path = tmp_path / "pt.json"
    path.write_text(serial.dumps({"depth": 1, "levels": [["o"], ["o"]], "parents": [[0]]}))
    out = tmp_path / "pt-embed.json"
    assert run("embed", path, "--depth", "3", "--out", out) == 0
    cert = json.loads(out.read_text())
    assert list(cert["eta"]) == ["o"]
    assert run("verify", out) == 0


def test_extend_identity_map(tmp_path):
    path = tmp_path / "ident.json"
    path.write_text(
        serial.dumps(
            {
                "ambient": serial.tree_to_json(binary_tree(3)),
                "src": ["000", "111"],
                "dst": ["000", "111"],
                "map": {"000": "000", "111": "111"},
            }
        )
    )
    out = tmp_path / "ident-ext.json"
    assert run("extend", path, "--out", out) == 0
    assert run("verify", out) == 0
    cert = json.loads(out.read_text())
    assert all(k == v for k, v in cert["levels"][3]["map"].items())


def test_lift_certificate_roundtrip(tmp_path):
    from ultrafraisse.cli import lift_certificate_payload
    from ultrafraisse.generic import lift_through_generic, presentation_from_subset
    from ultrafraisse.spaces import FiniteSpace, Surjection

    tree = binary_tree(3)
    pres = presentation_from_subset(tree, ["000", "111"])
    x_space = FiniteSpace("X", ("x0", "x1"))
    y_space = FiniteSpace("Y", ("y0", "y1", "extra"))
    f = Surjection(y_space, x_space, {"y0": "x0", "y1": "x1", "extra": "x1"})
    g = {w: ("x0" if w.startswith("0") else "x1") for w in tree.points}
    b = {"000": "y0", "111": "y1"}
    result = lift_through_generic(pres, f, b, g)
    payload = lift_certificate_payload(pres, f, b, g, result)
    path = tmp_path / "lift.json"
    path.write_text(serial.dumps(payload))
    assert run("verify", path) == 0
    # rerouting one avoiding ball breaks the partition check
    payload["ball_table"][payload["avoid_families"]["extra"][0]] = "y0"
    mutated = tmp_path / "lift-mut.json"
    mutated.write_text(serial.dumps(payload))
    assert run("verify", mutated) == 1


def test_bad_padding_parameters_exit_4(k4_path):
    assert run("embed", k4_path, "--pad-base", "1") == 4


def test_split_of_unknown_point_exits_4(k4_path):
    assert run("embed", k4_path, "--split", "1:zz") == 4


@pytest.mark.parametrize(
    "options, code, message",
    [
        # a negative stage is rejected before it can index the stages from the end
        (["--split=-1:p0"], 4, "stage must be nonnegative"),
        (["--split", "1:p0", "--split", "1:p0"], 4, "task tags must be distinct"),
        (["--depth", "4", "--split", "9:p0"], 3, "unserviced tasks ['split:9:p0']"),
        # a bad point at a built stage is reported before the unserviced stage
        (["--split=2:zz", "--split=9:p0"], 4, "'zz' is not a point of stage 2"),
    ],
    ids=["negative-stage", "repeated-split", "stage-past-depth", "bad-point-first"],
)
def test_split_edge_cases(k4_path, options, code, message, capsys):
    assert run("embed", k4_path, *options) == code
    captured = capsys.readouterr()
    assert message in captured.err and not captured.out


def test_out_in_a_missing_directory_is_a_parse_error(tmp_path, k4_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert run("embed", k4_path, "--out", out) == 2
    assert capsys.readouterr().err.startswith(f"parse error: cannot write {out}: ")
    assert not (tmp_path / "missing").exists()


def test_out_that_is_a_directory_is_a_parse_error(tmp_path, k4_path, capsys):
    out = tmp_path / "dir"
    out.mkdir()
    assert run("embed", k4_path, "--out", out) == 2
    assert capsys.readouterr().err.startswith(f"parse error: cannot write {out}: ")
    assert list(out.iterdir()) == []


def test_demo_out_that_is_a_file_is_a_parse_error(tmp_path, capsys):
    out = tmp_path / "file"
    out.write_text("kept\n")
    assert run("demo", "--out", out) == 2
    assert capsys.readouterr().err.startswith(f"parse error: cannot write {out}: ")
    assert out.read_text() == "kept\n" and sorted(tmp_path.iterdir()) == [out]


ABSORPTION = "absorption witness"
STATED_LISTS = "tasks and probes are those params and space determine"


@pytest.mark.parametrize(
    "mutate, code, check",
    [
        (lambda c: c["tasks"][0].update(stage=99), 1, ABSORPTION),
        (lambda c: c["tasks"][0].update(stage="1"), 1, ABSORPTION),
        (lambda c: c["tasks"][0].update(witness_beta=99), 1, ABSORPTION),
        (lambda c: c["tasks"][0].update(source_level=-1), 1, ABSORPTION),
        (lambda c: c["tasks"][0].update(source_points=5), 1, ABSORPTION),
        (lambda c: c.update(tasks=5), 2, None),
        (lambda c: c.update(probes=[5]), 2, None),
        # each value compares equal to the integer it replaces, so only the type can fail it
        (lambda c: c["tasks"][0].update(stage=True), 1, ABSORPTION),
        (lambda c: c["tasks"][0].update(source_level=1.0), 1, ABSORPTION),
        (lambda c: c["probes"][1].update(level=True), 1, STATED_LISTS),
    ],
    ids=["stage-99", "stage-str", "witness-beta-99", "source-level-negative",
         "source-points-int", "tasks-int", "probe-int", "stage-true", "source-level-float",
         "probe-level-true"],
)
def test_malformed_task_fields_fail_without_traceback(tmp_path, k4_path, mutate, code, check, capsys):
    out = tmp_path / "embed.json"
    assert run("embed", k4_path, "--depth", "4", "--split", "1:p0", "--out", out) == 0
    cert = json.loads(out.read_text())
    mutate(cert)
    cert["integrity"] = serial.content_digest(cert)
    mutated = tmp_path / "mutated.json"
    mutated.write_text(serial.dumps(cert))
    capsys.readouterr()
    assert run("verify", mutated) == code
    captured = capsys.readouterr()
    if code == 1:
        fails = [line for line in captured.out.splitlines() if line.startswith("FAIL")]
        assert fails and all(check in line for line in fails)
    else:
        assert "parse error" in captured.err


def _verify_fails(tmp_path, cert, capsys) -> list[str]:
    """Re-digest a mutated certificate, verify it and return its FAIL lines."""
    cert["integrity"] = serial.content_digest(cert)
    path = tmp_path / "mutated.json"
    path.write_text(serial.dumps(cert))
    capsys.readouterr()
    assert run("verify", path) == 1
    return [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]


def test_task_other_than_its_split_fails_its_absorption_check(tmp_path, k4_path, capsys):
    # restate task 0 as the identity arrow on its stage, with a witness, a log
    # line and a digest that all agree with it: only the split can tell
    from ultrafraisse.engine import task_log_line

    out = tmp_path / "embed.json"
    assert run("embed", k4_path, "--depth", "4", "--split", "1:p0", "--split", "2:00", "--out", out) == 0
    cert = json.loads(out.read_text())
    space = serial.tree_from_json(cert["space"])
    seq = serial.sliced_from_json(cert["sequence"], space).seq
    task = cert["tasks"][0]
    stage, beta = task["stage"], task["witness_beta"]
    phi = cert["sequence"]["phis"][stage]
    points = cert["sequence"]["spaces"][stage]["points"]
    task.update(
        source_points=points,
        source_level=phi["level"],
        source_map=phi["map"],
        arrow_map={p: p for p in points},
        witness_map=dict(seq.bonding(stage, beta).mapping),
    )
    prefix = f"task {task['tag']}:"
    cert["log"] = [
        task_log_line(task["tag"], stage, beta, task["witness_map"]) if line.startswith(prefix) else line
        for line in cert["log"]
    ]
    fails = _verify_fails(tmp_path, cert, capsys)
    assert len(fails) == 1
    assert fails[0].startswith(f"FAIL task {task['tag']} absorption witness: ")


def test_retraction_table_with_a_key_off_the_ambient_fails(tmp_path, k4_path, capsys):
    out = tmp_path / "retract.json"
    assert run("retract", k4_path, "--depth", "4", "--out", out) == 0
    cert = json.loads(out.read_text())
    cert["table"]["*"] = next(iter(cert["table"].values()))
    fails = _verify_fails(tmp_path, cert, capsys)
    assert len(fails) == 1
    assert fails[0].startswith("FAIL point table matches the arrow: ")


def _set_all(row: list, value) -> None:
    row[:] = [value] * len(row)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: c["witness"]["levels"][0].update(alpha=0.0),
        lambda c: c["witness"]["levels"][1].update(alpha=True),
        lambda c: c["witness"]["levels"][0].update(beta=True),
        lambda c: _set_all(c["ambient"]["parents"][0], False),
        lambda c: c["sequence"]["phis"][1].update(level=True),
    ],
    ids=["alpha-float", "alpha-true", "beta-true", "parents-false", "phi-level-true"],
)
def test_integer_fields_reject_bools_and_floats(tmp_path, k4_path, mutate, capsys):
    # each value compares equal to the integer it replaces, so only the type can fail it
    out = tmp_path / "embed.json"
    assert run("embed", k4_path, "--depth", "4", "--split", "1:p0", "--out", out) == 0
    cert = json.loads(out.read_text())
    mutate(cert)
    cert["integrity"] = serial.content_digest(cert)
    mutated = tmp_path / "mutated.json"
    mutated.write_text(serial.dumps(cert))
    capsys.readouterr()
    assert run("verify", mutated) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def certificates(tmp_path_factory):
    """One certificate of each kind from the golden grid, keyed by its `kind`."""
    from test_golden import CASES

    certs = {}
    for name in ("embed-k4-d4-split", "retract-k4-d4", "extend-b3", "lift-b3"):
        cert = json.loads(CASES[name](tmp_path_factory.mktemp(name)).read_text())
        certs[cert["kind"]] = cert
    return certs


FUZZ_KEYS = {
    "lift-certificate": (
        "kind", "f_source", "f_target", "subset", "b", "g", "ball_table",
        "avoid_families", "image_families",
    ),
    "extension-certificate": ("kind", "src_points", "dst_points", "mapping", "levels"),
    "retraction-certificate": ("kind", "maps", "table", "params"),
    "embedding-certificate": ("kind", "params"),
}
FUZZ_VALUES = (5, "x", None, [], {}, [5], {"a": 5})


def _assert_verify_rejects_cleanly(tmp_path, cert, capsys):
    """Verify exits 2 with a parse error, or 1 with a FAIL line; it never raises."""
    cert["integrity"] = serial.content_digest(cert)
    path = tmp_path / "fuzzed.json"
    path.write_text(serial.dumps(cert))
    capsys.readouterr()
    code = run("verify", path)
    captured = capsys.readouterr()
    if code == 1:
        assert any(line.startswith("FAIL") for line in captured.out.splitlines())
    else:
        assert code == 2 and "parse error" in captured.err


@pytest.mark.parametrize(
    "kind, key, value",
    [(kind, key, value) for kind, keys in FUZZ_KEYS.items() for key in keys for value in FUZZ_VALUES],
    ids=lambda v: json.dumps(v),
)
def test_top_level_field_types_never_crash_verify(tmp_path, certificates, kind, key, value, capsys):
    cert = json.loads(json.dumps(certificates[kind]))
    cert[key] = value
    _assert_verify_rejects_cleanly(tmp_path, cert, capsys)


@pytest.mark.parametrize(
    "kind, key, value",
    [(kind, key, value)
     for kind, key in (("extension-certificate", "levels"), ("retraction-certificate", "reindex"))
     for value in FUZZ_VALUES + (99,)],
    ids=lambda v: json.dumps(v),
)
def test_list_entry_types_never_crash_verify(tmp_path, certificates, kind, key, value, capsys):
    cert = json.loads(json.dumps(certificates[kind]))
    cert[key] = [value] * len(cert[key])
    _assert_verify_rejects_cleanly(tmp_path, cert, capsys)


@pytest.mark.parametrize("kind", ["embedding-certificate", "retraction-certificate"])
@pytest.mark.parametrize(
    "key, value",
    [("depth", "x"), ("depth", 9), ("depth", 0), ("depth", True), ("pad_base", "x"),
     ("pad_growth", None), ("seed_label", 5), ("splits", "1:p0"), ("splits", [5])],
    ids=lambda v: json.dumps(v),
)
def test_params_fields_are_checked_by_verify(tmp_path, certificates, kind, key, value, capsys):
    cert = json.loads(json.dumps(certificates[kind]))
    cert["params"][key] = value
    _assert_verify_rejects_cleanly(tmp_path, cert, capsys)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: c.update(tasks=[]),
        lambda c: c.update(probes=[]),
        lambda c: c["probes"].pop(),
        lambda c: c["probes"][1].update(level=1),
        lambda c: c["params"].update(splits=[]),
        lambda c: c["params"]["splits"].append("3:zz"),
        lambda c: c["tasks"][0].update(tag=5),
    ],
    ids=["no-tasks", "no-probes", "probe-dropped", "probe-level", "no-splits", "extra-split",
         "tag-int"],
)
def test_tasks_and_probes_must_match_params_and_space(tmp_path, certificates, mutate, capsys):
    cert = json.loads(json.dumps(certificates["embedding-certificate"]))
    mutate(cert)
    cert["integrity"] = serial.content_digest(cert)
    path = tmp_path / "mutated.json"
    path.write_text(serial.dumps(cert))
    capsys.readouterr()
    assert run("verify", path) == 1
    assert "FAIL tasks and probes are those params and space determine" in capsys.readouterr().out


def test_split_order_does_not_matter_to_verify(tmp_path, k4_path):
    out = tmp_path / "embed.json"
    assert run("embed", k4_path, "--split", "2:00", "--split", "1:p0", "--out", out) == 0
    assert [t["tag"] for t in json.loads(out.read_text())["tasks"]] == ["split:1:p0", "split:2:00"]
    assert run("verify", out) == 0


def test_extra_retraction_map_never_crashes_verify(tmp_path, certificates, capsys):
    cert = json.loads(json.dumps(certificates["retraction-certificate"]))
    cert["maps"].append(cert["maps"][-1])
    _assert_verify_rejects_cleanly(tmp_path, cert, capsys)


@pytest.mark.parametrize("value", [[], {"a": 5}, ["embedding-certificate"]], ids=json.dumps)
def test_non_string_kind_is_a_parse_error(tmp_path, certificates, value, capsys):
    cert = dict(certificates["embedding-certificate"], kind=value)
    cert["integrity"] = serial.content_digest(cert)
    path = tmp_path / "kind.json"
    path.write_text(serial.dumps(cert))
    assert run("verify", path) == 2
    assert "certificate kind" in capsys.readouterr().err


def test_option_spellings_and_positions_give_the_same_certificate(tmp_path, k4_path):
    outs = [tmp_path / f"{i}.json" for i in range(3)]
    assert run("embed", k4_path, "--depth", "4", "--split", "1:p0", "--out", outs[0]) == 0
    assert run("embed", "--depth=4", "--split=1:p0", f"--out={outs[1]}", k4_path) == 0
    assert run("embed", "--depth", "3", "--split", "1:p0", k4_path, "--depth=4", "--out", outs[2]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


def test_repeated_split_appends_in_order(tmp_path, k4_path):
    out = tmp_path / "embed.json"
    assert run("embed", k4_path, "--split", "2:00", "--out", out, "--split=1:p0") == 0
    assert json.loads(out.read_text())["params"]["splits"] == ["2:00", "1:p0"]


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["embed", "--help"], ["verify", "x.json", "-h"]])
def test_help_prints_usage_and_returns_0(argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: ultrafraisse") and "--split STAGE:POINT" in out


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["lift", "x.json"],
        ["--depth", "4", "embed", "x.json"],
        ["embed", "x.json", "--bogus", "1"],
        ["embed", "x.json", "--dep", "4"],
        ["embed", "x.json", "--depth"],
        ["embed", "x.json", "--out", "--depth", "4"],
        ["embed", "x.json", "--depth", "four"],
        ["embed", "x.json", "--bounds=1e3"],
        ["embed"],
        ["verify", "--bounds", "1"],
        ["embed", "x.json", "y.json"],
        ["demo", "x.json"],
    ],
    ids=["no-command", "unknown-command", "option-before-command", "unknown-option",
         "abbreviation", "missing-value", "option-as-value", "non-int", "non-int-equals",
         "missing-input", "missing-input-verify", "extra-input", "demo-with-input"],
)
def test_malformed_command_line_is_a_parse_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "Traceback" not in err


def test_verify_imports_no_argparse_gettext_or_locale(tmp_path, k4_path):
    cert = tmp_path / "embed.json"
    assert run("embed", k4_path, "--out", cert) == 0
    script = (
        "import sys\n"
        "from ultrafraisse.cli import main\n"
        f"code = main(['verify', {str(cert)!r}])\n"
        "print(code, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    src = str(Path(ultrafraisse.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"


@pytest.mark.parametrize("kind", ["embedding-certificate", "retraction-certificate"])
@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: c["params"].update(pad_growth=1),
        lambda c: c["params"].update(pad_base=999),
        lambda c: c["params"].update(pad_base=3),
        lambda c: c["sequence"]["spaces"][1].update(id="L1P01"),
        lambda c: c["sequence"]["spaces"][0].update(id="L0P" + "9" * 40),
        lambda c: c["sequence"]["spaces"][1].update(id="L0P9"),
        lambda c: c["sequence"]["spaces"][1].update(id="L1P"),
    ],
    ids=["growth-1", "base-999", "base-3", "id-leading-zero", "index-huge", "id-level", "id-no-index"],
)
def test_padding_must_match_params(tmp_path, certificates, kind, mutate, capsys):
    cert = json.loads(json.dumps(certificates[kind]))
    mutate(cert)
    cert["integrity"] = serial.content_digest(cert)
    path = tmp_path / "mutated.json"
    path.write_text(serial.dumps(cert))
    capsys.readouterr()
    assert run("verify", path) == 1
    assert "FAIL sequence wiring and slice compatibility" in capsys.readouterr().out


def test_pad_index_must_increase():
    from ultrafraisse.cli import _check_padded_spaces
    from ultrafraisse.spaces import FiniteSpace

    params = {"pad_base": 2, "pad_growth": 2}
    spaces = (
        FiniteSpace("L0P0", ("", "p0", "p1")),
        FiniteSpace("L1P0", ("0", "1", "p0", "p1")),
    )
    with pytest.raises(ValueError, match="pad index 0 does not exceed 0"):
        _check_padded_spaces(params, k4(), spaces)
    _check_padded_spaces(params, k4(), spaces[:1])


@pytest.mark.parametrize("value", [5, [5], None], ids=json.dumps)
def test_log_must_be_a_list_of_strings(tmp_path, certificates, value, capsys):
    cert = dict(certificates["embedding-certificate"], log=value)
    cert["integrity"] = serial.content_digest(cert)
    path = tmp_path / "log.json"
    path.write_text(serial.dumps(cert))
    assert run("verify", path) == 2
    assert "log must be a list of strings" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate",
    [
        lambda log: log.pop(),
        lambda log: log.pop(2),
        lambda log: log.__setitem__(2, log[2][:-1] + ("0" if log[2][-1] != "0" else "1")),
        lambda log: log.__setitem__(0, log[0].replace("size=", "size=1")),
        lambda log: log.append(log[-1]),
        lambda log: log.insert(0, log.pop(2)),
    ],
    ids=["last-dropped", "task-dropped", "digest-edited", "size-edited", "line-added", "reordered"],
)
def test_log_must_match_sequence_and_task_witnesses(tmp_path, certificates, mutate, capsys):
    cert = json.loads(json.dumps(certificates["embedding-certificate"]))
    assert cert["log"][2].startswith("task split:1:p0: ")
    mutate(cert["log"])
    cert["integrity"] = serial.content_digest(cert)
    path = tmp_path / "log.json"
    path.write_text(serial.dumps(cert))
    capsys.readouterr()
    assert run("verify", path) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1
    assert fails[0].startswith("FAIL log matches the sequence and the task witnesses")


def test_exhaustive_search_runs_at_depth_7_under_default_bounds(tmp_path, capsys):
    tree_path = tmp_path / "b3.json"
    tree_path.write_text(serial.dumps(serial.tree_to_json(binary_tree(3))))
    out = tmp_path / "embed.json"
    argv = ("embed", tree_path, "--depth", "7", "--split", "1:p0", "--split", "2:00", "--out", out)
    assert run(*argv) == 0
    capsys.readouterr()
    assert run("verify", out) == 0
    assert "PASS witness matches the exhaustive search" in capsys.readouterr().out.splitlines()


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no integer digit limit"
)
def test_integer_past_the_digit_limit_is_a_parse_error(tmp_path, certificates, capsys):
    cert = json.loads(json.dumps(certificates["embedding-certificate"]))
    text = serial.dumps(cert).replace(
        f'"pad_base": {cert["params"]["pad_base"]}', '"pad_base": ' + "9" * 5000
    )
    assert "9" * 5000 in text
    path = tmp_path / "huge.json"
    path.write_text(text)
    assert run("verify", path) == 2
    assert "parse error" in capsys.readouterr().err


def test_nesting_past_the_recursion_limit_is_a_parse_error(tmp_path, capsys):
    # balanced and otherwise valid, deeper than both the interpreter's and the
    # decoder's own nesting limits, so only the depth can make it fail
    depth = max(100_000, sys.getrecursionlimit() + 100)
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + "]" * depth)
    assert run("verify", path) == 2
    assert "parse error" in capsys.readouterr().err


def test_any_exception_inside_a_check_is_a_fail_line(tmp_path, k4_path, monkeypatch, capsys):
    import ultrafraisse.cli as cli

    def crash():
        raise TypeError("unhashable type: 'list'")

    checks = []
    assert cli._check(checks, "some check", crash) is False
    assert checks == [("some check", "fail", "TypeError: unhashable type: 'list'")]

    out = tmp_path / "embed.json"
    assert run("embed", k4_path, "--depth", "3", "--out", out) == 0

    def broken_writer(tree):
        raise IndexError("tuple index out of range")

    # the ambient check compares the stated section with the rebuilt tree's JSON form
    monkeypatch.setattr(serial, "tree_to_json", broken_writer)
    capsys.readouterr()
    assert run("verify", out) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert fails == [
        "FAIL ambient tree equals the rebuilt sequence tree: IndexError: tuple index out of range"
    ]


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    """demo's embedding, retraction and extension, an embedding built with
    no splits and a lift from `lift_certificate_payload`, by name."""
    from test_golden import CASES

    out = tmp_path_factory.mktemp("demo")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["demo", "--out", str(out)]) == 0
    paths = {name: out / f"{name}.json" for name in ("k4-embedding", "k4-retraction", "swap-extension")}
    for name in ("embed-k4-d4", "lift-b3"):
        paths[name] = CASES[name](tmp_path_factory.mktemp(name))
    return {name: json.loads(path.read_text()) for name, path in paths.items()}


def _verify_payload(tmp_path, cert, capsys) -> tuple[int, str, str]:
    """Re-digest a certificate, verify it and return the exit code, stdout and stderr."""
    cert["integrity"] = serial.content_digest(cert)
    path = tmp_path / "cert.json"
    path.write_text(serial.dumps(cert))
    capsys.readouterr()
    code = run("verify", path)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "name", ["k4-embedding", "k4-retraction", "swap-extension", "embed-k4-d4", "lift-b3"]
)
def test_every_key_the_producer_writes_is_required(tmp_path, produced, name, capsys):
    keys = [key for key in produced[name] if key != "integrity"]
    assert "kind" in keys and len(keys) >= 6
    for key in keys:
        cert = json.loads(json.dumps(produced[name]))
        del cert[key]
        code, _, err = _verify_payload(tmp_path, cert, capsys)
        assert code == 2, key
        assert err.startswith("parse error: ")


@pytest.mark.parametrize(
    "name, key",
    [
        ("k4-embedding", "witness"),
        ("k4-embedding", "eta"),
        ("k4-embedding", "ambient"),
        ("k4-retraction", "table"),
        ("k4-retraction", "ambient"),
    ],
)
def test_sections_are_read_before_any_check(tmp_path, produced, name, key, capsys):
    cert = json.loads(json.dumps(produced[name]))
    step = cert["sequence"]["steps"][0]
    step.update(dict.fromkeys(step, cert["sequence"]["spaces"][0]["points"][0]))
    code, out, _ = _verify_payload(tmp_path, cert, capsys)
    assert code == 1
    assert "FAIL sequence is coherent with surjective steps" in out
    # a malformed section is a parse error even though a check fails before it is used
    cert[key] = 5
    code, out, err = _verify_payload(tmp_path, cert, capsys)
    assert code == 2 and out == ""
    assert err.startswith("parse error: ")


def run_capped(cap_mib: int, *args) -> tuple[int, str, float]:
    """Run the CLI in a child whose address space is capped at `cap_mib`,
    so a regression fails fast instead of filling the machine; return its
    exit code, stderr and peak resident memory in MiB."""
    cap = cap_mib * 2**20
    env = dict(os.environ, PYTHONPATH=str(Path(ultrafraisse.__file__).resolve().parent.parent))
    child = subprocess.Popen(
        [sys.executable, "-m", "ultrafraisse.cli", *map(str, args)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    err = child.stderr.read().decode()
    child.stderr.close()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, err, usage.ru_maxrss / 1024


def test_a_deep_space_cannot_take_verify_down(tmp_path, produced):
    # a 20,000-level path as the embedded space: about 1.2 MB of certificate
    cert = json.loads(json.dumps(produced["k4-embedding"]))
    n = 20_000
    cert["space"] = {"depth": n, "levels": [[f"b{a}"] for a in range(n + 1)], "parents": [[0]] * n}
    cert["integrity"] = serial.content_digest(cert)
    path = tmp_path / "deep.json"
    path.write_text(serial.dumps(cert))
    code, err, peak_mib = run_capped(400, "verify", path)
    assert code == 2, err
    assert err.startswith("parse error: sequence: phi 0: ")
    assert peak_mib < 100


def test_running_out_of_memory_is_a_capacity_error(k4_path, tmp_path):
    code, err, _ = run_capped(160, "embed", k4_path, "--depth", 40, "--out", tmp_path / "deep.json")
    assert (code, err) == (3, "depth/capacity error: out of memory\n")
    assert not (tmp_path / "deep.json").exists()
    code, err, _ = run_capped(160, "embed", k4_path, "--depth", 6, "--out", tmp_path / "d6.json")
    assert (code, err) == (0, "")

"""The verifier is total: a certificate with any one field deleted or
replaced by a value of another shape exits 0, 1 or 2 with a consistent
report, never with a traceback, an input error or an internal error."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from ultrafraisse import serial
from ultrafraisse.cli import lift_certificate_payload, main
from ultrafraisse.fixtures import binary_tree
from ultrafraisse.generic import lift_through_generic, presentation_from_subset
from ultrafraisse.spaces import FiniteSpace, Surjection

POOL = (None, True, 1.5, -1, 0, 2**40, "", "zz", [], {}, [1], {"a": "b"})
DELETE = object()


def _lift_certificate() -> dict:
    tree = binary_tree(3)
    pres = presentation_from_subset(tree, ["000", "111"])
    x_space = FiniteSpace("X", ("x0", "x1"))
    y_space = FiniteSpace("Y", ("y0", "y1", "extra"))
    f = Surjection(y_space, x_space, {"y0": "x0", "y1": "x1", "extra": "x1"})
    g = {w: ("x0" if w.startswith("0") else "x1") for w in tree.points}
    b = {"000": "y0", "111": "y1"}
    return lift_certificate_payload(pres, f, b, g, lift_through_generic(pres, f, b, g))


@pytest.fixture(scope="module")
def certificates(tmp_path_factory):
    """One certificate of each kind, and a file to write mutated ones to."""
    out = tmp_path_factory.mktemp("demo")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["demo", "--out", str(out)]) == 0
    certs = [
        json.loads((out / name).read_text())
        for name in ("k4-embedding.json", "k4-retraction.json", "swap-extension.json")
    ]
    certs.append(_lift_certificate())
    return out / "mutated.json", {cert["kind"]: cert for cert in certs}


def _draw_path(data, cert) -> tuple:
    """A field of the certificate, reached by a walk down from its top
    level that stops at each nonempty container with even odds, so a
    section is drawn about as often as all the entries below it."""
    path, node = (), cert
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        path, node = path + (key,), node[key]
        if not isinstance(node, (dict, list)) or not node or not data.draw(st.booleans()):
            return path


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_one_field_mutation_exits_with_a_consistent_report(certificates, data):
    path_out, certs = certificates
    original = certs[data.draw(st.sampled_from(sorted(certs)), label="kind")]
    path = _draw_path(data, original)
    value = data.draw(st.sampled_from((DELETE,) + POOL), label="value")
    cert = copy.deepcopy(original)
    holder = cert
    for key in path[:-1]:
        holder = holder[key]
    if value is DELETE:
        del holder[path[-1]]
    else:
        holder[path[-1]] = copy.deepcopy(value)
    if path != ("integrity",):
        cert["integrity"] = serial.content_digest(cert)
    path_out.write_text(serial.dumps(cert))

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["verify", str(path_out)])
    assert code in (0, 1, 2), stderr.getvalue()
    checks = stdout.getvalue().splitlines()[:-1]  # the last line is the summary
    assert (code == 1) == any(line.startswith("FAIL") for line in checks)
    if code == 0:
        assert checks and all(line.startswith("PASS") for line in checks)

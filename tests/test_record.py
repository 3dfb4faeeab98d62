"""The record base class behaves like a frozen data class, without one."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ultrafraisse
from ultrafraisse._record import Record
from ultrafraisse.engine import PaddingSchedule, ProbeResult
from ultrafraisse.sequences import Report
from ultrafraisse.spaces import FiniteSpace


class Pair(Record):
    left: int
    right: str = "r"


class OtherPair(Record):
    left: int
    right: str = "r"


class Positive(Record):
    value: int

    def __post_init__(self):
        if self.value <= 0:
            raise ValueError("value must be positive")


def test_equality_and_hash_follow_class_and_fields():
    assert Pair(1, "a") == Pair(1, "a")
    assert hash(Pair(1, "a")) == hash(Pair(1, "a")) == hash((1, "a"))
    assert Pair(1, "a") != Pair(1, "b")
    assert Pair(1, "a") != Pair(2, "a")
    assert Pair(1, "a") != OtherPair(1, "a")
    assert Pair(1, "a") != (1, "a")
    assert len({Pair(1, "a"), Pair(1, "a"), OtherPair(1, "a")}) == 2
    assert hash(Report(("r", "0"))) == hash((("r", "0"),))


def test_caches_are_not_fields():
    space = FiniteSpace("S", ("a", "b"))
    assert space == FiniteSpace("S", ("a", "b"))
    assert space.index("b") == 1  # the cache __post_init__ stored
    assert repr(space) == "FiniteSpace(id='S', points=('a', 'b'))"


def test_repr_names_the_fields():
    assert repr(Pair(1)) == "Pair(left=1, right='r')"
    assert repr(ProbeResult(0, "failed")) == (
        "ProbeResult(index=0, status='failed', level=None, mapping=None, detail='')"
    )


def test_records_are_immutable():
    pair = Pair(1, "a")
    with pytest.raises(AttributeError):
        pair.left = 2
    with pytest.raises(AttributeError):
        pair.extra = 2
    with pytest.raises(AttributeError):
        del pair.left
    assert pair == Pair(1, "a")


def test_construction_by_position_keyword_and_default():
    assert Pair(1, "a") == Pair(left=1, right="a") == Pair(right="a", left=1) == Pair(1, right="a")
    assert Pair(1).right == "r"
    assert Pair(left=1) == Pair(1, "r")
    assert PaddingSchedule() == PaddingSchedule(2, 2)
    assert PaddingSchedule(growth=3) == PaddingSchedule(base=2, growth=3)


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((), {}, "missing required arguments: 'left'"),
        ((), {"right": "a"}, "missing required arguments: 'left'"),
        ((1, "a", 3), {}, "takes 2 positional arguments but 3 were given"),
        ((1,), {"middle": 2}, "unexpected keyword argument 'middle'"),
        ((), {"left": 1, "middle": 2}, "unexpected keyword argument 'middle'"),
        ((1,), {"left": 2}, "multiple values for argument 'left'"),
        ((1, "a"), {"right": "b"}, "multiple values for argument 'right'"),
    ],
)
def test_bad_calls_raise_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Pair(*args, **kwargs)


def test_replace_runs_post_init_again():
    pair = Pair(1, "a")
    assert pair.replace(right="b") == Pair(1, "b")
    assert pair == Pair(1, "a")
    assert Positive(2).replace(value=3) == Positive(3)
    with pytest.raises(ValueError, match="positive"):
        Positive(2).replace(value=0)
    with pytest.raises(TypeError, match="unexpected keyword argument 'other'"):
        pair.replace(other=1)


def test_post_init_set_on_the_class_later_is_seen(monkeypatch):
    seen = []
    original = Positive.__post_init__

    def counting(self):
        seen.append(self.value)
        original(self)

    Positive(1)
    monkeypatch.setattr(Positive, "__post_init__", counting)
    Positive(5)
    with pytest.raises(ValueError):
        Positive(-1)
    monkeypatch.undo()
    Positive(7)
    assert seen == [5, -1]


def test_fields_come_from_annotations_in_order():
    assert Pair._fields == ("left", "right")
    assert FiniteSpace._fields == ("id", "points")
    assert ProbeResult._fields == ("index", "status", "level", "mapping", "detail")


def test_package_import_leaves_out_dataclasses():
    script = (
        "import sys\n"
        "import ultrafraisse.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))\n"
    )
    src = str(Path(ultrafraisse.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    # no command loads OpenSSL, pathlib, tempfile, shutil or random: each
    # raises the resident memory every command process starts from; -S keeps
    # site's own imports out
    script = (
        "import sys\n"
        "import ultrafraisse.cli\n"
        "print(sorted({'hashlib', '_hashlib', 'pathlib', 'tempfile', 'shutil', 'random'} & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"

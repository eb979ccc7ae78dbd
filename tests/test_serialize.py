"""JSON input parsing, number modes, and payload round-trips."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from contractlab import InputError, UsageError
from contractlab.dist import Discrete, PiecewiseConstant
from contractlab.serialize import (
    contract_payload,
    distribution_payload,
    format_number,
    instance_payload,
    load_distribution,
    load_instance,
    load_type_instance,
    parse_number,
)

F = Fraction


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------


def test_parse_number_rational():
    assert parse_number("1/3", "rational", "x") == F(1, 3)
    assert parse_number("0.25", "rational", "x") == F(1, 4)
    assert parse_number(3, "rational", "x") == F(3)
    assert parse_number(0.5, "rational", "x") == F(1, 2)
    # float literals convert through their shortest decimal form
    assert parse_number(0.1, "rational", "x") == F(1, 10)


def test_parse_number_float():
    assert parse_number("1/4", "float", "x") == 0.25
    assert parse_number(0.3, "float", "x") == 0.3
    assert parse_number(2, "float", "x") == 2.0


def test_parse_number_errors():
    with pytest.raises(InputError) as err:
        parse_number("seven", "rational", "F[0][1]")
    assert "F[0][1]" in str(err.value)
    with pytest.raises(InputError):
        parse_number(True, "rational", "x")
    with pytest.raises(InputError):
        parse_number(None, "float", "x")


def test_parse_number_float_refuses_non_finite():
    for value in (float("nan"), float("inf"), -float("inf"), "1e400", "-1e400", 10**400):
        with pytest.raises(InputError, match="no finite float value") as err:
            parse_number(value, "float", "c[1]")
        assert err.value.source == "c[1]"
    # rational mode reads an overflowing decimal exactly, and refuses NaN
    assert parse_number("1e400", "rational", "x") == F(10) ** 400
    with pytest.raises(InputError, match="cannot parse"):
        parse_number(float("nan"), "rational", "x")


def test_format_number():
    assert format_number(F(1, 3)) == "1/3"
    assert format_number(F(2)) == "2"
    assert format_number(5) == 5
    assert format_number(0.25) == 0.25
    with pytest.raises(UsageError):
        format_number(True)


# ---------------------------------------------------------------------------
# File loading
# ---------------------------------------------------------------------------


def write(path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def test_load_instance_roundtrip(tmp_path):
    payload = {
        "F": [["1/2", "1/2"], ["0", "1"]],
        "r": ["0", "1"],
        "c": ["0", "0.5"],
        "labels": ["low", "high"],
    }
    inst = load_instance(write(tmp_path / "i.json", payload), "rational")
    assert inst.F == ((F(1, 2), F(1, 2)), (F(0), F(1)))
    assert inst.c == (F(0), F(1, 2))
    assert inst.labels == ("low", "high")
    back = instance_payload(inst)
    again = load_instance(write(tmp_path / "j.json", back), "rational")
    assert again == inst


def test_load_instance_float_mode(tmp_path):
    payload = {"F": [[0.5, 0.5]], "r": [0.0, 1.0], "c": [0.0]}
    inst = load_instance(write(tmp_path / "i.json", payload), "float")
    assert inst.F == ((0.5, 0.5),)
    assert not inst.exact


def test_load_instance_errors(tmp_path):
    with pytest.raises(InputError) as missing:
        load_instance(write(tmp_path / "m.json", {"F": [["1"]], "r": ["1"]}))
    assert "missing field 'c'" in str(missing.value)
    with pytest.raises(InputError) as bad:
        load_instance(
            write(
                tmp_path / "b.json",
                {"F": [["1", "oops"]], "r": ["0", "1"], "c": ["0"]},
            )
        )
    assert "F[0][1]" in str(bad.value)
    with pytest.raises(InputError):
        load_instance(str(tmp_path / "absent.json"))
    syntax = tmp_path / "s.json"
    syntax.write_text("{not json")
    with pytest.raises(InputError) as je:
        load_instance(str(syntax))
    assert "line 1" in str(je.value)
    # model validation failures surface as input errors with the file name
    with pytest.raises(InputError) as model:
        load_instance(
            write(
                tmp_path / "v.json",
                {"F": [["1/2", "1/4"]], "r": ["0", "1"], "c": ["0"]},
            )
        )
    assert "v.json" in str(model.value)


def test_load_distribution_kinds(tmp_path):
    pw = {
        "kind": "piecewise",
        "breakpoints": ["0", "1/2", "1"],
        "densities": ["3/2", "1/2"],
    }
    d = load_distribution(write(tmp_path / "p.json", pw))
    assert isinstance(d, PiecewiseConstant)
    assert d.densities == (F(3, 2), F(1, 2))
    disc = {
        "kind": "discrete",
        "points": ["1/4", "3/4"],
        "weights": ["1/2", "1/2"],
    }
    d2 = load_distribution(write(tmp_path / "d.json", disc))
    assert isinstance(d2, Discrete)
    with pytest.raises(InputError) as err:
        load_distribution(write(tmp_path / "u.json", {"kind": "normal"}))
    assert "kind" in str(err.value)


def test_load_type_instance(tmp_path):
    disc = {
        "kind": "discrete",
        "points": ["1/4", "3/4"],
        "weights": ["1/2", "1/2"],
    }
    types = load_type_instance(write(tmp_path / "d.json", disc))
    assert types == Discrete(points=(F(1, 4), F(3, 4)), weights=(F(1, 2), F(1, 2)))
    pw = {"kind": "piecewise", "breakpoints": ["0", "1"], "densities": ["1"]}
    with pytest.raises(InputError):
        load_type_instance(write(tmp_path / "p.json", pw))


def test_payload_formatting():
    assert contract_payload((F(0), F(3, 8))) == ["0", "3/8"]
    d = Discrete(points=(F(1, 2),), weights=(F(1),))
    assert distribution_payload(d) == {
        "kind": "discrete",
        "points": ["1/2"],
        "weights": ["1"],
    }
    pw = PiecewiseConstant(breakpoints=(F(0), F(1)), densities=(F(1),))
    assert distribution_payload(pw) == {
        "kind": "piecewise",
        "breakpoints": ["0", "1"],
        "densities": ["1"],
    }


_DESK = {"F": [["1", "0"], ["0", "1"]], "r": ["0", "1"], "c": ["0", "1/2"]}


@pytest.mark.parametrize(
    "load, payload, detail",
    [
        pytest.param(load_instance, ["1"], "top level must be a JSON object", id="top-level"),
        pytest.param(load_instance, {**_DESK, "r": "1"}, "r: expected a list of numbers",
                     id="number-field"),
        pytest.param(load_instance, {**_DESK, "F": []},
                     "field 'F' must be a nonempty list of rows", id="empty-F"),
        pytest.param(load_instance, {**_DESK, "labels": ["idle", 1]},
                     "field 'labels' must be a list of strings", id="labels"),
        pytest.param(load_distribution,
                     {"kind": "piecewise", "breakpoints": ["0", "1"], "densities": ["2"]},
                     "density must integrate to 1 exactly, got 2", id="piecewise"),
        pytest.param(load_distribution,
                     {"kind": "discrete", "points": ["1/2"], "weights": ["1/2"]},
                     "weights must sum to 1 exactly, got 1/2", id="discrete"),
    ],
)
def test_malformed_files_name_the_path(tmp_path, load, payload, detail):
    path = write(tmp_path / "bad.json", payload)
    with pytest.raises(InputError) as err:
        load(path)
    assert str(err.value) == f"{path}: {detail}"

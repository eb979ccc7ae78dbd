"""JSON input and output with exact rational round-tripping.

Numbers in input files may be JSON numbers, decimal strings ("0.25"), or
ratio strings ("1/3"); in rational mode every form parses to an exact
Fraction, with decimals read at face value.  Rationals are emitted as
"p/q" strings so values survive the CLI boundary unchanged.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Any, Literal, Sequence

from .core import Instance
from .dist import Discrete, PiecewiseConstant, TypeDistribution
from .errors import InputError, UsageError
from .numerics import Num

__all__ = [
    "NumberMode",
    "parse_number",
    "format_number",
    "load_instance",
    "load_distribution",
    "load_type_instance",
    "instance_payload",
    "distribution_payload",
    "contract_payload",
]

NumberMode = Literal["rational", "float"]


def parse_number(value: Any, mode: NumberMode, where: str) -> Num:
    """Read one number from decoded JSON; `where` names the field in errors.

    Float mode refuses a number with no finite float value: json reads NaN,
    Infinity and 1e400 as floats, and a ratio or decimal string may
    overflow."""
    if isinstance(value, bool):
        raise InputError(where, f"expected a number, got {value!r}")
    if not isinstance(value, (str, int, float)):
        raise InputError(where, f"expected a number, got {type(value).__name__}")
    if isinstance(value, float) and mode == "float":
        number = value
    else:
        try:
            exact = Fraction(repr(value) if isinstance(value, float) else value)
        except (ValueError, ZeroDivisionError):
            raise InputError(where, f"cannot parse number {value!r}") from None
        if mode == "rational":
            return exact
        try:
            number = float(exact)
        except OverflowError:
            number = math.inf
    if not math.isfinite(number):
        raise InputError(where, f"number {value!r} has no finite float value")
    return number


def format_number(x: Num) -> str | int | float:
    """JSON-ready form: rationals as 'p/q' strings, floats as-is."""
    if isinstance(x, bool):
        raise UsageError(f"not a number: {x!r}")
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, int):
        return x
    return float(x)


def _load_json(path: str) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(path, str(exc)) from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            path, f"line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None


def _require(obj: Any, field: str, path: str) -> Any:
    if not isinstance(obj, dict):
        raise InputError(path, "top level must be a JSON object")
    if field not in obj:
        raise InputError(path, f"missing field '{field}'")
    return obj[field]


def _number_list(values: Any, mode: NumberMode, where: str) -> tuple[Num, ...]:
    if not isinstance(values, list):
        raise InputError(where, "expected a list of numbers")
    return tuple(
        parse_number(v, mode, f"{where}[{i}]") for i, v in enumerate(values)
    )


def load_instance(path: str, mode: NumberMode = "rational") -> Instance:
    """Read an instance file {"F": [[..]], "r": [..], "c": [..], "labels"?}."""
    obj = _load_json(path)
    raw_f = _require(obj, "F", path)
    if not isinstance(raw_f, list) or not raw_f:
        raise InputError(path, "field 'F' must be a nonempty list of rows")
    F = tuple(
        _number_list(row, mode, f"{path}: F[{a}]") for a, row in enumerate(raw_f)
    )
    r = _number_list(_require(obj, "r", path), mode, f"{path}: r")
    c = _number_list(_require(obj, "c", path), mode, f"{path}: c")
    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(
            isinstance(s, str) for s in labels
        ):
            raise InputError(path, "field 'labels' must be a list of strings")
        labels = tuple(labels)
    try:
        return Instance(F=F, r=r, c=c, labels=labels)
    except UsageError as exc:
        raise InputError(path, str(exc)) from None


def load_distribution(path: str, mode: NumberMode = "rational") -> TypeDistribution:
    """Read a distribution file, dispatching on its "kind" field."""
    obj = _load_json(path)
    kind = _require(obj, "kind", path)
    if kind == "piecewise":
        breakpoints = _number_list(
            _require(obj, "breakpoints", path), mode, f"{path}: breakpoints"
        )
        densities = _number_list(
            _require(obj, "densities", path), mode, f"{path}: densities"
        )
        try:
            return PiecewiseConstant(breakpoints=breakpoints, densities=densities)
        except UsageError as exc:
            raise InputError(path, str(exc)) from None
    if kind == "discrete":
        points = _number_list(_require(obj, "points", path), mode, f"{path}: points")
        weights = _number_list(
            _require(obj, "weights", path), mode, f"{path}: weights"
        )
        try:
            return Discrete(points=points, weights=weights)
        except UsageError as exc:
            raise InputError(path, str(exc)) from None
    raise InputError(path, f"unknown distribution kind {kind!r}")


def load_type_instance(path: str, mode: NumberMode = "rational") -> Discrete:
    """Read a discrete distribution file, refusing any other kind."""
    d = load_distribution(path, mode)
    if not isinstance(d, Discrete):
        raise InputError(path, "expected a discrete distribution (kind 'discrete')")
    return d


def instance_payload(inst: Instance) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "F": [[format_number(x) for x in row] for row in inst.F],
        "r": [format_number(x) for x in inst.r],
        "c": [format_number(x) for x in inst.c],
    }
    if inst.labels is not None:
        payload["labels"] = list(inst.labels)
    return payload


def distribution_payload(d: TypeDistribution) -> dict[str, Any]:
    if isinstance(d, Discrete):
        return {
            "kind": "discrete",
            "points": [format_number(x) for x in d.points],
            "weights": [format_number(x) for x in d.weights],
        }
    return {
        "kind": "piecewise",
        "breakpoints": [format_number(x) for x in d.breakpoints],
        "densities": [format_number(x) for x in d.densities],
    }


def contract_payload(p: Sequence[Num]) -> list[str | int | float]:
    return [format_number(x) for x in p]

"""Exception types shared across the package, and the reader of outside inputs.

The CLI maps these onto process exit codes: usage problems exit 1,
validation/configuration problems exit 2, runtime failures exit 3.  Each
outside input declares its fields once, as a table of ``Field`` rows keyed
by name, which ``read_fields`` checks.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping


class DialignError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(DialignError):
    """Two profiles (or a profile and a checkpoint) disagree on schema."""


class ConfigError(DialignError):
    """A configuration object is internally inconsistent or out of range."""


class ProtocolError(DialignError):
    """An API was driven out of order, e.g. step() after the episode ended."""


class CheckpointError(DialignError):
    """A checkpoint file is missing fields or incompatible with the run."""


def _is_integer(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    real = isinstance(value, (int, float, numbers.Real)) and not isinstance(value, bool)
    return real and abs(value) <= sys.float_info.max  # finite, and a float can hold it


def _is_text(value: object) -> bool:
    return isinstance(value, str) and value != ""


# Each JSON kind's words and test.  A list kind's range bounds its entries; a
# list kind takes a tuple too, as a library config holds its lists.
_LISTS = (list, tuple)
KINDS = {
    "integer": ("an integer", _is_integer),
    "number": ("a finite number", _is_number),
    "text": ("non-empty text", _is_text),
    "object": ("an object", lambda v: isinstance(v, dict)),
    "boolean": ("a boolean", lambda v: isinstance(v, bool)),
    "text or object": ("non-empty text or an object", lambda v: isinstance(v, dict) or _is_text(v)),
    "integers": ("a list of integers", lambda v: type(v) in _LISTS and all(map(_is_integer, v))),
    "numbers": ("a list of finite numbers", lambda v: type(v) in _LISTS and all(map(_is_number, v))),
    "texts": ("a list of non-empty text", lambda v: type(v) in _LISTS and all(map(_is_text, v))),
}
REQUIRED = object()  # the default of a field that must be present


@dataclass(frozen=True)
class Field:
    """One field of an outside input.  ``kind`` is a key of ``KINDS``;
    ``low`` and ``high`` bound a number or a list's entries, inclusive unless
    ``strict``; ``size`` is a list's length and ``choices`` a text's values."""

    kind: str
    low: float = -math.inf
    high: float = math.inf
    strict: bool = False
    size: int | None = None
    choices: tuple[str, ...] = ()
    default: object = REQUIRED
    nullable: bool = False

    def words(self) -> tuple[str, str]:
        """The words of this field's kind and of its range."""
        words = [f"of length {self.size}"] if self.size is not None else []
        if self.low > -math.inf:
            sign, ends = (">", "()") if self.strict else (">=", "[]")
            bound = (f"{sign} {self.low}" if self.high == math.inf
                     else f"in {ends[0]}{self.low}, {self.high}{ends[1]}")
            words.append(f"with entries {bound}" if self.kind in ("integers", "numbers") else bound)
        words += [f"equal to {choice!r}" for choice in self.choices]
        return KINDS[self.kind][0] + (" or null" if self.nullable else ""), " ".join(words)

    def accepts(self, value: object) -> bool:
        if value is None:
            return self.nullable
        if (not KINDS[self.kind][1](value) or self.choices and value not in self.choices
                or self.size is not None and len(value) != self.size):  # type: ignore[arg-type]
            return False
        low, high = self.low, self.high
        if low == -math.inf:  # unbounded: every field with a high bound has a low one
            return True
        values = value if type(value) in _LISTS else (value,)
        if self.strict:
            return all(low < x < high for x in values)
        return all(low <= x <= high for x in values)


def read_fields(
    where: str, payload: Mapping, table: Mapping[str, Field], error: type[Exception]
) -> dict:
    """Each field of ``table`` in ``payload``, its default when absent; an unknown key,
    a missing required field or a value its row refuses raise ``error`` after ``where``."""
    unknown = payload.keys() - table.keys()
    if unknown:
        raise error(f"{where}unknown keys {sorted(unknown)}")
    read = {}
    for name, row in table.items():
        value = read[name] = payload.get(name, row.default)
        if value is REQUIRED:
            raise error(f"{where}missing field {name!r}")
        if name in payload and not row.accepts(value):
            words = " ".join(filter(None, row.words()))
            raise error(f"{where}{name} must be {words}, got {value!r}")
    return read


def read_object(path: str | Path, label: str, error: type[Exception]) -> dict:
    """The JSON object in file ``path``.  A directory, text that is not UTF-8 JSON
    and JSON that is not an object raise ``error`` as ``<label> <path>: ...``."""
    try:
        with open(path, "rb") as fh:
            payload = json.loads(fh.read().decode("utf-8"))
    except (IsADirectoryError, ValueError) as exc:
        raise error(f"{label} {path}: not a JSON text file: {exc}") from None
    if not isinstance(payload, dict):
        raise error(f"{label} {path}: must hold a JSON object, got {type(payload).__name__}")
    return payload

"""The canonical JSON form of every document that workers and the combiner exchange.

Shard plans, model specs, worker results, reversible-jump outputs,
conditional NDJSON streams, ``evidence.json`` and ``rj_summary.json`` are
all written as canonical lines by ``dumps``: compact separators, shortest
round-trip (repr) floats, ASCII only and a trailing newline, so identical
inputs give identical bytes.

Every decoder reads its document through ``loads`` and the field readers of
``Document``.  Each key has a type: integers that are not booleans, finite
numbers, strings, objects, numeric arrays of a given shape, or Gaussian
blocks (a finite mean and a symmetric positive definite covariance); null
is accepted only where a reader allows it.  Any failure raises DecodeError,
which the command line reports as E_INPUT.
"""
from __future__ import annotations

import json
import sys
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .errors import DecodeError, SpdError
from .gaussian import chol_spd

_MISSING = object()


def dumps(obj) -> str:
    """The canonical line of ``obj``."""
    return json.dumps(obj, separators=(",", ":")) + "\n"


def loads(text, what: str) -> "Document":
    """Parse one document, which must be a JSON object; ``what`` names it in errors."""
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise DecodeError(f"{what} is not valid JSON: {exc}") from None
    return Document(obj, what)


def numeric(value, shape: Sequence[Optional[int]], what: str, integer: bool = False,
            item: Optional[str] = None) -> np.ndarray:
    """``value`` as a float (or integer) array of ``shape``; None matches any length.

    Strings, booleans, nulls, ragged nesting and non-finite floats are
    rejected.  With ``item``, a non-finite entry is reported by its row, the
    index on the first axis: ``<what> <item> <k>``, k counted from 1.
    """
    try:
        arr = np.array(value)
    except (ValueError, TypeError, OverflowError):
        raise DecodeError(f"{what} is not a rectangular numeric array") from None
    if integer and arr.size == 0:
        arr = arr.astype(np.int64)
    if arr.dtype.kind not in ("iu" if integer else "iuf"):
        raise DecodeError(f"{what} must hold {'integers' if integer else 'numbers'} only")
    if arr.ndim != len(shape) or any(n is not None and n != m for n, m in zip(shape, arr.shape)):
        expected = ", ".join("n" if n is None else str(n) for n in shape)
        raise DecodeError(f"{what} has shape {arr.shape}, expected ({expected})")
    if integer:
        return arr
    arr = arr.astype(float, copy=False)
    finite = np.isfinite(arr)
    if not finite.all():
        where = what
        if item is not None:
            row = int(np.flatnonzero(~finite.reshape(arr.shape[0], -1).all(axis=1))[0])
            where = f"{what} {item} {row + 1}"
        raise DecodeError(f"{where} is not finite")
    return arr


def spd_matrices(rows, d: int, what: str, item: Optional[str] = None) -> np.ndarray:
    """``rows``, N row-major d*d lists, as a finite, symmetric, SPD (N, d, d) stack.

    The stack is checked at once by ``gaussian.chol_spd``.  A failure names
    the first bad matrix as ``<what> <item> <k>`` (k counted from 1) when
    ``item`` is given.
    """
    if d < 1 or len(rows) == 0:
        raise DecodeError(f"{what} holds no {d} x {d} matrix")
    mats = numeric(rows, (None, d * d), what, item=item).reshape(-1, d, d)
    try:
        chol_spd(mats, what, item)
    except SpdError as exc:
        raise DecodeError(str(exc)) from None
    return mats


class Document:
    """A decoded JSON object whose fields are read with their types checked."""

    __slots__ = ("obj", "what")

    def __init__(self, obj, what: str):
        if not isinstance(obj, dict):
            raise DecodeError(f"{what} must be a JSON object")
        self.obj = obj
        self.what = what

    def value(self, key: str, default=_MISSING):
        """The raw value of ``key``; a missing key fails unless there is a default."""
        value = self.obj.get(key, default)
        if value is _MISSING:
            raise self._wrong(key, "present", value)
        return value

    def _wrong(self, key: str, expected: str, value) -> DecodeError:
        if value is _MISSING:
            return DecodeError(f"{self.what} missing key {key!r}")
        return DecodeError(f"{self.what} key {key!r} must be {expected}, got {value!r:.60}")

    def integer(self, key: str, minimum: Optional[int] = None, null: bool = False,
                default=_MISSING) -> Optional[int]:
        value = self.obj.get(key, default)
        if type(value) is int and (minimum is None or value >= minimum):
            return value
        if value is None and null:
            return None
        bound = "" if minimum is None else f" >= {minimum}"
        raise self._wrong(key, f"an integer{bound}", value)

    def number(self, key: str, null: bool = False) -> Optional[float]:
        value = self.obj.get(key, _MISSING)
        # false for NaN, infinities and integers beyond the float range
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
        if value is None and null:
            return None
        raise self._wrong(key, "a finite number" + (" or null" if null else ""), value)

    def string(self, key: str, null: bool = False,
               choices: Optional[Sequence[str]] = None) -> Optional[str]:
        value = self.obj.get(key, _MISSING)
        if type(value) is str and (choices is None or value in choices):
            return value
        if value is None and null:
            return None
        expected = "a string" if choices is None else f"one of {tuple(choices)}"
        raise self._wrong(key, expected, value)

    def sub(self, key: str, default=_MISSING) -> "Document":
        """The object under ``key``."""
        return Document(self.value(key, default), f"{self.what} {key}")

    def items(self) -> Iterator[Tuple[str, "Document"]]:
        """Each key with its value, which must be an object."""
        for key, value in self.obj.items():
            yield key, Document(value, f"{self.what} {key!r}")

    def sequence(self, key: str, length: int) -> list:
        """The list under ``key``, of ``length`` entries; ``numeric`` checks the entries."""
        value = self.obj.get(key, _MISSING)
        if type(value) is list and len(value) == length:
            return value
        raise self._wrong(key, f"a list of {length} entries", value)

    def array(self, key: str, shape: Sequence[Optional[int]], integer: bool = False,
              null: bool = False, default=_MISSING) -> Optional[np.ndarray]:
        value = self.value(key, default)
        if value is None and null:
            return None
        return numeric(value, shape, f"{self.what} {key}", integer)

    def gaussian(self, mean_key: str, cov_key: str, dim: Optional[int] = None,
                 null: bool = False, row_major: bool = True):
        """(mean, cov) of a Gaussian block, or None when both keys are null and ``null``.

        The covariance is a row-major list of dim*dim entries, or a list of
        rows when not ``row_major``; it must be symmetric positive definite.
        """
        if null and self.value(mean_key) is None and self.value(cov_key) is None:
            return None
        mean = self.array(mean_key, (dim,))
        d = mean.shape[0]
        what = f"{self.what} covariance {cov_key!r}"
        cov = self.value(cov_key)
        rows = [cov] if row_major else numeric(cov, (d, d), what).reshape(1, -1)
        return mean, spd_matrices(rows, d, what)[0]

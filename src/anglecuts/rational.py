"""Exact rational parsing, formatting, and small dense linear algebra.

Every quantity this package passes between modules is a
``fractions.Fraction``: arbitrary precision, always in lowest terms,
positive denominator.  The simplex and vertex kernels compute on rows
that ``integer_row`` scales to integers.  Floats are rejected at the
boundary so no rounding error can enter the polyhedral oracles.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

# the decimal exponent of a rational string, read before Fraction expands it
_EXPONENT = re.compile(r"[eE][-+]?([0-9][0-9_]*)\s*\Z")


def parse_rational(value: object, where: str = "value") -> Fraction:
    """Parse a rational from an int or a string like ``"3"``, ``"-1/2"``, ``"0.25"``.

    Floats are rejected: they carry binary rounding error and would poison
    exact tightness and rank tests downstream.  So is a numerator or
    denominator with more digits than ``sys.get_int_max_str_digits()``,
    a decimal exponent before ``Fraction`` expands it.
    """
    limit = sys.get_int_max_str_digits()
    if isinstance(value, bool):
        raise ValueError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, float):
        raise ValueError(f"{where}: floats are not exact; use a decimal or p/q string")
    if isinstance(value, str):
        if limit and ("e" in value or "E" in value) and (exponent := _EXPONENT.search(value)):
            # 10**e alone has e + 1 digits; int() reads only an exponent short enough to print
            digits = exponent[1].replace("_", "")
            if len(digits) >= limit or int(digits) >= limit:
                raise ValueError(f"{where}: decimal exponent in {value[:40]!r} gives more than {limit} digits")
        try:
            value = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{where}: not a rational string: {value!r}") from exc
    elif isinstance(value, int):
        value = Fraction(value)
    elif not isinstance(value, Fraction):
        raise ValueError(f"{where}: expected a rational string or integer, got {type(value).__name__}")
    num, den = value.numerator, value.denominator
    # a part has fewer bits than 3 per digit, so only a long one pays for 10**limit
    if limit and (num.bit_length() > 3 * limit or den.bit_length() > 3 * limit) and max(-num, num, den) >= 10**limit:
        raise ValueError(f"{where}: a numerator or denominator has more than {limit} digits")
    return value


def format_rational(value: Fraction) -> str:
    """Canonical string form: plain integer, else ``p/q`` in lowest terms."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def dense_row(dim: int, entries: Mapping[int, Fraction | int], rhs: Fraction | int = 0) -> tuple[tuple[Fraction, ...], Fraction]:
    """Dense (coeffs, rhs) of the row sum of entries[j] * x_j against rhs;
    every coefficient not in entries is zero.  The one row constructor of
    the exact layer."""
    coeffs = [Fraction(0)] * dim
    for j, value in entries.items():
        coeffs[j] = Fraction(value)
    return tuple(coeffs), Fraction(rhs)


def integer_row(coeffs: Sequence[Fraction | int], rhs: Fraction | int, where: str) -> tuple[list[int], int, int]:
    """The row coeffs . x <= rhs (or == rhs) as integer numerators, an
    integer right-hand side and their one positive denominator, the least
    common one.  The kernels compute in integers, so an entry that is not
    an int or Fraction (a float, or a bool) is refused with a ValueError
    naming ``where`` and its column."""
    for j, value in enumerate((*coeffs, rhs)):
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            column = "the right-hand side" if j == len(coeffs) else f"column {j}"
            raise ValueError(f"{where}, {column}: expected an int or Fraction, got {type(value).__name__}")
    den = lcm(rhs.denominator, *(c.denominator for c in coeffs))
    nums = [c.numerator * (den // c.denominator) for c in coeffs]
    return nums, rhs.numerator * (den // rhs.denominator), den


def dot(coeffs: Sequence[Fraction], point: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for c, x in zip(coeffs, point):
        if c:
            total += c * x
    return total


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over the rationals by fraction-exact Gaussian elimination."""
    work = [list(row) for row in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        inv = work[row][col]
        work[row] = [v / inv for v in work[row]]
        for r in range(len(work)):
            if r != row and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[row])]
        row += 1
        rank += 1
        if row == len(work):
            break
    return rank

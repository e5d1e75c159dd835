"""Exact rational parsing, formatting, and small dense linear algebra.

Every value this package passes between modules is a
``fractions.Fraction`` (or an ``int``): arbitrary precision, always in
lowest terms, positive denominator.  An exact linear row has one form,
its primitive integer row from ``integer_row``: the model reader emits
it, ``HPolytope`` keeps it, and the simplex, vertex and rank kernels compute
on it.  Floats are rejected at the boundary so no rounding error can
enter the polyhedral oracles.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

# the decimal exponent of a rational string, read before Fraction expands it
_EXPONENT = re.compile(r"[eE][-+]?([0-9][0-9_]*)\s*\Z")
# the entry types a row may hold as they are; subclasses are checked one by one
_EXACT = {int, Fraction}


def is_exact(value: object) -> bool:
    """An int or Fraction, and not a bool: a value the exact kernels can take as it is."""
    return not isinstance(value, bool) and isinstance(value, (int, Fraction))


def parse_rational(value: object, where: str = "value") -> Fraction:
    """Parse a rational from an int or a string like ``"3"``, ``"-1/2"``, ``"0.25"``.

    Floats are rejected: they carry binary rounding error and would poison
    exact tightness and rank tests downstream.  So is a numerator or
    denominator with more digits than ``sys.get_int_max_str_digits()``,
    a decimal exponent before ``Fraction`` expands it.
    """
    if isinstance(value, str) and len(value) <= 40 and value.isascii():
        # p, -p, p/q and -p/q in ASCII digits, short of any digit limit: int() reads them as Fraction would
        num, slash, den = value.partition("/")
        if num.removeprefix("-").isdigit() and (not slash or den.isdigit() and int(den)):
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
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
    if not isinstance(value, Fraction):
        value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def integer_row(coeffs: Sequence[Fraction | int], rhs: Fraction | int, where: str) -> tuple[list[int], int]:
    """The primitive integer row of coeffs . x <= rhs (or == rhs): the row
    times a positive rational, integers with no common factor, the one
    such row per halfspace.  An emptied row keeps only the sign of its
    right-hand side.  A vector v over its least common denominator d is
    the primitive row of v . x <= 1, namely (v * d, d).

    The kernels compute in integers, so an entry that is not an int or
    Fraction (a float, or a bool) is refused with a ValueError naming
    ``where`` and its column."""
    row = [*coeffs, rhs]
    kinds = set(map(type, row))
    if not kinds <= _EXACT:
        for j, value in enumerate(row):
            if not is_exact(value):
                column = "the right-hand side" if j == len(coeffs) else f"column {j}"
                raise ValueError(f"{where}, {column}: expected an int or Fraction, got {type(value).__name__}")
    if kinds != {int}:
        den = lcm(*[c.denominator for c in row])
        row = [c.numerator * (den // c.denominator) for c in row]
    if (g := gcd(*row)) > 1:
        row = [c // g for c in row]
    return row[:-1], row[-1]


def _combination(a: int, u: Sequence[int], b: int, v: Sequence[int]) -> tuple[int, ...]:
    """a*u - b*v over the integers, divided by the gcd of its entries: the one
    fraction-free row step of the rank, the vertex and the simplex kernels."""
    point = [a * x - b * y for x, y in zip(u, v)]
    if (g := gcd(*point)) > 1:
        point = [x // g for x in point]
    return tuple(point)


def matrix_rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank over the rationals by Gaussian elimination over the integers: each
    row is read as its primitive integer row, and each pivot takes the rows
    nonzero in its column to a*u - b*v over the gcd of its entries."""
    work = [integer_row(row, 0, f"row {k}")[0] for k, row in enumerate(rows)]
    rank = 0
    while work:
        pivot = work.pop()
        col = next((j for j, v in enumerate(pivot) if v), None)
        if col is None:
            continue
        rank += 1
        work = [_combination(pivot[col], row, row[col], pivot) if row[col] else row for row in work]
    return rank

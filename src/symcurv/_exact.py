"""Exact-rational primitives shared by the package.

``exact`` coerces values into rationals (floats and bools are rejected on
purpose, and so is a decimal string whose exponent exceeds ``EXPONENT_CAP``).
``strict_int`` accepts an integer and refuses bools, floats and strings
instead of truncating or parsing them; ``json_int`` applies it to one field
of a JSON payload.
``numerators`` is the one conversion from rationals to integers: Fractions
become integer numerators over the lcm of their denominators, in lowest
terms, and ``reduced`` restores lowest terms after integer arithmetic.  A
``tensor_ops.DenseTensor`` and a ``symgroup.GroupRingElement`` are stored
that way, so their constructors convert once and every kernel works on the
stored integers.
``row_reduce`` is the one Gauss-Jordan elimination, under
``symgroup.solve_right_factor`` and the metric inverse in
``osserman.Metric``.  It works on integer rows, never divides a pivot row
through, and keeps every other row primitive by dividing it by its
content; a reduced value is the quotient of two entries of one row.  The
other exact kernel, the characteristic polynomial, is ``osserman.char_poly``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Collection, Mapping, Union

#: Largest decimal exponent ``exact`` parses, in absolute value: the
#: interpreter's default limit on the digits of an integer string, so
#: ``"1e4300"`` parses and ``"1e300000000"`` is refused before a
#: 300-million-digit power of ten is built.
EXPONENT_CAP = 4300

#: What :func:`exact` accepts: the package's one type for a rational input.
Scalar = Union[int, str, Fraction]


def exact(value: Scalar) -> Fraction:
    """Coerce ``value`` (int, Fraction, or a string such as ``"p/q"`` or
    ``"-2.5e-3"``) to a Fraction.

    Floats are refused: every identity in this package is checked with
    ``==`` on rationals, and a binary float smuggled into a coefficient
    would silently break that.  Bools are refused too, as
    :func:`strict_int` refuses them: a JSON ``true`` is not the number 1.
    A string whose exponent exceeds :data:`EXPONENT_CAP` in absolute value
    raises ``ValueError``.
    """
    if isinstance(value, (float, bool)):
        raise TypeError(
            f"{type(value).__name__} {value!r} rejected: use int, Fraction, "
            "or a 'p/q' string"
        )
    if isinstance(value, str):
        _, marker, exponent = value.rstrip().lower().rpartition("e")
        if (marker and exponent.lstrip("+-").replace("_", "").isdecimal()
                and abs(int(exponent)) > EXPONENT_CAP):
            raise ValueError(f"exponent of {value[:40]!r} exceeds the cap "
                             f"of {EXPONENT_CAP}")
    return Fraction(value)


def strict_int(value, what: str) -> int:
    """``value``, which must be an integer: bools, floats and strings are
    refused rather than truncated or parsed; ``what`` names it in the error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def json_int(payload, key: str) -> int:
    """``payload[key]``, which must be present and an integer (see
    :func:`strict_int`)."""
    if not isinstance(payload, Mapping):
        raise TypeError(f"expected a JSON object with {key!r}, got {payload!r:.40}")
    if key not in payload:
        raise ValueError(f"missing integer field {key!r}")
    return strict_int(payload[key], repr(key))


def numerators(values: Collection[Fraction]) -> tuple[list[int], int]:
    """``(ints, den)`` with ``Fraction(i, den) == v`` for each value ``v`` and
    its numerator ``i``, in order; ``den`` is the least common multiple of
    the denominators of ``values``.  No values give ``([], 1)``."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def reduced(ints: Collection[int], den: int) -> tuple[Collection[int], int]:
    """``ints`` over ``den > 0`` with their common gcd divided out (``ints``
    itself when it is 1, or when every numerator is 0, over 1); without
    numerators the denominator becomes 1."""
    common = gcd(den, *ints)
    if common == 1:
        return ints, den
    if common == den and not any(ints):
        return ints, 1
    return [v // common for v in ints], den // common


def row_reduce(rows: list[list[int]], ncols: int) -> list[int]:
    """Bring the integer matrix ``rows`` to a scaled reduced row echelon
    form in place; return the pivot columns.

    Only the first ``ncols`` columns are eliminated; later columns (an
    augmented right-hand side or identity block) are carried along.  The
    pivot for each column is the first row at or below the current rank
    with a nonzero entry there.  The pivot row is not divided through:
    every other row with a nonzero ``f`` in the pivot column becomes
    ``pv*row - f*pivot_row`` and is then divided by its content (the gcd of
    its entries), so entries stay integers and every updated row is
    primitive.  Each row stays a nonzero multiple of the row that a ``Fraction``
    elimination with the same pivot rule would hold, so the reduced
    rational value at column ``j`` of pivot row ``i`` is
    ``Fraction(rows[i][j], rows[i][pivots[i]])``, and the rows past
    ``len(pivots)`` are zero in the first ``ncols`` columns.
    """
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        if rank == len(rows):
            break
        pivot_row = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot_values = rows[rank]
        pivot = pivot_values[col]
        for i, row in enumerate(rows):
            factor = row[col]
            if i != rank and factor:
                row = [pivot * u - factor * v for u, v in zip(row, pivot_values)]
                content = gcd(*row)
                if content > 1:
                    row = [u // content for u in row]
                rows[i] = row
        pivots.append(col)
        rank += 1
    return pivots

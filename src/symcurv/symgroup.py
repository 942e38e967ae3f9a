"""Exact arithmetic in the rational group ring of a symmetric group.

Conventions, fixed here once for the whole package:

* permutations are bijections of ``{1, ..., r}`` stored in one-line
  notation (``images[i-1]`` is the image of ``i``);
* composition is ``(p * q)(i) = p(q(i))``;
* the ring product is the convolution
  ``(a * b)(s) = sum of a(p)*b(q) over all p, q with p*q == s``;
* ``star`` maps each permutation to its inverse and extends linearly;
  it is an anti-homomorphism: ``star(a*b) == star(b)*star(a)``.

Coefficients are ``fractions.Fraction`` at the API; floats are rejected.
An element stores integer numerators keyed by one-line image tuples over one
positive denominator.  The constructor converts once, every kernel (and
``tensor_ops.apply_symmetry_operator``) works on the stored integers, and a
``Fraction`` is built only when a coefficient is read (``coefficient``,
``items``, and so ``str`` and ``to_json_dict``).

A product ``a * b`` whose right factor has more than ``r**2`` terms first
looks for the block symmetry of ``a``: blocks of values whose
transpositions map ``a`` to ``a`` or to ``-a`` on the left, as the row
group does for a Young symmetrizer ``y = H*V`` and the column group for
``star(y)``.  Such an ``a`` is ``H_chi * a'``, with ``H_chi`` the signed sum
of the group of the blocks and ``a'`` one term per coset, so the product is
``H_chi * (a' * b)``: ``|H|`` times fewer term pairs and one pass over the
cosets.  Either way the result is the same integers, so the same element.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import islice, permutations as _one_line_tuples, repeat
from math import factorial, lcm
from operator import itemgetter
from typing import Collection, Iterable, Mapping, Union

from ._exact import Scalar, exact, json_int, numerators, reduced, row_reduce, strict_int

#: Default bound on the group degree.  Supports grow like r!, so anything
#: past 8 (40320 permutations) stops being desk-scale; callers who really
#: want more pass ``cap=`` explicitly.
DEGREE_CAP = 8


def _check_cap(r: int, cap: int) -> None:
    if r > cap:
        raise ValueError(
            f"degree {r} exceeds the cap of {cap} "
            f"(supports grow like r!; pass cap={r} explicitly to override)"
        )


class Permutation:
    """A permutation of ``{1..r}`` in one-line notation; immutable, hashable."""

    __slots__ = ("_images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(strict_int(i, "permutation image") for i in images)
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError(f"not a permutation of 1..{len(imgs)}: {imgs}")
        self._images = imgs

    @classmethod
    def _unchecked(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap ``images`` without validation; callers guarantee that it is
        a permutation tuple (a composition, an inverse, a group listing)."""
        perm = object.__new__(cls)
        perm._images = images
        return perm

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(1, degree + 1))

    @classmethod
    def from_cycles(cls, degree: int, *cycles: Iterable[int]) -> "Permutation":
        """Build from disjoint cycles, e.g. ``from_cycles(4, (1, 3), (2, 4))``."""
        images = list(range(1, degree + 1))
        seen: set[int] = set()
        for cycle in cycles:
            cyc = [strict_int(i, "cycle entry") for i in cycle]
            for i in cyc:
                if i < 1 or i > degree or i in seen:
                    raise ValueError(f"bad cycle entry {i} for degree {degree}")
                seen.add(i)
            for pos, i in enumerate(cyc):
                images[i - 1] = cyc[(pos + 1) % len(cyc)]
        return cls(images)

    @property
    def images(self) -> tuple[int, ...]:
        return self._images

    @property
    def degree(self) -> int:
        return len(self._images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self._images):
            raise ValueError(f"argument {i} outside 1..{len(self._images)}")
        return self._images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition ``(p * q)(i) = p(q(i))``."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )
        mine = self._images
        return Permutation._unchecked(tuple([mine[q - 1] for q in other._images]))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self._images)
        for i, img in enumerate(self._images):
            inv[img - 1] = i + 1
        return Permutation._unchecked(tuple(inv))

    def sign(self) -> int:
        """+1 for even permutations, -1 for odd (via cycle parity)."""
        sign = 1
        seen = [False] * len(self._images)
        for start in range(len(self._images)):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = self._images[j] - 1
                length += 1
            if length % 2 == 0:
                sign = -sign
        return sign

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self._images == other._images

    def __hash__(self) -> int:
        return hash(self._images)

    def __lt__(self, other: "Permutation") -> bool:
        return self._images < other._images

    def __repr__(self) -> str:
        return f"Permutation({list(self._images)})"


def perm_compose(p: Permutation, q: Permutation) -> Permutation:
    """Composition ``(p o q)(i) = p(q(i))``; degrees must match."""
    return p * q


def enumerate_group(r: int, cap: int = DEGREE_CAP) -> list[Permutation]:
    """All r! permutations of ``{1..r}`` in lexicographic one-line order."""
    if r < 1:
        raise ValueError(f"degree must be >= 1, got {r}")
    _check_cap(r, cap)
    return [Permutation._unchecked(t) for t in _one_line_tuples(range(1, r + 1))]


def _right_composer(q_images: tuple[int, ...]):
    """A callable mapping ``(0,) + p.images`` to ``(p * q).images``: the
    leading 0 lets the one-based images of ``q`` index directly."""
    if len(q_images) == 1:
        # itemgetter with a single index returns a scalar, not a tuple
        return itemgetter(slice(1, None))
    return itemgetter(*q_images)


def _convolve(left: Collection[tuple[tuple[int, ...], int]],
              right: Iterable[tuple[tuple[int, ...], int]]
              ) -> dict[tuple[int, ...], int]:
    """Integer convolution of ``(images, coefficient)`` pairs: the sum
    of ``a*b`` at ``p * q`` over all ``(p, a)`` in ``left`` and ``(q, b)`` in
    ``right``.  Entries that cancel to 0 are kept; callers drop them.  A
    ``p`` may be any tuple of length ``r``, such as a word of block labels:
    its product with ``q`` is then ``(p[q(1)], ..., p[q(r)])``."""
    padded = [((0,) + p_images, a) for p_images, a in left]
    sums: defaultdict[tuple[int, ...], int] = defaultdict(int)
    for q_images, b in right:
        compose = _right_composer(q_images)
        for p_images, a in padded:
            sums[compose(p_images)] += a * b
    return sums


def _block_images(degree: int, blocks: Iterable[Iterable[int]]) -> list[tuple[int, ...]]:
    """The one-line images of the direct product of the symmetric groups on
    the given disjoint blocks, the first block varying slowest."""
    images = [tuple(range(1, degree + 1))]
    for block in map(sorted, blocks):
        if len(block) < 2:
            continue
        # entry k of base + arrangement: base's own image, or the next value
        # of the arrangement when position k + 1 is in the block
        slots = dict(zip(block, range(degree, degree + len(block))))
        place = itemgetter(*[slots.get(k + 1, k) for k in range(degree)])
        images = [place(base + arrangement) for base in images
                  for arrangement in _one_line_tuples(block)]
    return images


def _value_blocks(ints: Mapping[tuple[int, ...], int],
                  degree: int) -> list[tuple[list[int], int]]:
    """The block symmetry of a nonzero element ``a`` under left
    multiplication: the blocks ``B`` of two or more values, each with the
    sign ``s`` such that ``(i j) * a == s * a`` for all ``i``, ``j`` in ``B``.

    Swapping the values ``i`` and ``j`` in every key is left multiplication
    by the transposition ``(i j)``.  A union-find over the values joins
    ``i`` and ``j`` when that swap maps ``a`` to ``s * a`` with ``s = 1`` or
    ``-1``: a pair is rejected on the first term alone when it can be, and
    otherwise verified on every term.  All transpositions of one block are
    conjugate, so they share one sign; mixed signs would force ``a == 0``.
    """
    root = list(range(degree + 1))
    sign = [1] * (degree + 1)
    swap = list(range(degree + 1))
    get, coefficients = ints.get, list(ints.values())
    # getter(swap) is a key with its values mapped by swap
    first, getters = itemgetter(*next(iter(ints))), None
    for i in range(1, degree):
        for j in range(i + 1, degree + 1):
            if root[i] == root[j]:
                continue
            swap[i], swap[j] = j, i
            n = get(first(swap), 0)
            s = 1 if n == coefficients[0] else -1 if n == -coefficients[0] else 0
            if s:
                getters = getters or [itemgetter(*p) for p in ints]
                if [get(getter(swap)) for getter in getters] == (
                        coefficients if s > 0 else [-m for m in coefficients]):
                    old, new = max(root[i], root[j]), min(root[i], root[j])
                    root = [new if x == old else x for x in root]
                    sign[new] = s
            swap[i], swap[j] = i, j
    blocks: dict[int, list[int]] = {}
    for v in range(1, degree + 1):
        blocks.setdefault(root[v], []).append(v)
    return [(values, sign[label]) for label, values in blocks.items() if len(values) > 1]


def _block_product(left: Mapping[tuple[int, ...], int],
                   right: Iterable[tuple[tuple[int, ...], int]],
                   blocks: list[tuple[list[int], int]]) -> dict[tuple[int, ...], int]:
    """``left * right`` for a ``left`` with the block symmetry ``blocks``
    (see ``_value_blocks``), as ``H_chi * (left' * right)``.

    ``H`` is the product of the symmetric groups on the blocks and ``chi``
    its character, the sign on the blocks of sign -1.  The coset ``H * s``
    of an image tuple ``s`` is keyed by its word, ``s`` with each value
    replaced by the least value of its block, and represented by the ``s``
    whose blocks have their values in increasing position order.  ``left'``
    is the terms of ``left`` at representatives, so ``left == H_chi *
    left'``.

    The convolution ``left' * right`` runs on the words of the blocks of
    sign 1 (the word of ``p * q`` is the word of ``p`` composed with ``q``),
    so it sums their cosets as it goes.  One pass then sums each coset over
    the blocks of sign -1 with the signs of ``chi``, and each nonzero coset
    sum ``c`` is written out as ``chi(h) * c`` at ``h * rep`` for every
    ``h`` in ``H``.
    """
    degree = len(next(iter(left)))
    labels = list(range(degree + 1))
    for values, _ in blocks:
        for v in values:
            labels[v] = values[0]
    every = [values for values, _ in blocks]
    even = [values for values, s in blocks if s > 0]
    odd = [values for values, s in blocks if s < 0]

    def words(keys: Iterable[tuple[int, ...]]) -> set[tuple[int, ...]]:
        return set(map(tuple, map(map, repeat(labels.__getitem__), keys)))

    def spelled(word: tuple[int, ...], spelt: list[list[int]]) -> tuple[int, ...]:
        """``word`` with the label of each block in ``spelt`` replaced by
        that block's values in increasing order."""
        unused = {values[0]: iter(values) for values in spelt}
        return tuple([next(unused[x]) if x in unused else x for x in word])

    sums = _convolve([(spelled(word, odd), left[spelled(word, every)])
                      for word in words(left)], right)
    odd_group = [(v, Permutation._unchecked(v).sign()) for v in _block_images(degree, odd)]
    if odd:
        # the coset sum of a word is sign(v) * sums[v * rep] summed over
        # the v that permute the blocks of sign -1
        get = sums.get
        padded = [((0,) + v, sign) for v, sign in odd_group]
        folded: dict[tuple[int, ...], int] = {}
        for word in words(sums):
            compose = _right_composer(spelled(word, odd))
            folded[word] = sum([sign * get(compose(v), 0) for v, sign in padded])
        sums = folded

    group = _convolve([(h, 1) for h in _block_images(degree, even)], odd_group)
    padded = [((0,) + h, sign) for h, sign in group.items()]
    out: dict[tuple[int, ...], int] = {}
    for word, c in sums.items():
        if c:
            compose = _right_composer(spelled(word, every))
            for h, sign in padded:
                out[compose(h)] = sign * c
    return out


class GroupRingElement:
    """A finitely supported map ``Permutation -> Fraction``.

    Zero coefficients are never stored and the rest are kept in lowest
    terms, so equal elements have equal storage.  Instances are immutable by
    convention; all arithmetic returns fresh elements.
    """

    __slots__ = ("_degree", "_ints", "_den")

    def __init__(
        self,
        degree: int,
        terms: Union[Mapping[Permutation, Scalar],
                     Iterable[tuple[Permutation, Scalar]]] = (),
    ):
        self._degree = strict_int(degree, "degree")
        if self._degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        keys, values = [], []
        items = terms.items() if isinstance(terms, Mapping) else terms
        for perm, coeff in items:
            if not isinstance(perm, Permutation):
                perm = Permutation(perm)
            if perm.degree != self._degree:
                raise ValueError(
                    f"term degree {perm.degree} != element degree {self._degree}"
                )
            keys.append(perm.images)
            values.append(exact(coeff))
        ints, den = numerators(values)
        sums: defaultdict[tuple[int, ...], int] = defaultdict(int)
        for images, numerator in zip(keys, ints):
            sums[images] += numerator
        element = GroupRingElement._unchecked(self._degree, sums, den)
        self._ints, self._den = element._ints, element._den

    @classmethod
    def _unchecked(cls, degree: int, ints: Mapping[tuple[int, ...], int],
                   den: int) -> "GroupRingElement":
        """The element ``sum of n/den * images`` over the entries of ``ints``,
        keyed by valid image tuples of ``degree``, with ``den > 0``; zero
        entries are dropped and the rest brought to lowest terms."""
        nonzero = {images: n for images, n in ints.items() if n}
        values, den = reduced(nonzero.values(), den)
        out = cls.__new__(cls)
        out._degree, out._ints, out._den = degree, dict(zip(nonzero, values)), den
        return out

    @classmethod
    def zero(cls, degree: int) -> "GroupRingElement":
        return cls(degree)

    @classmethod
    def one(cls, degree: int) -> "GroupRingElement":
        return cls(degree, {Permutation.identity(degree): 1})

    @classmethod
    def from_permutation(cls, perm: Permutation,
                         coeff: Scalar = 1) -> "GroupRingElement":
        return cls(perm.degree, {perm: coeff})

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def is_zero(self) -> bool:
        return not self._ints

    def __bool__(self) -> bool:
        return bool(self._ints)

    def __len__(self) -> int:
        return len(self._ints)

    def coefficient(self, perm: Permutation) -> Fraction:
        return Fraction(self._ints.get(perm.images, 0), self._den)

    def items(self) -> list[tuple[Permutation, Fraction]]:
        """Terms sorted by one-line notation (deterministic)."""
        return [(Permutation._unchecked(images), Fraction(n, self._den))
                for images, n in sorted(self._ints.items())]

    def _require_same_degree(self, other: "GroupRingElement") -> None:
        if other._degree != self._degree:
            raise ValueError(
                f"degree mismatch: {self._degree} vs {other._degree}"
            )

    def _combine(self, other: "GroupRingElement", sign: int) -> "GroupRingElement":
        """``self + sign * other`` over the lcm of the two denominators."""
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        self._require_same_degree(other)
        den = lcm(self._den, other._den)
        fa, fb = den // self._den, sign * (den // other._den)
        sums = {images: fa * n for images, n in self._ints.items()}
        for images, n in other._ints.items():
            sums[images] = sums.get(images, 0) + fb * n
        return GroupRingElement._unchecked(self._degree, sums, den)

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self._combine(other, 1)

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self._combine(other, -1)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement._unchecked(
            self._degree, {images: -n for images, n in self._ints.items()}, self._den)

    def scale(self, scalar: Scalar) -> "GroupRingElement":
        num, den = exact(scalar).as_integer_ratio()
        return GroupRingElement._unchecked(
            self._degree, {images: num * n for images, n in self._ints.items()},
            self._den * den)

    def __mul__(self, other) -> "GroupRingElement":
        if isinstance(other, GroupRingElement):
            self._require_same_degree(other)
            # finding blocks costs up to about r passes over self (a probe
            # per pair of values, a verifying pass per join) and the product
            # one per term of other: look only when other has more than r**2
            # terms, so that the search costs under 1/r of the product
            blocks = (_value_blocks(self._ints, self._degree)
                      if self._ints and len(other._ints) > self._degree ** 2 else [])
            if blocks:
                sums = _block_product(self._ints, other._ints.items(), blocks)
            else:
                sums = _convolve(self._ints.items(), other._ints.items())
            return GroupRingElement._unchecked(self._degree, sums, self._den * other._den)
        if isinstance(other, (int, str, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def star(self) -> "GroupRingElement":
        """The involution sending each permutation to its inverse."""
        return GroupRingElement._unchecked(self._degree, {
            Permutation._unchecked(images).inverse().images: n
            for images, n in self._ints.items()}, self._den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GroupRingElement)
                and self._degree == other._degree
                and self._den == other._den
                and self._ints == other._ints)

    def __repr__(self) -> str:
        return f"GroupRingElement(degree={self._degree}, support={len(self)})"

    def __str__(self) -> str:
        return " + ".join(f"{coeff}*{list(perm.images)}"
                          for perm, coeff in self.items()) or "0"

    def to_json_dict(self) -> dict:
        return {
            "r": self._degree,
            "terms": [
                {"perm": list(p.images), "coeff": str(c)}
                for p, c in self.items()
            ],
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "GroupRingElement":
        """Inverse of :meth:`to_json_dict`; refuses a payload that it would
        otherwise have to truncate or guess: a non-integer or nonpositive
        ``r``, ``terms`` that is not a list, or a ``perm`` that is not a
        list of integers (bools and floats included)."""
        degree = json_int(payload, "r")
        if degree < 1:
            raise ValueError(f"'r' must be positive, got {degree}")
        entries = payload.get("terms", [])
        if not isinstance(entries, list):
            raise TypeError(f"'terms' must be a list, got {entries!r}")
        terms = []
        for entry in entries:
            perm = entry["perm"]
            if not isinstance(perm, list):
                raise TypeError(f"'perm' must be a list of integers, got {perm!r}")
            terms.append((Permutation([strict_int(i, "'perm' entry") for i in perm]),
                          entry["coeff"]))
        return cls(degree, terms)


def ring_product(a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    """Convolution product ``(a*b)(s) = sum over p*q == s of a(p)*b(q)``.

    A left factor with a block symmetry is multiplied one coset at a time
    (see the module docstring): ``e*e`` for the degree-7 derivative
    idempotent forms 4 * 960 term pairs instead of 960 * 960.
    """
    return a * b


def star(a: GroupRingElement) -> GroupRingElement:
    return a.star()


def solve_right_factor(
    a: GroupRingElement,
    c: GroupRingElement,
    cap: int = DEGREE_CAP,
) -> GroupRingElement | None:
    """Solve ``a * x == c`` exactly; ``None`` when no solution exists.

    The answer is the reduced row echelon reading of ``[L | c]``, with
    ``L`` the r! x r! matrix of left multiplication by ``a`` on the
    permutations in lexicographic one-line order: free columns are set to
    0, so it is deterministic, and no other canonical representative is
    attempted.

    ``L`` is never built whole.  A window of its first ``w`` columns,
    ``w = 2, 4, 8, ...``, is built on ``a``'s stored integer numerators
    (column ``q`` holds ``a(p)`` at row ``p * q``), augmented by those of
    ``c``, restricted to the rows that some column or ``c`` touches, and
    row-reduced with the package's one Gauss-Jordan kernel
    (``_exact.row_reduce``: integer rows, pivot on the first nonzero entry
    per column).  The pivots of a window are the first pivots of ``L``, so
    once ``c`` lies in the span of the window, its solution padded with
    zeros is the full reading.  The cost follows the last pivot the answer
    needs, not r!: a Young symmetrizer has rank f_lambda, and a symmetrizer
    solve takes 0.03-0.2 ms at r = 4, 0.7-1.6 ms at r = 5 and 25-50 ms at
    r = 6; at r = 7, 30 ms when the answer needs the first 16 columns and
    2-2.5 s when it needs 512 (Python 3.11 on a 2-core VM).  The price is
    the answer ``None``: only the whole group can show it, after every
    smaller window, so it costs up to about twice one elimination of the
    full ``[L | c]``, which grows like (r!)^3 (8-10 ms against 5-6 ms for
    a degree-5 symmetrizer and ``c = 1``).
    """
    if a.degree != c.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {c.degree}")
    r = a.degree
    _check_cap(r, cap)
    order = factorial(r)
    padded = [((0,) + p_images, numerator) for p_images, numerator in a._ints.items()]
    perms = _one_line_tuples(range(1, r + 1))
    columns: list[tuple[tuple[int, ...], list[tuple[tuple[int, ...], int]]]] = []
    width = 1
    while True:
        width = min(2 * width, order)
        for q_images in islice(perms, width - len(columns)):
            compose = _right_composer(q_images)
            columns.append((q_images, [(compose(p), n) for p, n in padded]))
        rows: defaultdict[tuple[int, ...], list[int]] = defaultdict(lambda: [0] * (width + 1))
        for col, (_, entries) in enumerate(columns):
            for s_images, numerator in entries:
                rows[s_images][col] = numerator
        for s_images, numerator in c._ints.items():
            rows[s_images][width] = numerator
        matrix = list(rows.values())
        pivot_cols = row_reduce(matrix, width)
        if not any(row[width] for row in matrix[len(pivot_cols):]):
            break
        if width == order:
            return None
    # the integer system is (a._den*L) y = c._den*c, so x = y * a._den / c._den;
    # y at a pivot column is the quotient of the row's last entry and its pivot
    common = lcm(*(matrix[i][col] for i, col in enumerate(pivot_cols)))
    return GroupRingElement._unchecked(r, {
        columns[col][0]: matrix[i][width] * a._den * (common // matrix[i][col])
        for i, col in enumerate(pivot_cols)}, common * c._den)

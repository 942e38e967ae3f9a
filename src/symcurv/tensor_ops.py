"""Dense exact-rational tensors and the slot-permutation action on them.

A group-ring element ``a`` acts on an order-r tensor by
``(a T)[i_1..i_r] = sum over p of a(p) * T[i_{p(1)}..i_{p(r)}]``:
permutations shuffle argument slots, coefficients weight the sum.  With the
composition convention of :mod:`symcurv.symgroup` this is a left action,
``(a*b) T == a (b T)``.

Tensor indices are 0-based tuples here and in the JSON form; the 1-based
numbers inside permutations refer to argument *slots*, not index values.

Entries are stored flat in row-major order as integer numerators ``_ints``
over one positive denominator ``_den``, in lowest terms, so equal tensors
have equal storage.  Constructors convert once with ``_exact.numerators``,
kernels work on the integers and ``_unchecked`` brings each result to lowest
terms with ``_exact.reduced``; a ``Fraction`` is built only when an entry is
read (``[]``, ``nonzero_items``, ``rows``, ``to_nested``, ``trace``,
``m(v)``).  ``_gather`` alone maps a slot permutation to flat positions, for
``transpose`` and ``_act``, the one action: every symmetry test in the
package goes through it, and it reads the group-ring element's stored
numerators with no sort and no conversion.  ``_act`` applies a chain of
elements and returns raw numerators, which the membership check reads
without a lowest-terms pass; ``apply_symmetry_operator`` wraps one element.
``_reader`` turns a gather into an ``itemgetter`` once per (permutation,
dimension) and caches it, so ``_gather`` runs only on a cache miss; the
action reads the identity term straight from ``_ints``, every other term in
one C call through its reader, and folds each into the sum with ``map``.
``_gather`` emits the last slot, whose source positions lie one stride
apart, as C-level ``range`` runs.  ``_contract_middle`` is the Jacobi
contraction ``T(a, x, x, d)``, and ``_from_operator_rows`` writes
``gamma``, ``alpha`` and their sums out from their curvature operator.

No other module reads or writes the flat numerators: they reach them only
through ``_int_rows``, ``_from_int_rows``, ``_slab``, ``_operator_rows``,
``_from_operator_rows``, ``_canonical_terms``, ``_contract_middle`` and
``_act``.

An order-2 tensor is the package's one matrix type: ``rows``, ``@``, the
action on a column vector ``m(v)``, ``trace`` and ``transpose`` refuse
other orders with ``ValueError``.  ``osserman.LinearMap`` only adds a rows
constructor and ``identity``; arithmetic keeps the type of its left
operand, while the constructors always build a ``DenseTensor``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat, product as _product
from math import lcm, prod
from operator import add, itemgetter, mul, neg, sub
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ._exact import Scalar, exact, json_int, numerators, reduced, strict_int
from .symgroup import GroupRingElement, enumerate_group


#: Bound on the number of entries ``dim ** order`` of a tensor.  Every entry
#: is stored, so anything larger is refused before storage is allocated
#: (orders past ``_ENTRY_CAP.bit_length()`` are refused outright).
_ENTRY_CAP = 10 ** 6

#: Number of slot-permutation readers ``_reader`` keeps, least recently used
#: first out.  Membership checks and decompositions at n = 3..6 use 40
#: (permutation, dimension) keys between them, and repeating a sequence of
#: more keys than the cache holds would miss on every one.
_READERS = 64


def _check_shape(order: int, dim: int) -> None:
    if order < 0 or dim < 1:
        raise ValueError(f"bad shape: order={order}, dim={dim}")
    if order > _ENTRY_CAP.bit_length() or dim ** order > _ENTRY_CAP:
        raise ValueError(
            f"order {order}, dim {dim} exceeds the cap of {_ENTRY_CAP} entries"
        )


def _position(idx: tuple, order: int, dim: int) -> int | None:
    """Flat position of the index tuple ``idx``, or None if it is out of
    range; an entry that is not an integer (a bool, a float) is refused."""
    pos = 0
    for i in idx:
        if not 0 <= strict_int(i, f"every entry of index {idx!r}") < dim:
            return None
        pos = pos * dim + i
    return pos if len(idx) == order else None


def _gather(images: Sequence[int], dim: int) -> Iterator[int]:
    """Flat source position of every flat target position, in row-major
    order, for the slot permutation ``images``: target ``(i_1..i_r)`` reads
    source ``(i_{p(1)}..i_{p(r)})``.  The last target slot runs along one
    source stride, so each of its runs is a ``range``, chained lazily."""
    r = len(images)
    stride = {img: dim ** (r - k) for k, img in enumerate(images, 1)}
    positions = [0]
    for slot in range(1, r):
        step = stride[slot]
        positions = [base + offset for base in positions
                     for offset in range(0, dim * step, step)]
    step = stride[r]
    return chain.from_iterable(map(
        range, positions, [base + dim * step for base in positions], repeat(step)))


#: The flat positions ``0, 1, ...`` that readers are built from, extended
#: (never rebuilt) to the largest tensor read so far, so that every reader of
#: every size holds the same position ints rather than its own copies.
_positions: tuple[int, ...] = ()


@lru_cache(maxsize=_READERS)
def _reader(images: tuple[int, ...], dim: int) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """An ``itemgetter`` that reads the flat entries of an order-r tensor,
    ``r = len(images)``, in the order ``_gather(images, dim)`` gives: the
    slot-permuted copy, in one C call.

    Retention: a reader holds one 8-byte pointer per entry into the shared
    ``_positions``, so at ``_ENTRY_CAP`` entries it takes 8 MB, and the
    position ints take 36 MB once (28 bytes each plus the tuple).  The
    ``_READERS`` readers of the cache therefore hold at most 548 MB, which
    takes 64 keys near the cap, such as every permutation of S_4 at three
    dimensions from 29 to 31.  One membership check keeps 7 readers: at
    n = 24 they and the position ints left 32 MB more resident than before
    the check (``BENCH_decompose.json``).
    """
    global _positions
    size = dim ** len(images)
    if size == 1:
        # itemgetter with a single index returns a scalar, not a tuple
        return itemgetter(slice(None))
    shared = _positions
    if len(shared) < size:
        shared = _positions = shared + tuple(range(len(shared), size))
    return itemgetter(*map(shared.__getitem__, _gather(images, dim)))


class DenseTensor:
    """An order-r tensor over ``{0..n-1}^r`` with rational entries, stored
    row-major as integer numerators over one denominator in lowest terms."""

    __slots__ = ("_order", "_dim", "_ints", "_den")

    def __init__(self, order: int, dim: int, data: Iterable[Scalar]):
        _check_shape(order, dim)
        entries = [exact(v) for v in data]
        if len(entries) != dim ** order:
            raise ValueError(
                f"expected {dim ** order} entries for order {order}, dim {dim}; "
                f"got {len(entries)}"
            )
        # over the lcm of reduced denominators the numerators are in lowest terms
        ints, den = numerators(entries)
        self._order, self._dim, self._ints, self._den = order, dim, tuple(ints), den

    @classmethod
    def _unchecked(cls, order: int, dim: int, ints: Sequence[int],
                   den: int) -> "DenseTensor":
        """Wrap ``dim ** order`` integer numerators over ``den > 0`` without
        validation, brought to lowest terms."""
        ints, den = reduced(ints, den)
        out = cls.__new__(cls)
        out._order, out._dim, out._ints, out._den = order, dim, tuple(ints), den
        return out

    @staticmethod
    def zeros(order: int, dim: int) -> "DenseTensor":
        _check_shape(order, dim)
        return DenseTensor._unchecked(order, dim, (0,) * dim ** order, 1)

    @staticmethod
    def from_entries(order: int, dim: int,
                     entries: Mapping[tuple[int, ...], Scalar]) -> "DenseTensor":
        """Build from a sparse ``index tuple -> value`` mapping; rest is zero."""
        _check_shape(order, dim)
        data = [Fraction(0)] * dim ** order
        for idx, value in entries.items():
            pos = _position(tuple(idx), order, dim)
            if pos is None:
                raise ValueError(f"index {idx} out of range for order {order}, dim {dim}")
            data[pos] = exact(value)
        return DenseTensor._unchecked(order, dim, *numerators(data))

    @staticmethod
    def from_function(order: int, dim: int,
                      fn: Callable[[tuple[int, ...]], Scalar]) -> "DenseTensor":
        return DenseTensor(order, dim, map(fn, _product(range(dim), repeat=order)))

    @staticmethod
    def from_nested(nested) -> "DenseTensor":
        """Build from nested lists, e.g. ``from_nested([[1, 0], [0, -1]])``."""
        order, probe = 0, nested
        while isinstance(probe, (list, tuple)):
            if not probe:
                raise ValueError("empty axis in nested data")
            order, probe = order + 1, probe[0]
        dim = len(nested) if order else 1
        level = [nested]
        for depth in range(order):
            if any(not isinstance(node, (list, tuple)) or len(node) != dim for node in level):
                raise ValueError(f"axis at depth {depth} must have length {dim}")
            level = [child for node in level for child in node]
        if any(isinstance(node, (list, tuple)) for node in level):
            raise ValueError("ragged nested data")
        return DenseTensor(order, dim, level)

    @property
    def order(self) -> int:
        return self._order

    @property
    def dim(self) -> int:
        return self._dim

    def __getitem__(self, idx: tuple[int, ...]) -> Fraction:
        pos = _position((idx,) if isinstance(idx, int) else idx, self._order, self._dim)
        if pos is None:
            raise IndexError(f"bad index {idx} for order {self._order}, dim {self._dim}")
        return Fraction(self._ints[pos], self._den)

    def indices(self) -> Iterator[tuple[int, ...]]:
        return _product(range(self._dim), repeat=self._order)

    def nonzero_items(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        den = self._den
        for idx, value in zip(self.indices(), self._ints):
            if value:
                yield idx, Fraction(value, den)

    @property
    def is_zero(self) -> bool:
        return not any(self._ints)

    def __bool__(self) -> bool:
        return not self.is_zero

    def _require_same_shape(self, other: "DenseTensor") -> None:
        if self._order != other._order or self._dim != other._dim:
            raise ValueError(
                f"shape mismatch: order {self._order}, dim {self._dim} vs "
                f"order {other._order}, dim {other._dim}"
            )

    def _combine(self, other: "DenseTensor", sign: int) -> "DenseTensor":
        """``self + sign * other`` over the lcm of the two denominators."""
        if not isinstance(other, DenseTensor):
            return NotImplemented
        self._require_same_shape(other)
        den = lcm(self._den, other._den)
        fa, fb = den // self._den, sign * (den // other._den)
        if fa == 1 and fb in (1, -1):
            ints = map(add if fb == 1 else sub, self._ints, other._ints)
        else:
            ints = map(add, map(mul, repeat(fa), self._ints), map(mul, repeat(fb), other._ints))
        return type(self)._unchecked(self._order, self._dim, tuple(ints), den)

    def __add__(self, other: "DenseTensor") -> "DenseTensor":
        return self._combine(other, 1)

    def __sub__(self, other: "DenseTensor") -> "DenseTensor":
        return self._combine(other, -1)

    def __neg__(self) -> "DenseTensor":
        return type(self)._unchecked(self._order, self._dim,
                                     tuple(map(neg, self._ints)), self._den)

    def scale(self, scalar: Scalar) -> "DenseTensor":
        num, den = exact(scalar).as_integer_ratio()
        return type(self)._unchecked(self._order, self._dim,
                                     tuple(map(mul, repeat(num), self._ints)), self._den * den)

    def __mul__(self, scalar) -> "DenseTensor":
        if isinstance(scalar, (int, str, Fraction)):
            return self.scale(scalar)
        return NotImplemented

    __rmul__ = __mul__

    # ------------------------------------------- order 2: the matrix view

    def _require_matrix(self, what: str) -> None:
        if self._order != 2:
            raise ValueError(f"{what} is for order 2, got order {self._order}")

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rows of an order-2 tensor, built on each read."""
        self._require_matrix("rows")
        return tuple(map(tuple, self.to_nested()))

    def _int_rows(self) -> tuple[list[list[int]], int]:
        """The rows of an order-2 tensor as its integer numerators, and their
        denominator."""
        self._require_matrix("integer rows")
        n, ints = self._dim, self._ints
        return [list(ints[k:k + n]) for k in range(0, n * n, n)], self._den

    @classmethod
    def _from_int_rows(cls, rows: Sequence[Sequence[int]], den: int) -> "DenseTensor":
        """Inverse of ``_int_rows``: the order-2 tensor whose rows are the
        integer numerators ``rows`` over ``den > 0``, without validation."""
        return cls._unchecked(2, len(rows), tuple(chain.from_iterable(rows)), den)

    def transpose(self) -> "DenseTensor":
        """Swap the two slots of an order-2 tensor."""
        self._require_matrix("transpose")
        return type(self)._unchecked(2, self._dim, _reader((2, 1), self._dim)(self._ints),
                                     self._den)

    def __matmul__(self, other: "DenseTensor") -> "DenseTensor":
        """Matrix product of two order-2 tensors."""
        if not isinstance(other, DenseTensor):
            return NotImplemented
        self._require_matrix("@")
        self._require_same_shape(other)
        a, da = self._int_rows()
        b, db = other._int_rows()
        columns = tuple(zip(*b))
        return type(self)._unchecked(2, self._dim, [
            sum(map(mul, row, column)) for row in a for column in columns], da * db)

    def __call__(self, vector: Sequence[Scalar]) -> tuple[Fraction, ...]:
        """The order-2 tensor applied to a column vector."""
        self._require_matrix("applying to a vector")
        xs, dx = numerators([exact(v) for v in vector])
        if len(xs) != self._dim:
            raise ValueError(f"vector length {len(xs)} != dimension {self._dim}")
        rows, den = self._int_rows()
        return tuple(Fraction(sum(map(mul, row, xs)), den * dx) for row in rows)

    def trace(self) -> Fraction:
        """Sum of the diagonal of an order-2 tensor."""
        self._require_matrix("trace")
        return Fraction(sum(self._ints[::self._dim + 1]), self._den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, DenseTensor)
                and self._order == other._order
                and self._dim == other._dim
                and self._den == other._den
                and self._ints == other._ints)

    def __hash__(self) -> int:
        return hash((self._order, self._dim, self._den, self._ints))

    def __repr__(self) -> str:
        return f"DenseTensor(order={self._order}, dim={self._dim})"

    def to_nested(self):
        """Inverse of :meth:`from_nested` (order-0 tensors give a bare Fraction)."""
        nested = [Fraction(v, self._den) for v in self._ints]
        if self._order == 0:
            return nested[0]
        for _ in range(self._order - 1):
            nested = [nested[k:k + self._dim] for k in range(0, len(nested), self._dim)]
        return nested

    def to_json_dict(self) -> dict:
        return {
            "order": self._order,
            "dim": self._dim,
            "entries": [
                {"idx": list(idx), "value": str(value)}
                for idx, value in self.nonzero_items()
            ],
        }

    @staticmethod
    def from_json_dict(payload: Mapping) -> "DenseTensor":
        """Inverse of :meth:`to_json_dict`; a malformed field is refused
        with an error that names it."""
        order, dim = json_int(payload, "order"), json_int(payload, "dim")
        listed = payload.get("entries", [])
        if not isinstance(listed, list):
            raise TypeError(f"'entries' must be a list, got {listed!r:.40}")
        entries: dict[tuple, Scalar] = {}
        for entry in listed:
            if not isinstance(entry, dict):
                raise TypeError(f"every item of 'entries' must be an object, got {entry!r}")
            idx, value = entry.get("idx"), entry.get("value")
            if not isinstance(idx, list):
                raise TypeError(f"'idx' must be a list of integers, got {idx!r}")
            idx = tuple(strict_int(i, f"every entry of 'idx' {idx!r}") for i in idx)
            if idx in entries:
                raise ValueError(f"index {list(idx)} appears twice in 'entries'")
            if isinstance(value, bool) or not isinstance(value, (int, str, Fraction)):
                raise TypeError(f"'value' at index {list(idx)} must be an integer or a "
                                f"'p/q' string, not a bool, float or null; got {value!r}")
            try:
                entries[idx] = exact(value)
            except ZeroDivisionError:
                raise ValueError(f"'value' at index {list(idx)} has a zero denominator: "
                                 f"{value!r:.40}") from None
            except ValueError as err:
                raise ValueError(f"'value' at index {list(idx)}: {err}") from None
        return DenseTensor.from_entries(order, dim, entries)


def _act(elements: Sequence[GroupRingElement], tensor: DenseTensor
         ) -> tuple[tuple[int, ...], int]:
    """Integer numerators and denominator of ``a_1 (a_2 (... (a_k T)))`` for
    ``elements = (a_1, ..., a_k)``, applied right to left and not brought to
    lowest terms; no elements give the stored numerators of ``tensor``.

    Each term reads its entries through the cached ``_reader`` of its slot
    permutation, the identity term the numerators themselves, and ``map``
    folds it into the sum: no Python bytecode runs per entry."""
    ints, den, order = tensor._ints, tensor._den, tensor.order
    identity = tuple(range(1, order + 1))
    for a in reversed(elements):
        if a.degree != order:
            raise ValueError(f"element degree {a.degree} != tensor order {order}")
        acc = None
        for images, c in a._ints.items():
            read = ints if images == identity else _reader(images, tensor.dim)(ints)
            if acc is None:
                acc = read if c == 1 else map(neg, read) if c == -1 else map(mul, repeat(c), read)
            elif c == 1:
                acc = map(add, acc, read)
            elif c == -1:
                acc = map(sub, acc, read)
            else:
                acc = map(add, acc, map(mul, repeat(c), read))
            acc = tuple(acc)
        ints, den = (0,) * len(ints) if acc is None else acc, den * a._den
    return ints, den


def apply_symmetry_operator(a: GroupRingElement, tensor: DenseTensor) -> DenseTensor:
    """Act with ``a`` on ``tensor`` by permuting slots and summing (``_act``)."""
    return DenseTensor._unchecked(tensor.order, tensor.dim, *_act((a,), tensor))


def _contract_middle(tensor: DenseTensor, x: Sequence[Fraction]) -> DenseTensor:
    """The matrix ``C[d][a] = sum over (b, c) of T[a,b,c,d] x[b] x[c]`` of an
    order-4 ``T``."""
    n, ints = tensor.dim, tensor._ints
    xs, dx = numerators(x)
    xx = [u * w for u in xs for w in xs]
    # fixing a and d, the entries T[a,b,c,d] lie n apart in (b, c) order
    block = n ** 3
    return DenseTensor._unchecked(2, n, [
        sum(map(mul, xx, ints[a * block + d:(a + 1) * block:n]))
        for d in range(n) for a in range(n)], tensor._den * dx * dx)


def tensor_product(m: DenseTensor, n: DenseTensor) -> DenseTensor:
    """Order-2 times order-2 outer product: ``(M (x) N)[i,j,k,l] = M[i,j] N[k,l]``."""
    if m.order != 2 or n.order != 2:
        raise ValueError(f"need two order-2 tensors, got orders {m.order}, {n.order}")
    if m.dim != n.dim:
        raise ValueError(f"dimension mismatch: {m.dim} vs {n.dim}")
    _check_shape(4, m.dim)
    return DenseTensor._unchecked(4, m.dim, [
        x * y for x in m._ints for y in n._ints], m._den * n._den)


def _canonical_terms(terms: Iterable[tuple[Fraction, DenseTensor]]
                     ) -> list[tuple[Fraction, DenseTensor]]:
    """The canonical list of pairs ``(c, M)`` with the same
    ``sum c * tensor_product(M, M)`` as ``terms``.

    Each M is signed so that its first nonzero entry, row-major, is
    positive, which leaves ``M (x) M`` unchanged; equal matrices have equal
    storage, so they are merged by hashing; zero matrices, zero weights and
    zero sums are dropped; the rest are ordered by their entries, compared
    as numerators over the lcm of their denominators."""
    acc: dict[DenseTensor, Fraction] = {}
    for c, m in terms:
        lead = next((v for v in m._ints if v), 0)
        if c and lead:
            m = m if lead > 0 else -m
            acc[m] = acc.get(m, 0) + c
    common = lcm(*(m._den for m in acc))
    return sorted(((c, m) for m, c in acc.items() if c),
                  key=lambda term: [common // term[1]._den * v for v in term[1]._ints])


def to_group_ring(tensor: DenseTensor,
                  vectors: Sequence[Sequence[Scalar]]) -> GroupRingElement:
    """Evaluate ``tensor`` on every slot-permutation of the vector tuple.

    The coefficient of ``p`` is ``T(v_{p(1)}, ..., v_{p(r)})``.
    """
    r = tensor.order
    if len(vectors) != r:
        raise ValueError(f"need {r} vectors, got {len(vectors)}")
    converted = [numerators([exact(c) for c in v]) for v in vectors]
    if any(len(v) != tensor.dim for v, _ in converted):
        raise ValueError(f"every vector must have dimension {tensor.dim}")
    vecs = [v for v, _ in converted]
    entries = [(idx, n) for idx, n in zip(tensor.indices(), tensor._ints) if n]
    return GroupRingElement._unchecked(r, {
        perm.images: sum(n * prod(vecs[perm.images[k] - 1][i] for k, i in enumerate(idx))
                         for idx, n in entries)
        for perm in enumerate_group(r)}, prod((d for _, d in converted), start=tensor._den))


def _slab(tensor: DenseTensor, k: int, l: int) -> DenseTensor:
    """The matrix ``M[i,j] = T[i,j,k,l]`` of an order-4 ``T``."""
    n = tensor.dim
    return DenseTensor._unchecked(2, n, tensor._ints[k * n + l::n * n], tensor._den)


def _operator_rows(tensor: DenseTensor) -> tuple[list[list[int]], int]:
    """The curvature operator of an order-4 ``T`` as integer rows over the
    denominator of ``T``: ``B[(ij),(kl)] = T[i,j,k,l]`` for the pairs
    ``i < j`` and ``k < l``, in lexicographic order."""
    n, ints = tensor.dim, tensor._ints
    pairs = [i * n + j for i in range(n) for j in range(i + 1, n)]
    return [[ints[p * n * n + q] for q in pairs] for p in pairs], tensor._den


def _from_operator_rows(rows: Sequence[Sequence[int]], den: int, n: int) -> DenseTensor:
    """Inverse of ``_operator_rows``: the dimension-``n`` curvature tensor
    whose curvature operator is the integer ``rows`` over ``den > 0``,
    without validation.  Block (i,j), the matrix ``T[i,j,.,.]``, is the skew
    matrix of row (ij) for i < j, its negative for i > j and 0 for i = j."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # entry (k,l) of the skew matrix of row r, read from (0, *r, *-r)
    at = [[0] * n for _ in range(n)]
    for p, (k, l) in enumerate(pairs, 1):
        at[k][l], at[l][k] = p, p + len(pairs)
    skew = itemgetter(*chain.from_iterable(at))
    blocks = [[(0,) * (n * n)] * n for _ in range(n)]
    for (i, j), r in zip(pairs, rows):
        blocks[i][j], blocks[j][i] = skew((0, *r, *map(neg, r))), skew((0, *map(neg, r), *r))
    return DenseTensor._unchecked(4, n, tuple(chain(*chain(*blocks))), den)


def slice_pairs(tensor: DenseTensor) -> list[tuple[DenseTensor, DenseTensor]]:
    """Cut an order-4 tensor into matrix pairs with ``sum M (x) N == tensor``.

    Pair (k,l) is the slice ``M[i,j] = T[i,j,k,l]`` together with the (k,l)
    matrix unit; slices that vanish are dropped.
    """
    if tensor.order != 4:
        raise ValueError(f"slice_pairs needs order 4, got {tensor.order}")
    n = tensor.dim
    return [(slab, DenseTensor.from_entries(2, n, {(k, l): 1}))
            for k in range(n) for l in range(n)
            if not (slab := _slab(tensor, k, l)).is_zero]


def sym_split(m: DenseTensor) -> tuple[DenseTensor, DenseTensor]:
    """Unique split ``M = S + A`` with S symmetric and A skew."""
    if m.order != 2:
        raise ValueError(f"sym_split needs order 2, got {m.order}")
    mt = m.transpose()
    half = Fraction(1, 2)
    return (m + mt).scale(half), (m - mt).scale(half)

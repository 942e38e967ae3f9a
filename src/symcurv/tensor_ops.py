"""Dense exact-rational tensors and the slot-permutation action on them.

A group-ring element ``a`` acts on an order-r tensor by
``(a T)[i_1..i_r] = sum over p of a(p) * T[i_{p(1)}..i_{p(r)}]``:
permutations shuffle argument slots, coefficients weight the sum.  With the
composition convention of :mod:`symcurv.symgroup` this is a left action,
``(a*b) T == a (b T)``.

Tensor indices are 0-based tuples here and in the JSON form; the 1-based
numbers inside permutations refer to argument *slots*, not index values.

Entries are stored flat in row-major order, and only this module knows that
layout.  ``_gather`` is the one place that maps a slot permutation to flat
positions.  ``transpose`` and the integer action ``_act`` read through it.
``apply_symmetry_operator`` runs ``_act`` on the tensor's entries brought to
integer numerators by ``_exact.numerators``, and every other symmetry
operation in the package goes through it, except
``curvature.check_curvature``, which converts its tensor once and calls
``_act`` for each of its five elements.  ``_contract_middle`` is the Jacobi
contraction ``T(a, x, x, d)``, on integer numerators as well.

An order-2 tensor is the package's one matrix type, and its matrix
operations live here: ``rows``, the product ``@`` (on integer rows over
one denominator, from ``_int_rows``), the action on a column vector
``m(v)``, ``trace`` and ``transpose``.  Each refuses other orders with
``ValueError``.  ``osserman.LinearMap`` only adds a rows constructor and
``identity``; arithmetic keeps the type of its left operand, so maps stay
maps.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as _product
from operator import mul
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

from ._exact import exact, json_int, numerators
from .symgroup import GroupRingElement, Permutation, enumerate_group

Scalar = Union[int, str, Fraction]


#: Bound on the number of entries ``dim ** order`` of a tensor.  Every entry
#: is stored, so anything larger is refused before storage is allocated
#: (orders past ``_ENTRY_CAP.bit_length()`` are refused outright).
_ENTRY_CAP = 10 ** 6


def _check_shape(order: int, dim: int) -> None:
    if order < 0 or dim < 1:
        raise ValueError(f"bad shape: order={order}, dim={dim}")
    if order > _ENTRY_CAP.bit_length() or dim ** order > _ENTRY_CAP:
        raise ValueError(
            f"order {order}, dim {dim} exceeds the cap of {_ENTRY_CAP} entries"
        )


def _position(idx: Sequence[int], dim: int) -> int:
    pos = 0
    for i in idx:
        pos = pos * dim + i
    return pos


def _gather(images: Sequence[int], dim: int) -> list[int]:
    """Flat source position of every flat target position, in row-major
    order, for the slot permutation ``images``: target ``(i_1..i_r)`` reads
    source ``(i_{p(1)}..i_{p(r)})``."""
    stride = {img: dim ** (len(images) - k) for k, img in enumerate(images, 1)}
    positions = [0]
    for slot in sorted(stride):
        positions = [base + i * stride[slot] for base in positions for i in range(dim)]
    return positions


class DenseTensor:
    """An order-r tensor over ``{0..n-1}^r`` with Fraction entries, row-major."""

    __slots__ = ("_order", "_dim", "_data")

    def __init__(self, order: int, dim: int, data: Iterable[Scalar]):
        _check_shape(order, dim)
        self._order = order
        self._dim = dim
        entries = tuple(exact(v) for v in data)
        if len(entries) != dim ** order:
            raise ValueError(
                f"expected {dim ** order} entries for order {order}, dim {dim}; "
                f"got {len(entries)}"
            )
        self._data = entries

    @classmethod
    def _unchecked(cls, order: int, dim: int,
                   data: tuple[Fraction, ...]) -> "DenseTensor":
        """Wrap ``data`` without validation; callers guarantee that it is a
        tuple of ``dim ** order`` Fractions."""
        out = cls.__new__(cls)
        out._order, out._dim, out._data = order, dim, data
        return out

    @classmethod
    def zeros(cls, order: int, dim: int) -> "DenseTensor":
        _check_shape(order, dim)
        return cls._unchecked(order, dim, (Fraction(0),) * dim ** order)

    @classmethod
    def from_entries(cls, order: int, dim: int,
                     entries: Mapping[tuple[int, ...], Scalar]) -> "DenseTensor":
        """Build from a sparse ``index tuple -> value`` mapping; rest is zero."""
        _check_shape(order, dim)
        data = [Fraction(0)] * (dim ** order)
        for idx, value in entries.items():
            idx = tuple(idx)
            if len(idx) != order or any(isinstance(i, bool) or not 0 <= i < dim
                                        for i in idx):
                raise ValueError(f"index {idx} out of range for order {order}, dim {dim}")
            data[_position(idx, dim)] = exact(value)
        return cls._unchecked(order, dim, tuple(data))

    @classmethod
    def from_function(cls, order: int, dim: int,
                      fn: Callable[[tuple[int, ...]], Scalar]) -> "DenseTensor":
        return cls(order, dim, (fn(idx) for idx in _product(range(dim), repeat=order)))

    @classmethod
    def from_nested(cls, nested) -> "DenseTensor":
        """Build from nested lists, e.g. ``from_nested([[1, 0], [0, -1]])``."""
        order = 0
        probe = nested
        while isinstance(probe, (list, tuple)):
            order += 1
            if not probe:
                raise ValueError("empty axis in nested data")
            probe = probe[0]
        dim = len(nested) if order else 1

        flat: list[Scalar] = []

        def walk(node, depth: int) -> None:
            if depth == order:
                if isinstance(node, (list, tuple)):
                    raise ValueError("ragged nested data")
                flat.append(node)
                return
            if not isinstance(node, (list, tuple)) or len(node) != dim:
                raise ValueError(f"axis at depth {depth} must have length {dim}")
            for child in node:
                walk(child, depth + 1)

        walk(nested, 0)
        return cls(order, dim, flat)

    @property
    def order(self) -> int:
        return self._order

    @property
    def dim(self) -> int:
        return self._dim

    def __getitem__(self, idx: tuple[int, ...]) -> Fraction:
        if isinstance(idx, int):
            idx = (idx,)
        if len(idx) != self._order or any(not 0 <= i < self._dim for i in idx):
            raise IndexError(f"bad index {idx} for order {self._order}, dim {self._dim}")
        return self._data[_position(idx, self._dim)]

    def indices(self) -> Iterator[tuple[int, ...]]:
        return _product(range(self._dim), repeat=self._order)

    def nonzero_items(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        for pos, idx in enumerate(self.indices()):
            value = self._data[pos]
            if value:
                yield idx, value

    @property
    def is_zero(self) -> bool:
        return not any(self._data)

    def __bool__(self) -> bool:
        return not self.is_zero

    def _require_same_shape(self, other: "DenseTensor") -> None:
        if self._order != other._order or self._dim != other._dim:
            raise ValueError(
                f"shape mismatch: order {self._order}, dim {self._dim} vs "
                f"order {other._order}, dim {other._dim}"
            )

    def __add__(self, other: "DenseTensor") -> "DenseTensor":
        if not isinstance(other, DenseTensor):
            return NotImplemented
        self._require_same_shape(other)
        return type(self)._unchecked(self._order, self._dim, tuple(
            a + b for a, b in zip(self._data, other._data)))

    def __sub__(self, other: "DenseTensor") -> "DenseTensor":
        if not isinstance(other, DenseTensor):
            return NotImplemented
        self._require_same_shape(other)
        return type(self)._unchecked(self._order, self._dim, tuple(
            a - b for a, b in zip(self._data, other._data)))

    def __neg__(self) -> "DenseTensor":
        return type(self)._unchecked(self._order, self._dim,
                                     tuple(-a for a in self._data))

    def scale(self, scalar: Scalar) -> "DenseTensor":
        factor = exact(scalar)
        return type(self)._unchecked(self._order, self._dim,
                                     tuple(factor * a for a in self._data))

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
        n, data = self._dim, self._data
        return tuple(data[k:k + n] for k in range(0, n * n, n))

    def _int_rows(self) -> tuple[list[list[int]], int]:
        """The rows of an order-2 tensor as integer numerators over one
        common denominator."""
        self._require_matrix("integer rows")
        n = self._dim
        flat, den = numerators(self._data)
        return [flat[k:k + n] for k in range(0, n * n, n)], den

    def transpose(self) -> "DenseTensor":
        """Swap the two slots of an order-2 tensor."""
        self._require_matrix("transpose")
        return type(self)._unchecked(2, self._dim, tuple(
            map(self._data.__getitem__, _gather((2, 1), self._dim))))

    def __matmul__(self, other: "DenseTensor") -> "DenseTensor":
        """Matrix product of two order-2 tensors."""
        if not isinstance(other, DenseTensor):
            return NotImplemented
        self._require_matrix("@")
        self._require_same_shape(other)
        # integer rows over da * db, one Fraction per entry of the product
        a, da = self._int_rows()
        b, db = other._int_rows()
        den = da * db
        columns = tuple(zip(*b))
        return type(self)._unchecked(2, self._dim, tuple(
            Fraction(sum(map(mul, row, column)), den)
            for row in a for column in columns))

    def __call__(self, vector: Sequence[Scalar]) -> tuple[Fraction, ...]:
        """The order-2 tensor applied to a column vector."""
        self._require_matrix("applying to a vector")
        vec = tuple(exact(v) for v in vector)
        n, data = self._dim, self._data
        if len(vec) != n:
            raise ValueError(f"vector length {len(vec)} != dimension {n}")
        return tuple(sum(map(mul, data[k:k + n], vec)) for k in range(0, n * n, n))

    def trace(self) -> Fraction:
        """Sum of the diagonal of an order-2 tensor."""
        self._require_matrix("trace")
        return sum(self._data[::self._dim + 1])

    def __eq__(self, other) -> bool:
        return (isinstance(other, DenseTensor)
                and self._order == other._order
                and self._dim == other._dim
                and self._data == other._data)

    def __repr__(self) -> str:
        return f"DenseTensor(order={self._order}, dim={self._dim})"

    def to_nested(self):
        """Inverse of :meth:`from_nested` (order-0 tensors give a bare Fraction)."""
        if self._order == 0:
            return self._data[0]
        nested = list(self._data)
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

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "DenseTensor":
        order, dim = json_int(payload, "order"), json_int(payload, "dim")
        entries: dict[tuple, Scalar] = {}
        for entry in payload.get("entries", ()):
            idx = tuple(entry["idx"])
            if idx in entries:
                raise ValueError(f"index {list(idx)} appears twice in 'entries'")
            entries[idx] = entry["value"]
        return cls.from_entries(order, dim, entries)


def _act(a: GroupRingElement, ints: Sequence[int], den: int, dim: int) -> list[int]:
    """Numerators over ``den * den`` of ``a`` applied to the tensor with
    numerators ``ints`` over ``den``; ``den`` must be a multiple of every
    coefficient denominator of ``a``."""
    acc = [0] * len(ints)
    for perm, c in a.items():
        c = c.numerator * (den // c.denominator)
        acc = [s + c * ints[j] for s, j in zip(acc, _gather(perm.images, dim))]
    return acc


def apply_symmetry_operator(a: GroupRingElement, tensor: DenseTensor) -> DenseTensor:
    """Act with ``a`` on ``tensor`` by permuting slots and summing."""
    if a.degree != tensor.order:
        raise ValueError(
            f"element degree {a.degree} != tensor order {tensor.order}"
        )
    # integer numerators over one common denominator, one Fraction per entry
    ints, den = numerators(tensor._data, *(c.denominator for _, c in a.items()))
    return DenseTensor._unchecked(tensor.order, tensor.dim, tuple(
        Fraction(s, den * den) for s in _act(a, ints, den, tensor.dim)))


def _contract_middle(tensor: DenseTensor,
                     x: Sequence[Fraction]) -> tuple[list[list[int]], int]:
    """``C[d][a] = sum over (b, c) of T[a,b,c,d] x[b] x[c]`` for an order-4
    ``T``, as integer numerators over one denominator."""
    n = tensor.dim
    ints, den = numerators(tensor._data)
    xs, dx = numerators(x)
    xx = [u * w for u in xs for w in xs]
    # fixing a and d, the entries T[a,b,c,d] lie n apart in (b, c) order
    block = n ** 3
    return [[sum(map(mul, xx, ints[a * block + d:(a + 1) * block:n]))
             for a in range(n)] for d in range(n)], den * dx * dx


def tensor_product(m: DenseTensor, n: DenseTensor) -> DenseTensor:
    """Order-2 times order-2 outer product: ``(M (x) N)[i,j,k,l] = M[i,j] N[k,l]``."""
    if m.order != 2 or n.order != 2:
        raise ValueError(f"need two order-2 tensors, got orders {m.order}, {n.order}")
    if m.dim != n.dim:
        raise ValueError(f"dimension mismatch: {m.dim} vs {n.dim}")
    return DenseTensor._unchecked(4, m.dim, tuple(
        x * y for x in m._data for y in n._data))


def to_group_ring(tensor: DenseTensor,
                  vectors: Sequence[Sequence[Scalar]]) -> GroupRingElement:
    """Evaluate ``tensor`` on every slot-permutation of the vector tuple.

    The coefficient of ``p`` is ``T(v_{p(1)}, ..., v_{p(r)})``.
    """
    r = tensor.order
    if len(vectors) != r:
        raise ValueError(f"need {r} vectors, got {len(vectors)}")
    vecs = [tuple(exact(c) for c in v) for v in vectors]
    if any(len(v) != tensor.dim for v in vecs):
        raise ValueError(f"every vector must have dimension {tensor.dim}")
    items = list(tensor.nonzero_items())
    terms: dict[Permutation, Fraction] = {}
    for perm in enumerate_group(r):
        chosen = [vecs[perm(k + 1) - 1] for k in range(r)]
        total = Fraction(0)
        for idx, value in items:
            term = value
            for k in range(r):
                component = chosen[k][idx[k]]
                if not component:
                    term = Fraction(0)
                    break
                term *= component
            total += term
        if total:
            terms[perm] = total
    return GroupRingElement(r, terms)


def slice_pairs(tensor: DenseTensor) -> list[tuple[DenseTensor, DenseTensor]]:
    """Cut an order-4 tensor into matrix pairs with ``sum M (x) N == tensor``.

    Pair (k,l) is the slice ``M[i,j] = T[i,j,k,l]`` together with the (k,l)
    matrix unit; slices that vanish are dropped.
    """
    if tensor.order != 4:
        raise ValueError(f"slice_pairs needs order 4, got {tensor.order}")
    n = tensor.dim
    slabs = [DenseTensor._unchecked(2, n, tensor._data[kl::n * n]) for kl in range(n * n)]
    return [(slab, DenseTensor.from_entries(2, n, {divmod(kl, n): 1}))
            for kl, slab in enumerate(slabs) if not slab.is_zero]


def sym_split(m: DenseTensor) -> tuple[DenseTensor, DenseTensor]:
    """Unique split ``M = S + A`` with S symmetric and A skew."""
    if m.order != 2:
        raise ValueError(f"sym_split needs order 2, got {m.order}")
    mt = m.transpose()
    half = Fraction(1, 2)
    return (m + mt).scale(half), (m - mt).scale(half)

"""Pseudo-Riemannian metrics, Jacobi operators, and exact spectra.

Index conventions.  A metric ``g`` is a symmetric invertible matrix of
rationals.  A linear map ``C`` and a bilinear form ``B`` correspond
through ``B(x, y) = g(C x, y)``; ``Metric.raise_form`` / ``lower_map``
convert in both directions and are exact inverses of each other.  The
Jacobi operator of an order-4 tensor ``T`` at ``x`` is the map ``J`` with
``g(J y, w) = T(y, x, x, w)``.

Sampling on the pseudo-unit spheres ``g(x,x) = +-1`` intersects rational
lines through a fixed base point with the quadric, so every sample lies on
the sphere exactly; sequences are deterministic for a given seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, dropwhile, islice, product, zip_longest
from math import gcd, isqrt, lcm
from operator import mul, not_
from typing import Iterable, Mapping, Sequence

from ._exact import Scalar, exact, json_int, numerators, row_reduce
from .curvature import (
    _quadratic_sum,
    _require_curvature,
    _require_skew,
    _require_symmetric,
    gamma,
)
from .tensor_ops import DenseTensor, _check_shape, _contract_middle

Vector = tuple[Fraction, ...]


class SignatureError(ValueError):
    """A construction was requested in a signature where it cannot exist."""


class LinearMap(DenseTensor):
    """An exact-rational square matrix acting on column vectors: an order-2
    :class:`DenseTensor` built from its rows, with all of its arithmetic."""

    __slots__ = ()

    def __init__(self, rows):
        if isinstance(rows, DenseTensor):
            rows = rows.rows
        rows = [tuple(row) for row in rows]
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square and nonempty")
        super().__init__(2, len(rows), (v for row in rows for v in row))

    @classmethod
    def identity(cls, n: int) -> "LinearMap":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    def __repr__(self) -> str:
        return f"LinearMap(dim={self.dim})"


def check_signature(p: int, q: int) -> None:
    """Refuse a signature with a negative count or no dimensions, and one
    whose order-4 tensors would pass the entry cap, before anything is
    allocated."""
    if p < 0 or q < 0 or p + q < 1:
        raise ValueError(f"bad signature ({p},{q})")
    _check_shape(4, p + q)


def _standard_rows(p: int, q: int) -> list[list[int]]:
    """The rows of diag(+1 x p, -1 x q)."""
    return [[(1 if i < p else -1) * (i == j) for j in range(p + q)] for i in range(p + q)]


class Metric:
    """A symmetric, exactly invertible rational matrix with cached inverse.

    The signature is read off :func:`char_poly` of the matrix by counting
    sign changes (Descartes' rule of signs), so no elimination of its own
    is needed.  Its cost is that of the integer trace recursion, about n⁴
    multiply-adds: 0.5–0.6 ms at n = 8, diagonal or not, and 40 ms for a
    diagonal n = 31 (Python 3.11, one core of a 2-core VM).
    """

    __slots__ = ("_matrix", "_inverse", "_signature")

    def __init__(self, matrix):
        matrix = LinearMap(matrix)
        _require_symmetric(matrix)
        n = matrix.dim
        # [den*A | den*I] on integers; row i then reads row i of A^-1 over
        # its pivot, and over the lcm of the pivots
        m, den = matrix._int_rows()
        work = [row + [den * (i == j) for j in range(n)]
                for i, row in enumerate(m)]
        if len(row_reduce(work, n)) < n:
            raise ValueError("matrix is singular over the rationals")
        self._matrix = matrix
        common = lcm(*(row[i] for i, row in enumerate(work)))
        self._inverse = LinearMap._from_int_rows([
            [v * (common // row[i]) for v in row[n:]] for i, row in enumerate(work)], common)
        # Descartes' rule of signs: the number of positive roots is at most
        # the number of sign changes among the nonzero coefficients, with
        # equality when every root is real.  A symmetric matrix has real
        # eigenvalues only, and none is 0 (singular input was refused
        # above), so the count is exact and the rest are negative.
        signs = [c > 0 for c in char_poly(matrix) if c]
        positive = sum(a != b for a, b in zip(signs, signs[1:]))
        self._signature = (positive, n - positive)

    @classmethod
    def standard(cls, p: int, q: int) -> "Metric":
        """diag(+1 x p, -1 x q), after :func:`check_signature`."""
        check_signature(p, q)
        return cls(_standard_rows(p, q))

    @property
    def dim(self) -> int:
        return self._matrix.dim

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._matrix.rows

    @property
    def inverse_rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._inverse.rows

    @property
    def signature(self) -> tuple[int, int]:
        return self._signature

    @property
    def is_standard_form(self) -> bool:
        return self._matrix._int_rows() == (_standard_rows(*self._signature), 1)

    def inner(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> Fraction:
        xv, yv = [exact(v) for v in x], [exact(v) for v in y]
        if len(xv) != self.dim or len(yv) != self.dim:
            raise ValueError(f"vectors must have dimension {self.dim}")
        return sum(map(mul, xv, self._matrix(yv)))

    def tensor(self) -> DenseTensor:
        """The metric as an order-2 tensor (symmetric, so gamma applies)."""
        return self._matrix

    def raise_form(self, form: DenseTensor) -> LinearMap:
        """The map C with ``g(C x, y) == B(x, y)``."""
        if form.order != 2:
            raise ValueError(f"order-2 tensor required, got order {form.order}")
        if form.dim != self.dim:
            raise ValueError(f"form dimension {form.dim} != metric dimension {self.dim}")
        # matrix of C is (B g^{-1})^T == g^{-1} B^T, as g is symmetric
        return self._inverse @ form.transpose()

    def lower_map(self, mapping: LinearMap) -> DenseTensor:
        """The form B with ``B(x, y) == g(C x, y)``; inverse of raise_form."""
        if mapping.dim != self.dim:
            raise ValueError(
                f"map dimension {mapping.dim} != metric dimension {self.dim}"
            )
        return mapping.transpose() @ self._matrix

    def is_skew_map(self, mapping: LinearMap) -> bool:
        """Skew as a map: the lowered form is skew-symmetric."""
        b = self._matrix @ mapping
        return b.transpose() == -b

    def __eq__(self, other) -> bool:
        return isinstance(other, Metric) and self._matrix == other._matrix

    def __repr__(self) -> str:
        p, q = self._signature
        return f"Metric(dim={self.dim}, signature=({p},{q}))"

    def to_json_dict(self) -> dict:
        if self.is_standard_form:
            p, q = self._signature
            return {"p": p, "q": q}
        return {"matrix": [[str(v) for v in row] for row in self.rows]}

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "Metric":
        """Inverse of :meth:`to_json_dict`: either ``matrix`` or ``p`` and
        ``q``; a payload with both is refused rather than read one way."""
        if "matrix" in payload:
            if "p" in payload or "q" in payload:
                raise ValueError("a metric has either 'matrix' or 'p' and 'q', not both")
            rows = payload["matrix"]
            if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
                raise TypeError(f"'matrix' must be a list of lists, got {rows!r}")
            _check_shape(4, len(rows) or 1)  # LinearMap refuses an empty matrix
            return cls(rows)
        return cls.standard(json_int(payload, "p"), json_int(payload, "q"))


def jacobi_operator(tensor: DenseTensor, g: Metric,
                    x: Sequence[Scalar]) -> LinearMap:
    """The map J with ``g(J y, w) = T(y, x, x, w)``.

    Callers are expected to pass an algebraic curvature tensor; only shape
    compatibility is enforced here (the membership check is not free and
    samplers call this in a loop).
    """
    if tensor.order != 4:
        raise ValueError(f"order-4 tensor required, got order {tensor.order}")
    n = g.dim
    if tensor.dim != n:
        raise ValueError(f"tensor dimension {tensor.dim} != metric dimension {n}")
    xv = tuple(exact(v) for v in x)
    if len(xv) != n:
        raise ValueError(f"vector length {len(xv)} != dimension {n}")
    # contracted[d][a] = T(a, x, x, d), so J = g^{-1} @ contracted
    return g._inverse @ _contract_middle(tensor, xv)


def _closed_form_parts(m: DenseTensor, g: Metric, x: Sequence[Scalar]
                       ) -> tuple[LinearMap, Fraction, LinearMap]:
    """``C = raise_form(M)``, ``g(Cx, x)`` and the map ``y -> g(Cy, x) C x``,
    the outer product of ``u = Cx`` with the ``w`` for which
    ``w . y == g(Cy, x)``."""
    c = g.raise_form(m)
    xv = [exact(v) for v in x]
    u = c(xv)
    (us, du), (ws, dw) = numerators(u), numerators(c.transpose()(g._matrix(xv)))
    outer = LinearMap._from_int_rows([[a * b for b in ws] for a in us], du * dw)
    return c, g.inner(u, xv), outer


def jacobi_gamma_closed(s: DenseTensor, g: Metric,
                        x: Sequence[Scalar]) -> LinearMap:
    """Closed form for the Jacobi operator of ``gamma(S)``:
    ``J y = (g(Cx,x) C y - g(Cy,x) C x) / 3`` with ``C = raise_form(S)``."""
    _require_symmetric(s)
    c, cxx, outer = _closed_form_parts(s, g, x)
    return (c.scale(cxx) - outer).scale(Fraction(1, 3))


def jacobi_alpha_closed(a: DenseTensor, g: Metric,
                        x: Sequence[Scalar]) -> LinearMap:
    """Closed form for the Jacobi operator of ``alpha(A)``:
    ``J y = g(Cy,x) C x`` with ``C = raise_form(A)``."""
    _require_skew(a)
    return _closed_form_parts(a, g, x)[2]


def char_poly(mapping: LinearMap) -> tuple[Fraction, ...]:
    """Monic characteristic polynomial, highest power first.

    The trace recursion (Faddeev-LeVerrier) runs on integers: on the
    integer matrix ``M = den * J``, with ``den`` the common denominator of
    the entries of ``J``, every coefficient ``c_k(M)`` and every
    intermediate matrix is an integer, so each division by ``k`` is exact
    (a remainder raises).  The coefficients of ``J`` are
    ``c_k(M) / den**k``.
    """
    m, den = mapping._int_rows()
    n = len(m)
    columns = tuple(zip(*m))
    coefficients = [Fraction(1)]
    work = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        # product = work @ M, which commutes with M @ work (both are
        # polynomials in M)
        product = [[sum(map(mul, row, column)) for column in columns] for row in work]
        ck, remainder = divmod(-sum(product[i][i] for i in range(n)), k)
        if remainder:
            raise ArithmeticError(f"trace recursion left a remainder at step {k}")
        coefficients.append(Fraction(ck, den ** k))
        for i in range(n):
            product[i][i] += ck
        work = product
    return tuple(coefficients)


def rational_roots(
    coefficients: Sequence[Scalar],
) -> tuple[tuple[tuple[Fraction, int], ...], tuple[Fraction, ...]]:
    """Extract the rational roots (with multiplicity) of a polynomial.

    The coefficients come highest power first and are divided by the
    leading one, which must be nonzero.  Returns sorted ``(root,
    multiplicity)`` pairs and the monic unfactored remainder; a remainder
    of ``(1,)`` means the polynomial split completely over the rationals.

    The roots are found on integers by p-adic lifting (Loos, SIAM J.
    Comput. 12, 1983).  With ``x = t/L``, L the lcm of the denominators of
    the monic polynomial, they are the integer roots of a monic integer f,
    hence of its square-free part ``g = f / gcd(f, f')``, and none exceeds
    ``B = 1 + max |g_i|`` (Cauchy).  Let p be the smallest prime at which
    no root of g mod p is a root of g' mod p.  Newton's step lifts each
    root of g mod p to one residue modulo p², p⁴, ... past 2B; its
    symmetric residue is a root when f vanishes there, and f is then
    divided by it as often as it divides.
    """
    coeffs = [exact(c) for c in coefficients]
    if not coeffs or not coeffs[0]:
        raise ValueError("leading coefficient must be nonzero")
    ints, scale = numerators([c / coeffs[0] for c in coeffs])
    # f(t) = L^d p(t/L): f_i = p_i L^i = ints[i] L^(i-1), and ints[0] == L
    f = [c * scale ** i // scale for i, c in enumerate(ints)]
    # Euclid on primitive pseudo-remainders; the gcd is primitive and
    # divides the monic f, so it leads with +-1 and the quotient is exact
    a, b = f, _derivative(f)
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[1])
    g = _pseudo_divmod(f, _primitive(a))[0]
    dg = _derivative(g)
    for p in (n for n in count(2) if all(n % d for d in range(2, n))):
        residues = [r for r in range(p) if not _horner(g, r) % p]
        if all(_horner(dg, r) % p for r in residues):
            break  # reached: any prime that does not divide disc(g) != 0 will do
    bound = 2 * (1 + max(map(abs, g[1:]), default=0))
    pairs = []
    for r in residues:
        modulus = p
        while modulus <= bound:
            modulus *= modulus
            r = (r - _horner(g, r) * pow(_horner(dg, r), -1, modulus)) % modulus
        r = r - modulus if 2 * r > modulus else r
        multiplicity = 0
        while _horner(f, r) == 0:
            f = _pseudo_divmod(f, [1, -r])[0]
            multiplicity += 1
        if multiplicity:
            pairs.append((Fraction(r, scale), multiplicity))
    return (tuple(sorted(pairs)),
            tuple(Fraction(c, scale ** i) for i, c in enumerate(f)))


def _horner(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _derivative(coeffs: Sequence[int]) -> list[int]:
    return [c * (len(coeffs) - 1 - i) for i, c in enumerate(coeffs[:-1])]


def _primitive(coeffs: Sequence[int]) -> list[int]:
    """Without leading zeros and divided by its content; ``[]`` for zero."""
    coeffs = list(dropwhile(not_, coeffs))
    content = gcd(*coeffs)
    return [c // content for c in coeffs]


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """``(q, r)`` with ``b[0]**k * a == q*b + r`` on integers, where ``k``
    is the number of steps taken; ``r`` may keep leading zeros."""
    q, r = [], list(a)
    while len(r) >= len(b):
        lead = r[0]
        q = [b[0] * c for c in q] + [lead]
        r = [b[0] * c - lead * d for c, d in zip_longest(r[1:], b[1:], fillvalue=0)]
    return q, r


def clifford_check(maps: Iterable[LinearMap], g: Metric,
                   generalized: bool = False) -> bool:
    """True iff the maps are skew w.r.t. ``g``, pairwise anticommute, and
    square to -Id (or to +-Id when ``generalized``)."""
    maps = tuple(maps)
    n = g.dim
    for c in maps:
        if c.dim != n:
            raise ValueError(f"map dimension {c.dim} != metric dimension {n}")
    identity = LinearMap.identity(n)
    minus_identity = -identity
    for c in maps:
        if not g.is_skew_map(c):
            return False
        square = c @ c
        if square != minus_identity and not (generalized and square == identity):
            return False
    for i, ci in enumerate(maps):
        for cj in maps[i + 1:]:
            if not (ci @ cj + cj @ ci).is_zero:
                return False
    return True


def quaternion_triple() -> tuple[LinearMap, LinearMap, LinearMap]:
    """Left multiplication by i, j, k on the quaternions as maps of R^4:
    the canonical strict anticommuting family for the Euclidean metric."""
    i = LinearMap([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    j = LinearMap([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
    k = LinearMap([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
    return i, j, k


def clifford_family(lam0: Scalar, lams: Sequence[Scalar],
                    maps: Sequence[LinearMap], g: Metric) -> DenseTensor:
    """``T = 3*lam0*gamma(g) + 3*sum lam_i*alpha(lower(C_i))`` for an
    anticommuting family of skew maps squaring to -Id."""
    lams = [exact(v) for v in lams]
    if len(lams) != len(maps):
        raise ValueError(f"{len(lams)} coefficients for {len(maps)} maps")
    if not clifford_check(maps, g):
        raise ValueError(
            "maps must be skew w.r.t. the metric, square to -Id, and "
            "anticommute pairwise"
        )
    return _quadratic_sum(g.dim, [(3 * exact(lam0), g.tensor())],
                          [(3 * lam, g.lower_map(c)) for lam, c in zip(lams, maps)])


def jordan_family(coefficients: Sequence[Scalar],
                  cross_coefficients: Sequence[Sequence[Scalar]],
                  skews: Sequence[DenseTensor]) -> DenseTensor:
    """``T = sum c_i alpha(A_i) + 1/2 sum over i != j of c_ij alpha(A_i + A_j)``
    with symmetric c_ij: checks the counts and c_ij, then every A_i (even of weight 0)."""
    k = len(skews)
    cs = [exact(v) for v in coefficients]
    if len(cs) != k:
        raise ValueError(f"{len(cs)} coefficients for {k} matrices")
    cross = [[exact(v) for v in row] for row in cross_coefficients]
    if len(cross) != k or any(len(row) != k for row in cross):
        raise ValueError(f"cross-coefficient matrix must be {k}x{k}")
    for i in range(k):
        for j in range(i + 1, k):
            if cross[i][j] != cross[j][i]:
                raise ValueError("cross coefficients must be symmetric")
    if k == 0:
        raise ValueError("need at least one skew matrix")
    # the (i, j) and (j, i) cross terms are equal: one term per pair i < j;
    # the sums are formed lazily, after _quadratic_sum has checked every A_i
    crossed = ((cross[i][j], skews[i] + skews[j])
               for i in range(k) for j in range(i + 1, k) if cross[i][j])
    return _quadratic_sum(skews[0].dim, (), chain(zip(cs, skews), crossed))


def nilpotent_sym_example(p: int, q: int) -> DenseTensor:
    """A nonzero symmetric S with ``(S F)^2 == 0`` for signature (p, q):
    the all-ones 2x2 block across the last plus and first minus slot."""
    if p < 1 or q < 1:
        raise SignatureError(
            f"signature ({p},{q}) is definite: a symmetric or skew matrix "
            "M with M^2 = 0 has trace(M M^T) = 0 and therefore vanishes"
        )
    m = p + q
    block = {(p - 1, p - 1): 1, (p - 1, p): 1, (p, p - 1): 1, (p, p): 1}
    return DenseTensor.from_entries(2, m, block)


def nilpotent_skew_example(p: int, q: int) -> DenseTensor:
    """A nonzero skew A with ``(A F)^2 == 0`` for signature (p, q), built
    as ``u v^T - v u^T`` from two null, mutually orthogonal vectors."""
    if p < 2 or q < 2:
        raise SignatureError(
            f"signature ({p},{q}): with fewer than two plus or two minus "
            "directions every skew A with (A F)^2 = 0 vanishes"
        )
    m = p + q
    u = [Fraction(0)] * m
    v = [Fraction(0)] * m
    u[0] = u[p] = Fraction(1)
    v[1] = v[p + 1] = Fraction(1)
    return DenseTensor.from_function(
        2, m, lambda x: u[x[0]] * v[x[1]] - v[x[0]] * u[x[1]]
    )


def sample_vectors(dim: int, count: int, seed: int = 0) -> list[Vector]:
    """Deterministic nonzero rational vectors with small entries."""
    _check_shape(1, dim)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = random.Random(seed)
    out: list[Vector] = []
    while len(out) < count:
        vec = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for _ in range(dim))
        if any(vec):
            out.append(vec)
    return out


def _find_anchor(g: Metric, sign: int) -> Vector:
    n = g.dim
    for i in range(n):
        if g._matrix[i, i] == sign:
            return tuple(Fraction(int(j == i)) for j in range(n))
    # With g = G/den on integers, a vector v with sign*den*v^T G v == s^2 > 0
    # gives g(x, x) == sign at x = v*den/s.  Try small integer v, the first
    # coordinate varying fastest.  May legitimately fail: a quadric can be
    # nonempty over the reals yet have no rational points at all, or none
    # this small.
    rows, den = g._matrix._int_rows()
    terms = [(i, j, c) for i, row in enumerate(rows) for j, c in enumerate(row) if c]
    for w in islice(product((0, 1, -1, 2, -2, 3, -3, 4, -4), repeat=n), 500_000):
        v = w[::-1]
        q = sign * den * sum(c * v[i] * v[j] for i, j, c in terms)
        s = isqrt(q) if q > 0 else 0
        if s and s * s == q:
            return tuple(Fraction(x * den, s) for x in v)
    raise SignatureError(
        f"found no small rational vector with g(x,x) == {sign:+d}; "
        "the quadric may have no rational points -- use a standard-form "
        "metric for sphere sampling"
    )


def sample_unit_vectors(g: Metric, sign: int, count: int,
                        seed: int = 0) -> list[Vector]:
    """Deterministic rational points with ``g(x,x) == sign`` exactly.

    A rational line ``anchor + s*d`` meets the quadric again at the
    rational parameter ``s = -2 g(anchor, d) / g(d, d)``, so exact sphere
    points come from random small integer directions, drawn from a range
    that widens by one after every ``count`` draws that give no new point.
    R^1 has only the two points ``+-anchor``.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    p, q = g.signature
    if (sign == 1 and p == 0) or (sign == -1 and q == 0):
        raise SignatureError(
            f"the pseudo-sphere g(x,x) == {sign:+d} is empty in signature ({p},{q})"
        )
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    count = min(count, 2) if g.dim == 1 else count
    anchor = _find_anchor(g, sign)
    rows, gden = g._matrix._int_rows()
    nums, den = numerators(anchor)
    rng = random.Random(seed)
    points: list[Vector] = [anchor] if count > 0 else []
    seen = {anchor}
    misses = 0
    while len(points) < count:
        # twice Fraction(randint(-reach, reach), randint(1, 2)), so the same line
        reach = 3 + misses // count
        d = [rng.randint(-reach, reach) * (2 // rng.randint(1, 2)) for _ in rows]
        image = [sum(map(mul, row, d)) for row in rows]  # G d, and G is symmetric
        dd, ad = sum(map(mul, d, image)), sum(map(mul, nums, image))
        # a zero, isotropic or tangent direction meets the sphere only at the anchor
        xnum = [a * dd - 2 * ad * v for a, v in zip(nums, d)]  # x = xnum / (den dd)
        x = anchor if not dd else tuple(Fraction(c, den * dd) for c in xnum)
        if x in seen:
            misses += 1
            continue
        # cannot happen; guards the algebra above: g(x,x) == sign, on the integers
        if sum(c * sum(map(mul, row, xnum)) for c, row in zip(xnum, rows)) \
                != sign * gden * (den * dd) ** 2:
            raise RuntimeError("sphere sampling produced an off-sphere point")
        seen.add(x)
        points.append(x)
    return points


@dataclass(frozen=True)
class SpectrumReport:
    """Exact Jacobi spectra at sampled pseudo-unit vectors."""

    sign: int
    samples: tuple[Vector, ...]
    roots: tuple[tuple[tuple[Fraction, int], ...], ...]
    remainders: tuple[tuple[Fraction, ...], ...]
    constant: bool
    all_rational: bool

    def to_json_dict(self) -> dict:
        payload = {
            "sign": self.sign,
            "samples": [[str(v) for v in x] for x in self.samples],
            "roots": [
                [{"root": str(r), "multiplicity": m} for r, m in per_sample]
                for per_sample in self.roots
            ],
            "constant": self.constant,
            "all_rational": self.all_rational,
        }
        if not self.all_rational:
            payload["note"] = ("non-rational spectrum: constancy checked at "
                               "characteristic-polynomial level")
        return payload


def osserman_spectrum_sample(tensor: DenseTensor, g: Metric, count: int,
                             sign: int, seed: int = 0) -> SpectrumReport:
    """Exact Jacobi spectra at sampled pseudo-unit vectors, after refusing a
    dimension mismatch and then a non-curvature tensor (``_require_curvature``)."""
    if tensor.dim != g.dim:
        raise ValueError(f"tensor dimension {tensor.dim} != metric dimension {g.dim}")
    _require_curvature(tensor)
    if count == 0:  # no samples, no verdict; the sampler refuses a negative count
        raise ValueError("count must be >= 1, got 0")
    xs = sample_unit_vectors(g, sign, count, seed)
    roots = []
    remainders = []
    for x in xs:
        pairs, remainder = rational_roots(char_poly(jacobi_operator(tensor, g, x)))
        roots.append(pairs)
        remainders.append(remainder)
    fingerprint = {(r, rem) for r, rem in zip(roots, remainders)}
    return SpectrumReport(
        sign=sign,
        samples=tuple(xs),
        roots=tuple(roots),
        remainders=tuple(remainders),
        constant=len(fingerprint) <= 1,
        all_rational=all(len(rem) == 1 for rem in remainders),
    )


def nilpotency_check(tensor: DenseTensor, g: Metric, samples: int,
                     seed: int = 0) -> bool:
    """True iff ``J(x)^2 == 0`` exactly at every sampled x (plus a null
    vector when the signature is indefinite)."""
    if tensor.order != 4 or tensor.dim != g.dim:
        raise ValueError("order-4 tensor matching the metric dimension required")
    if samples == 0:  # no samples, no verdict; the sampler refuses a negative count
        raise ValueError("count must be >= 1, got 0")
    xs = sample_vectors(g.dim, samples, seed)
    p, q = g.signature
    if p >= 1 and q >= 1 and g.is_standard_form:
        null = [Fraction(0)] * g.dim
        null[0] = null[p] = Fraction(1)
        xs.append(tuple(null))
    for x in xs:
        j = jacobi_operator(tensor, g, x)
        if not (j @ j).is_zero:
            return False
    return True


@dataclass(frozen=True)
class LorentzReport:
    """Rigidity checks special to Lorentzian signature (1, q)."""

    q: int
    skew_trials: int
    skew_all_non_nilpotent: bool
    jacobi_all_zero: bool

    @property
    def ok(self) -> bool:
        return self.skew_all_non_nilpotent and self.jacobi_all_zero

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "skew_trials": self.skew_trials,
            "skew_all_non_nilpotent": self.skew_all_non_nilpotent,
            "jacobi_all_zero": self.jacobi_all_zero,
            "pass": self.ok,
        }


def lorentz_checks(q: int, trials: int, *, seed: int = 0) -> LorentzReport:
    """Signature (1, q): no skew matrix is F-nilpotent (sampled over ``trials``
    random skews), and the nilpotent-symmetric construction has ``T == 0``
    (exact, and true iff every Jacobi operator ``J(x)`` vanishes)."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    m = 1 + q
    f = Metric.standard(1, q)._matrix
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    skew_ok = True
    for values in sample_vectors(len(pairs), trials, seed):
        entries = dict(zip(pairs, values))
        entries.update(((j, i), -value) for (i, j), value in zip(pairs, values))
        af = DenseTensor.from_entries(2, m, entries) @ f
        if (af @ af).is_zero:
            skew_ok = False
    return LorentzReport(
        q=q,
        skew_trials=trials,
        skew_all_non_nilpotent=skew_ok,
        jacobi_all_zero=gamma(nilpotent_sym_example(1, q)).is_zero,
    )

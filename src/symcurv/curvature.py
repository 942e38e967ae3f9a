"""Algebraic curvature tensors: constructors, membership, decompositions.

An algebraic curvature tensor is an order-4 tensor that is antisymmetric in
its first and in its second index pair, symmetric under exchanging the
pairs, and satisfies the first Bianchi identity (the cyclic sum over the
last three slots vanishes).  Equivalently -- and the equivalence is checked
at runtime -- ``T`` satisfies ``ystar T == 12 T`` for the starred Young
symmetrizer of the (2,2) tableau ``[[1,3],[2,4]]``.

Two quadratic constructors produce such tensors from order-2 data; each is
a group-ring element of S4 applied to a tensor square (the closed formulas
are in their docstrings):

* ``gamma(S) = (1/3)([1,4,2,3] - [1,3,2,4]) (S (x) S)``, S symmetric,
* ``alpha(A) = (1/3)(2 id + [1,3,2,4] - [1,4,2,3]) (A (x) A)``, A skew,

and every algebraic curvature tensor is a signed rational combination of
gammas and alphas.  One kernel, ``_operator_sum``, evaluates every such
combination as its curvature operator ``B[(ij),(kl)] = T[i,j,k,l]``
(i < j, k < l), which determines a curvature tensor; ``_quadratic_sum``
writes B out (``tensor_ops._from_operator_rows``) for ``gamma``,
``alpha``, ``CurvatureDecomposition.reconstruct`` and the Osserman
families.  The direct membership test applies elements: the annihilators
``id + [2,1,3,4]``, ``id + [1,2,4,3]`` and ``id - [3,4,1,2]`` and the
Bianchi sum ``id + [1,3,4,2] + [1,4,2,3]``.  The symmetrizer test applies
``ystar`` as its four two-term factors, right to left,
``(id - [2,1,3,4])(id - [1,2,4,3])(id + [3,2,1,4])(id + [1,4,3,2])``
(the signed column sum, then the row sum, of the tableau), whose product
``canonical_elements`` checks once.  ``decompose_pure`` (and
``decompose_mixed``, its alpha-only alias) projects its source once,
polarizes the n(n+-1)/2 slices k <= l, puts the terms in canonical form
with ``tensor_ops._canonical_terms`` and checks the result exactly without
building it, on the m(m+1)/2 entries ``(ij) <= (kl)`` of B, m = n(n-1)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import islice, repeat
from operator import mul
from typing import Iterable, Mapping, NamedTuple, Sequence

from ._exact import Scalar, exact, json_int, numerators
from .symgroup import GroupRingElement
from .tensor_ops import (
    DenseTensor,
    _act,
    _canonical_terms,
    _check_shape,
    _from_operator_rows,
    _operator_rows,
    _slab,
    apply_symmetry_operator,
)
from .young import curvature_tableau, young_symmetrizer


class NotACurvatureTensor(ValueError):
    """Raised when an operation requires the curvature symmetries and the
    input does not have them."""


class CriteriaDisagreement(RuntimeError):
    """The direct symmetry test and the symmetrizer test disagreed.

    The two criteria are mathematically equivalent, so this can only mean
    an implementation bug; it is raised loudly instead of picking a side.
    """


@dataclass(frozen=True)
class CanonicalElements:
    """The degree-4 group-ring elements behind every curvature computation.

    ``swap_sym`` is the unnormalized pair-exchange symmetrization
    ``id + (1 3)(2 4)`` used inside the generators; ``swap_proj`` is its
    idempotent half, which fixes every curvature tensor (so the alpha
    decomposition slices its input directly, without applying it).  The gamma
    and alpha generators span the same right ideal as ``symmetrizer_star``;
    ``gamma_preimage`` is the stated solution ``-1/4 [1,3,2,4]`` of
    ``gamma_generator * x == symmetrizer_star``, which ``canonical_elements``
    checks (the gamma generator kills ``symmetrizer_star`` from the left, so
    no rescaling of ``symmetrizer_star`` solves the equation).
    """

    symmetrizer: GroupRingElement
    symmetrizer_star: GroupRingElement
    swap_sym: GroupRingElement
    swap_proj: GroupRingElement
    pair_sym: GroupRingElement
    pair_skew: GroupRingElement
    gamma_generator: GroupRingElement
    alpha_generator: GroupRingElement
    gamma_preimage: GroupRingElement


def _ring(*terms) -> GroupRingElement:
    return GroupRingElement(4, terms)


_ID, _T12, _T34, _SWAP = [1, 2, 3, 4], [2, 1, 3, 4], [1, 2, 4, 3], [3, 4, 1, 2]
_BIANCHI = _ring((_ID, 1), ([1, 3, 4, 2], 1), ([1, 4, 2, 3], 1))
_FIRST_PAIR_SUM = _ring((_ID, 1), (_T12, 1))
_SECOND_PAIR_SUM = _ring((_ID, 1), (_T34, 1))
_DIRECT_CONDITIONS = (
    ("antisymmetry in the first index pair", _FIRST_PAIR_SUM),
    ("antisymmetry in the second index pair", _SECOND_PAIR_SUM),
    ("pair-exchange symmetry", _ring((_ID, 1), (_SWAP, -1))),
)
#: ``symmetrizer_star == V H`` as its two-term factors, leftmost first: the
#: signed column sum ``V`` and the row sum ``H`` of the tableau
#: ``[[1,3],[2,4]]``.  ``canonical_elements`` checks the product once.
_SYMMETRIZER_FACTORS = (
    _ring((_ID, 1), (_T12, -1)),
    _ring((_ID, 1), (_T34, -1)),
    _ring((_ID, 1), ([3, 2, 1, 4], 1)),
    _ring((_ID, 1), ([1, 4, 3, 2], 1)),
)


@lru_cache(maxsize=1)
def canonical_elements() -> CanonicalElements:
    """Build (once) and sanity-check the canonical degree-4 elements."""
    y = young_symmetrizer(curvature_tableau())
    ystar = y.star()
    swap_sym = _ring((_ID, 1), (_SWAP, 1))
    swap_proj = swap_sym.scale(Fraction(1, 2))
    pair_sym = _FIRST_PAIR_SUM * _SECOND_PAIR_SUM
    pair_skew = _SYMMETRIZER_FACTORS[0] * _SYMMETRIZER_FACTORS[1]  # V
    swapped = ystar * swap_sym
    gamma_gen = swapped * pair_sym
    alpha_gen = swapped * pair_skew

    if gamma_gen.is_zero or alpha_gen.is_zero:
        raise RuntimeError("generator construction collapsed to zero")
    if swap_proj * swap_proj != swap_proj:
        raise RuntimeError("pair-exchange projector is not idempotent")
    if reduce(mul, _SYMMETRIZER_FACTORS) != ystar:
        raise RuntimeError("the two-term factors do not multiply to the "
                           "starred symmetrizer")
    preimage = _ring(([1, 3, 2, 4], "-1/4"))
    if gamma_gen * preimage != ystar:
        raise RuntimeError("the stated gamma preimage does not map the gamma "
                           "generator onto the starred symmetrizer")
    return CanonicalElements(
        symmetrizer=y,
        symmetrizer_star=ystar,
        swap_sym=swap_sym,
        swap_proj=swap_proj,
        pair_sym=pair_sym,
        pair_skew=pair_skew,
        gamma_generator=gamma_gen,
        alpha_generator=alpha_gen,
        gamma_preimage=preimage,
    )


def _require_order2(t: DenseTensor, what: str) -> None:
    if t.order != 2:
        raise ValueError(f"{what} must have order 2, got order {t.order}")


def _require_symmetric(s: DenseTensor) -> None:
    _require_order2(s, "symmetric input")
    if s != s.transpose():
        raise ValueError("input matrix is not symmetric")


def _require_skew(a: DenseTensor) -> None:
    _require_order2(a, "skew input")
    if a != -a.transpose():
        raise ValueError("input matrix is not skew-symmetric")


def gamma(s: DenseTensor) -> DenseTensor:
    """Curvature tensor of a symmetric matrix:
    ``gamma(S)[i,j,k,l] = (S[i,l]S[j,k] - S[i,k]S[j,l]) / 3``."""
    return _quadratic_sum(s.dim, [(1, s)], ())


def alpha(a: DenseTensor) -> DenseTensor:
    """Curvature tensor of a skew matrix:
    ``alpha(A)[i,j,k,l] = (2A[i,j]A[k,l] + A[i,k]A[j,l] - A[i,l]A[j,k]) / 3``."""
    return _quadratic_sum(a.dim, (), [(1, a)])


def bianchi_defect(tensor: DenseTensor) -> DenseTensor:
    """Cyclic sum ``T[i,j,k,l] + T[i,k,l,j] + T[i,l,j,k]``; zero iff the
    first Bianchi identity holds."""
    if tensor.order != 4:
        raise ValueError(f"order-4 tensor required, got order {tensor.order}")
    return apply_symmetry_operator(_BIANCHI, tensor)


def _quadratic_sum(dim: int,
                   gamma_terms: Iterable[tuple[Scalar, DenseTensor]],
                   alpha_terms: Iterable[tuple[Scalar, DenseTensor]]) -> DenseTensor:
    """``sum c * gamma(S) + sum c * alpha(A)`` over ``(c, S)`` and ``(c, A)``,
    written out from its ``_operator_sum``.  The shape must fit the entry
    cap, and every gamma matrix must be symmetric and every alpha matrix
    skew, each of order 2 and dimension ``dim``."""
    _check_shape(4, dim)
    kinds = []
    for require, terms in ((_require_symmetric, gamma_terms), (_require_skew, alpha_terms)):
        checked = []
        for c, m in terms:
            require(m)
            if m.dim != dim:
                raise ValueError(f"matrix dimension {m.dim} != {dim}")
            checked.append((exact(c), m))
        kinds.append(checked)
    return _from_operator_rows(*_operator_sum(dim, *kinds), dim)


def _operator_sum(n: int, gamma_terms: Sequence[tuple[Fraction, DenseTensor]],
                  alpha_terms: Sequence[tuple[Fraction, DenseTensor]]
                  ) -> tuple[list[list[int]], int]:
    """``_operator_rows`` of ``sum c * gamma(S) + sum c * alpha(A)``, from
    matrices taken to be symmetric and skew, without validation.

    Both maps are linear in the tensor square, so each kind is read through
    its Gram form ``Q = sum c vec(M) vec(M)^T`` over the positions i <= j
    of the symmetric and i < j of the skew matrices:
    ``3 B = Q[il,jk] - Q[ik,jl]`` for gammas and
    ``3 B = 2 Q[ij,kl] + Q[ik,jl] - Q[il,jk]`` for alphas, evaluated on the
    entries ``(ij) <= (kl)`` of the symmetric B.
    """
    groups = [[(c, *m._int_rows()) for c, m in terms] for terms in (gamma_terms, alpha_terms)]
    scales, common = numerators([c / (den * den) for group in groups for c, _, den in group])
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    entries = [(i, j, k, l) for p, (i, j) in enumerate(pairs) for k, l in pairs[p:]]
    sums = [0] * len(entries)
    # the coefficients of Q[ij,kl], Q[ik,jl] and Q[il,jk] in 3 B, per kind
    for group, skew, (x, y, z) in zip(groups, (0, 1), ((0, -1, 1), (2, 1, -1))):
        weights, scales = scales[:len(group)], scales[len(group):]
        if not group:
            continue
        places = [(a, b) for a in range(n) for b in range(a + skew, n)]
        # (position in Q, sign) of each matrix entry; a skew diagonal reads 0
        at = [[(0, 0)] * n for _ in range(n)]
        for p, (a, b) in enumerate(places):
            at[a][b], at[b][a] = (p, 1), (p, 1 - 2 * skew)
        columns = [[ints[a][b] for _, ints, _ in group] for a, b in places]
        gram = [[0] * len(places) for _ in places]
        for p, column in enumerate(columns):
            weighted = list(map(mul, weights, column))
            for q in range(p, len(places)):
                gram[p][q] = gram[q][p] = sum(map(mul, weighted, columns[q]))

        def form(a, b, c, d):
            (p, s), (q, t) = at[a][b], at[c][d]
            return s * t * gram[p][q]

        sums = [total + (x and x * form(i, j, k, l)) + y * form(i, k, j, l) + z * form(i, l, j, k)
                for total, (i, j, k, l) in zip(sums, entries)]
    # row p of B is column p above the diagonal, then the entries (p, q >= p)
    m, values = len(pairs), iter(sums)
    tails = [list(islice(values, m - p)) for p in range(m)]
    return [[tails[q][p - q] for q in range(p)] + tails[p] for p in range(m)], 3 * common


@dataclass(frozen=True)
class CurvatureCheck:
    """Outcome of both membership criteria plus diagnostics."""

    direct_ok: bool
    young_ok: bool
    first_violation: str | None
    bianchi_nonzero: int

    @property
    def ok(self) -> bool:
        return self.direct_ok and self.young_ok

    def to_json_dict(self) -> dict:
        return {
            "direct": self.direct_ok,
            "symmetrizer": self.young_ok,
            "first_violation": self.first_violation,
            "bianchi_nonzero": self.bianchi_nonzero,
            "pass": self.ok,
        }


def check_curvature(tensor: DenseTensor) -> CurvatureCheck:
    """Run the direct symmetry test and the symmetrizer test side by side.

    The symmetrizer test ``ystar T == 12 T`` applies the four two-term
    factors of ``ystar`` as one chain, four term reads in all;
    ``canonical_elements`` checks once that they multiply to ``ystar``.
    No verdict needs a result in lowest terms, so each is read off the raw
    numerators of ``tensor_ops._act``: an annihilator holds when they are
    all 0, the Bianchi count is the number of nonzero ones, and the chain
    is compared with 12 T by cross-multiplying.
    """
    if tensor.order != 4:
        raise ValueError(f"order-4 tensor required, got order {tensor.order}")
    first_violation = next((name for name, annihilator in _DIRECT_CONDITIONS
                            if any(_act((annihilator,), tensor)[0])), None)
    defect, _ = _act((_BIANCHI,), tensor)
    bianchi_nonzero = len(defect) - defect.count(0)
    if first_violation is None and bianchi_nonzero:
        first_violation = "first Bianchi identity"
    direct_ok = first_violation is None
    canonical_elements()  # checks the factors once
    (ints, den), (young, young_den) = _act((), tensor), _act(_SYMMETRIZER_FACTORS, tensor)
    # young / young_den == 12 ints / den, as q young == p ints
    p, q = Fraction(12 * young_den, den).as_integer_ratio()
    young_ok = (young if q == 1 else tuple(map(mul, repeat(q), young))) == tuple(
        map(mul, repeat(p), ints))
    return CurvatureCheck(direct_ok, young_ok, first_violation, bianchi_nonzero)


def is_algebraic_curvature(tensor: DenseTensor) -> bool:
    """True iff ``tensor`` has the curvature symmetries.

    Both criteria are evaluated; a disagreement raises
    :class:`CriteriaDisagreement` because it would expose a bug, not a
    property of the input.
    """
    return _agreed_check(tensor).ok


def _agreed_check(tensor: DenseTensor) -> CurvatureCheck:
    """``check_curvature``, raising :class:`CriteriaDisagreement` when the
    two criteria disagree."""
    result = check_curvature(tensor)
    if result.direct_ok != result.young_ok:
        raise CriteriaDisagreement(
            f"direct test says {result.direct_ok}, symmetrizer test says "
            f"{result.young_ok}; violation={result.first_violation!r}"
        )
    return result


def _require_curvature(tensor: DenseTensor) -> None:
    result = _agreed_check(tensor)
    if not result.ok:
        raise NotACurvatureTensor(
            "input is not an algebraic curvature tensor: "
            f"{result.first_violation}"
        )


_KINDS = ("mixed", "pure-gamma", "pure-alpha")


class DecompositionTerm(NamedTuple):
    sign: int                # +1 or -1
    weight: Fraction         # strictly positive
    matrix: DenseTensor      # symmetric for gamma terms, skew for alpha terms


@dataclass(frozen=True)
class CurvatureDecomposition:
    """A signed, weighted sum of gammas and alphas equal to some tensor.

    Weights stay rational so that ``reconstruct`` is exact; the textbook
    sign-only form would need irrational matrix rescalings
    (``gamma(c*S) == c^2 * gamma(S)``), so it is only available through
    :meth:`approx_unit_terms`, which is explicitly floating point.
    """

    kind: str  # one of _KINDS
    dim: int
    gamma_terms: tuple[DecompositionTerm, ...]
    alpha_terms: tuple[DecompositionTerm, ...]

    def _weighted(self) -> list[list[tuple[Fraction, DenseTensor]]]:
        return [[(t.sign * t.weight, t.matrix) for t in terms]
                for terms in (self.gamma_terms, self.alpha_terms)]

    def reconstruct(self) -> DenseTensor:
        return _quadratic_sum(self.dim, *self._weighted())

    @property
    def term_count(self) -> int:
        return len(self.gamma_terms) + len(self.alpha_terms)

    def approx_unit_terms(self) -> list[tuple[str, int, list[list[float]]]]:
        """Sign-only display form: weight folded into the matrix as a float
        ``sqrt(weight)`` factor.  NOT exact; never feed this back in."""
        out = []
        for label, terms in (("gamma", self.gamma_terms), ("alpha", self.alpha_terms)):
            for sign, weight, matrix in terms:
                root = math.sqrt(weight)
                rows = [[float(v) * root for v in row] for row in matrix.to_nested()]
                out.append((label, sign, rows))
        return out

    def to_json_dict(self) -> dict:
        def encode(label: str, terms: Iterable[DecompositionTerm]) -> list[dict]:
            return [
                {
                    "map": label,
                    "sign": t.sign,
                    "weight": str(t.weight),
                    "matrix": [[str(v) for v in row] for row in t.matrix.to_nested()],
                }
                for t in terms
            ]

        return {
            "kind": self.kind,
            "dim": self.dim,
            "terms": encode("gamma", self.gamma_terms) + encode("alpha", self.alpha_terms),
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "CurvatureDecomposition":
        """Inverse of :meth:`to_json_dict`; refuses a payload that it would
        otherwise have to truncate or guess: a non-integer or nonpositive
        ``dim``, an unknown ``kind`` or ``map``, a ``sign`` other than the
        integers 1 and -1, a weight that is not positive, or a matrix that
        is not n x n."""
        dim = json_int(payload, "dim")
        if dim < 1:
            raise ValueError(f"'dim' must be positive, got {dim}")
        kind = payload["kind"]
        if kind not in _KINDS:
            raise ValueError(f"'kind' must be one of {_KINDS}, got {kind!r}")
        terms: dict[str, list[DecompositionTerm]] = {"gamma": [], "alpha": []}
        for entry in payload.get("terms", ()):
            label = entry["map"]
            if label not in terms:
                raise ValueError(f"'map' must be 'gamma' or 'alpha', got {label!r}")
            sign = json_int(entry, "sign")
            if sign not in (1, -1):
                raise ValueError(f"'sign' must be 1 or -1, got {sign}")
            weight = exact(entry["weight"])
            if weight <= 0:
                raise ValueError(f"'weight' must be positive, got {weight}")
            matrix = DenseTensor.from_nested(entry["matrix"])
            if matrix.order != 2 or matrix.dim != dim:
                raise ValueError(f"every matrix must be {dim} x {dim}")
            terms[label].append(DecompositionTerm(sign, weight, matrix))
        return cls(kind, dim, tuple(terms["gamma"]), tuple(terms["alpha"]))


def _rank_at_most_one(matrix: DenseTensor) -> bool:
    """True iff every 2x2 minor of ``matrix`` vanishes (tested on its integer
    numerators); for a symmetric matrix that is exactly ``gamma(matrix) == 0``."""
    rows, _ = matrix._int_rows()
    for i, row in enumerate(rows):
        for j, pivot in enumerate(row):
            if pivot:
                # rank <= 1 iff matrix == column j (x) row i / pivot
                return all(value * pivot == rows[k][j] * row[l]
                           for k, other in enumerate(rows)
                           for l, value in enumerate(other))
    return True


def _checked(decomposition: CurvatureDecomposition,
             source: DenseTensor) -> CurvatureDecomposition:
    """``decomposition``, once its sum is shown to equal ``source`` exactly.

    Both are curvature tensors (``source`` passed ``_require_curvature``,
    and every sum of gammas and alphas is one), so their curvature
    operators B decide equality: the antisymmetries give every other entry,
    and the pair exchange makes B symmetric.  So the two B's are compared
    on the m(m+1)/2 entries ``(ij) <= (kl)``, m = n(n-1)/2."""
    built, common = _operator_sum(decomposition.dim, *decomposition._weighted())
    read, den = _operator_rows(source)
    if any(u * den != common * v for p, (ours, theirs) in enumerate(zip(built, read))
           for u, v in zip(ours[p:], theirs[p:])):
        raise RuntimeError(
            f"{decomposition.kind} decomposition failed to reconstruct its "
            "input exactly; this is a bug"
        )
    return decomposition


def _decomposition(tensor: DenseTensor, kind: str, label: str) -> CurvatureDecomposition:
    """The ``kind``-only decomposition of :func:`decompose_pure`, labelled ``label``."""
    _require_curvature(tensor)
    n = tensor.dim
    # each slab of the source is polarized with the unit (E_kl + sign E_lk)/den
    if kind == "alpha":
        source, weight, sign, den = tensor, Fraction(1, 2), -1, 2
    else:
        element = (_FIRST_PAIR_SUM * canonical_elements().gamma_preimage).scale(Fraction(1, 12))
        source = apply_symmetry_operator(element, tensor)
        weight, sign, den = Fraction(12), 1, 1
    raw: list[tuple[Fraction, DenseTensor]] = []
    for k in range(n):
        for l in range(k, n):
            first = _slab(source, k, l)
            if first.is_zero:
                continue
            unit = [[0] * n for _ in range(n)]
            unit[k][l] += 1
            unit[l][k] += sign
            second = DenseTensor._from_int_rows(unit, den)
            w = weight if k == l else 2 * weight
            raw += ((w, first + second), (-w, first), (-w, second))
    terms = _canonical_terms(raw)
    if kind == "gamma":
        # diagonal slices yield rank-1 terms, whose gamma is 0; the nonzero
        # skew alpha terms have even rank >= 2, so none of them is tested
        terms = [(c, m) for c, m in terms if not _rank_at_most_one(m)]
    merged = tuple(DecompositionTerm(1 if c > 0 else -1, abs(c), m) for c, m in terms)
    gammas, alphas = (merged, ()) if kind == "gamma" else ((), merged)
    return _checked(CurvatureDecomposition(label, n, gammas, alphas), tensor)


def decompose_mixed(tensor: DenseTensor) -> CurvatureDecomposition:
    """Alias of ``decompose_pure(tensor, "alpha")`` with the kind ``"mixed"``."""
    return _decomposition(tensor, "alpha", "mixed")


def decompose_pure(tensor: DenseTensor, kind: str) -> CurvatureDecomposition:
    """Write a curvature tensor using gammas only or alphas only.

    kind="alpha": the pair-exchange projector fixes the input, so slicing
    the input itself into ``M (x) unit`` pairs and symmetrizing gives
    ``T = 1/2 sum (M (x) N + N (x) M)``, and polarization turns each summand
    into a difference of squares.  Every slice ``M`` is skew, so the
    symmetric parts of ``M + N``, ``M`` and ``N`` are ``sym(N)``, ``0`` and
    ``sym(N)``, and their gamma terms cancel.  So each slice is polarized
    as it is, with the skew part ``(E_kl - E_lk)/2`` of its unit, and the
    result has alpha terms only.

    kind="gamma": the gamma generator annihilates curvature tensors from
    the left, so ``T' = (gamma_preimage T)/12`` is sliced instead, which
    satisfies ``gamma_generator T' == T``; polarizing the symmetric parts
    ``X + X^T`` of its slice factors leaves gamma terms only.  One action
    of ``((id + [2,1,3,4]) gamma_preimage)/12`` on T gives a tensor whose
    slices are those symmetric parts; the units' are ``E_kl + E_lk``.

    Both kinds slice only the index pairs ``k <= l``: on a curvature tensor
    the projected ``(l, k)`` pair repeats the ``(k, l)`` pair up to the sign
    of both factors, so off the diagonal it counts twice.
    """
    if kind not in ("gamma", "alpha"):
        raise ValueError(f"kind must be 'gamma' or 'alpha', got {kind!r}")
    return _decomposition(tensor, kind, f"pure-{kind}")


@dataclass(frozen=True)
class TableLine:
    label: str
    passed: bool


@dataclass(frozen=True)
class IdentityTableReport:
    lines: tuple[TableLine, ...]

    @property
    def all_ok(self) -> bool:
        return all(line.passed for line in self.lines)

    def to_json_dict(self) -> dict:
        return {
            "checks": [{"name": l.label, "pass": l.passed} for l in self.lines],
            "all_pass": self.all_ok,
        }


def verify_identity_table(
    elements: CanonicalElements | None = None,
) -> IdentityTableReport:
    """Recompute the nine products among ``ystar`` and the two generators
    and compare with their known closed forms (coefficients 12, 96, 0).

    ``elements`` exists for fault injection in tests; the default is the
    canonical set.
    """
    e = elements if elements is not None else canonical_elements()
    ys, gg, ag = e.symmetrizer_star, e.gamma_generator, e.alpha_generator
    cases = (
        ("ystar . ystar == 12 ystar", ys * ys == ys.scale(12)),
        ("ystar . gamma_gen == 12 gamma_gen", ys * gg == gg.scale(12)),
        ("gamma_gen . ystar == 0", (gg * ys).is_zero),
        ("ystar . alpha_gen == 12 alpha_gen", ys * ag == ag.scale(12)),
        ("alpha_gen . ystar == 96 ystar", ag * ys == ys.scale(96)),
        ("gamma_gen . gamma_gen == 0", (gg * gg).is_zero),
        ("alpha_gen . alpha_gen == 96 alpha_gen", ag * ag == ag.scale(96)),
        ("alpha_gen . gamma_gen == 96 gamma_gen", ag * gg == gg.scale(96)),
        ("gamma_gen . alpha_gen == 0", (gg * ag).is_zero),
    )
    return IdentityTableReport(tuple(TableLine(*case) for case in cases))

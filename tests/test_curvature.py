"""Curvature constructors, membership criteria, and the three decompositions."""

import ast
import copy
import random
import re
from dataclasses import replace
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import symcurv
import symcurv.curvature as curvature_module
import symcurv.tensor_ops as tensor_ops_module
from symcurv import (
    CriteriaDisagreement,
    CurvatureCheck,
    CurvatureDecomposition,
    DecompositionTerm,
    DenseTensor,
    GroupRingElement,
    LinearMap,
    Metric,
    NotACurvatureTensor,
    alpha,
    apply_symmetry_operator,
    bianchi_defect,
    canonical_elements,
    check_curvature,
    decompose_mixed,
    decompose_pure,
    gamma,
    is_algebraic_curvature,
    jacobi_operator,
    jordan_family,
    slice_pairs,
    sym_split,
    tensor_product,
    verify_identity_table,
)

from helpers import (
    pull_back,
    rand_curvature,
    rand_fraction,
    rand_matrix,
    rand_skew,
    rand_symmetric,
    rand_tensor,
    rand_vector,
    structured_curvatures,
)


# ---------------------------------------------------------------- constructors

def test_gamma_on_identity():
    eye = DenseTensor.from_nested([[1, 0], [0, 1]])
    g = gamma(eye)
    assert g[(0, 1, 1, 0)] == Fraction(1, 3)
    assert g[(0, 1, 0, 1)] == Fraction(-1, 3)
    assert g[(0, 0, 0, 0)] == 0
    assert is_algebraic_curvature(g)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gamma_and_alpha_match_closed_formulas(n):
    rng = random.Random(30 + n)
    s = rand_symmetric(rng, n).to_nested()
    a = rand_skew(rng, n).to_nested()
    g = gamma(DenseTensor.from_nested(s))
    al = alpha(DenseTensor.from_nested(a))
    for i, j, k, l in product(range(n), repeat=4):
        assert g[(i, j, k, l)] == (s[i][l] * s[j][k] - s[i][k] * s[j][l]) / 3
        assert al[(i, j, k, l)] == (2 * a[i][j] * a[k][l] + a[i][k] * a[j][l]
                                    - a[i][l] * a[j][k]) / 3


def test_gamma_zero_and_scaling():
    assert gamma(DenseTensor.zeros(2, 3)).is_zero
    rng = random.Random(31)
    s = rand_symmetric(rng, 3)
    assert gamma(s.scale(2)) == gamma(s).scale(4)
    c = rand_fraction(rng)
    assert gamma(s.scale(c)) == gamma(s).scale(c * c)


def test_gamma_rejects_non_symmetric():
    with pytest.raises(ValueError):
        gamma(DenseTensor.from_nested([[0, 1], [0, 0]]))


def test_alpha_on_rotation():
    rot = DenseTensor.from_nested([[0, 1], [-1, 0]])
    a = alpha(rot)
    assert a[(0, 1, 0, 1)] == 1
    assert is_algebraic_curvature(a)


def test_alpha_zero_scaling_and_projector_form():
    assert alpha(DenseTensor.zeros(2, 2)).is_zero
    rng = random.Random(32)
    a = rand_skew(rng, 3)
    c = rand_fraction(rng)
    assert alpha(a.scale(c)) == alpha(a).scale(c * c)
    ystar = canonical_elements().symmetrizer_star
    squares = apply_symmetry_operator(ystar, tensor_product(a, a))
    assert alpha(a) == squares.scale(Fraction(1, 12))


def test_alpha_rejects_non_skew():
    with pytest.raises(ValueError):
        alpha(DenseTensor.from_nested([[1, 0], [0, 1]]))


# ------------------------------------------------------------------ membership

def test_gamma_plus_alpha_is_curvature():
    rng = random.Random(33)
    t = gamma(rand_symmetric(rng, 3)) + alpha(rand_skew(rng, 3))
    assert is_algebraic_curvature(t)


def test_symmetric_square_is_not_curvature():
    rng = random.Random(34)
    s = rand_symmetric(rng, 3)
    t = tensor_product(s, s)
    result = check_curvature(t)
    assert not result.ok
    assert result.first_violation == "antisymmetry in the first index pair"
    assert not is_algebraic_curvature(t)


def test_zero_is_curvature():
    assert is_algebraic_curvature(DenseTensor.zeros(4, 3))


def test_check_requires_order_four():
    with pytest.raises(ValueError):
        check_curvature(DenseTensor.zeros(2, 3))


def test_bianchi_defect():
    rng = random.Random(35)
    assert bianchi_defect(gamma(rand_symmetric(rng, 3))).is_zero
    assert bianchi_defect(alpha(rand_skew(rng, 3))).is_zero
    generic = rand_tensor(rng, 4, 2)
    assert not bianchi_defect(generic).is_zero


def test_both_criteria_agree_on_random_tensors():
    rng = random.Random(36)
    rejected = 0
    for i in range(20):
        n = 2 + i % 3
        t = rand_curvature(rng, n) if i % 2 else rand_tensor(rng, 4, n)
        result = check_curvature(t)
        assert result.direct_ok == result.young_ok
        assert result.bianchi_nonzero == len(list(bianchi_defect(t).nonzero_items()))
        rejected += result.bianchi_nonzero > 0
    assert rejected  # the count is not only ever 0


_CONDITION_NAMES = ("antisymmetry in the first index pair",
                    "antisymmetry in the second index pair",
                    "pair-exchange symmetry")


def _entrywise_check(t: DenseTensor) -> CurvatureCheck:
    """Both membership criteria straight from their definitions, one entry
    at a time: the three index symmetries, the cyclic Bianchi sum, and
    ``(ystar T)[i] == 12 T[i]`` with ``(p T)[i_1..i_4] = T[i_p(1)..i_p(4)]``."""
    cells = list(t.indices())
    defects = (
        lambda i, j, k, l: t[(i, j, k, l)] + t[(j, i, k, l)],
        lambda i, j, k, l: t[(i, j, k, l)] + t[(i, j, l, k)],
        lambda i, j, k, l: t[(i, j, k, l)] - t[(k, l, i, j)],
    )
    violation = next((name for name, defect in zip(_CONDITION_NAMES, defects)
                      if any(defect(*cell) for cell in cells)), None)
    bianchi = sum(1 for i, j, k, l in cells
                  if t[(i, j, k, l)] + t[(i, k, l, j)] + t[(i, l, j, k)])
    if violation is None and bianchi:
        violation = "first Bianchi identity"
    ystar = canonical_elements().symmetrizer_star.items()
    young = all(
        sum(c * t[tuple(cell[m - 1] for m in perm.images)] for perm, c in ystar)
        == 12 * t[cell]
        for cell in cells)
    return CurvatureCheck(violation is None, young, violation, bianchi)


_PERTURBATIONS = ("none", "entry", "second pair", "pair exchange", "bianchi")


@st.composite
def _membership_cases(draw):
    """An accepted tensor with mixed denominators, perturbed in one of the
    ways that break one condition: a single entry (first pair), ``A (x) S``
    (second pair), ``A (x) B`` (pair exchange), or ``A (x) A`` (Bianchi,
    n >= 4)."""
    n = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(_PERTURBATIONS))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    t = rand_curvature(rng, n, 1).scale(Fraction(1, rng.choice((1, 2, 3, 4, 5, 7, 12))))
    delta = Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 3, 7)))
    a, b = rand_skew(rng, n), rand_skew(rng, n)
    if kind == "entry":
        t = t + DenseTensor.from_entries(
            4, n, {tuple(rng.randrange(n) for _ in range(4)): delta})
    elif kind == "second pair":
        t = t + tensor_product(a, rand_symmetric(rng, n)).scale(delta)
    elif kind == "pair exchange":
        t = t + tensor_product(a, b).scale(delta)
    elif kind == "bianchi":
        t = t + tensor_product(a, a).scale(delta)
    return t


@settings(max_examples=60, deadline=None)
@given(_membership_cases())
def test_check_curvature_matches_entrywise_definitions(t):
    assert check_curvature(t) == _entrywise_check(t)


def test_membership_cases_reach_every_verdict():
    """The perturbations above do produce each violation (a guard that the
    property test is not vacuous), and the verdicts match the oracle."""
    rng = random.Random(39)
    t = rand_curvature(rng, 4, 1).scale(Fraction(1, 7))
    a, b, s = rand_skew(rng, 4), rand_skew(rng, 4), rand_symmetric(rng, 4)
    # over 12 and 4 the denominators share factors with the 12 of ystar T == 12 T
    t12 = t.scale(Fraction(7, 12))
    cases = [
        (None, t),
        (_CONDITION_NAMES[0], t + DenseTensor.from_entries(4, 4, {(0, 1, 2, 3): Fraction(1, 3)})),
        (_CONDITION_NAMES[1], t + tensor_product(a, s).scale(Fraction(2, 3))),
        (_CONDITION_NAMES[2], t + tensor_product(a, b).scale(Fraction(-1, 7))),
        ("first Bianchi identity", t + tensor_product(a, a).scale(Fraction(1, 3))),
        (None, t12),
        ("first Bianchi identity", t12 + tensor_product(a, a).scale(Fraction(1, 4))),
    ]
    for violation, tensor in cases:
        result = check_curvature(tensor)
        assert result.first_violation == violation
        assert result == _entrywise_check(tensor)
        assert result.direct_ok == result.young_ok == (violation is None)


def test_tensor_paths_read_no_single_entries(monkeypatch):
    """Membership, the decompositions, the constructors and the Jacobi
    operator act on whole tensors; none of them indexes single entries."""
    rng = random.Random(38)
    s, a = rand_symmetric(rng, 3), rand_skew(rng, 3)
    t, rejected = rand_curvature(rng, 3), rand_tensor(rng, 4, 3)
    x = rand_vector(rng, 3)

    def refuse(self, idx):
        raise AssertionError(f"per-entry read at {idx}")

    monkeypatch.setattr(DenseTensor, "__getitem__", refuse)
    assert check_curvature(t).ok
    assert not check_curvature(rejected).ok
    for d in (decompose_mixed(t), decompose_pure(t, "gamma"),
              decompose_pure(t, "alpha")):
        assert d.term_count
    assert not gamma(s).is_zero and not alpha(a).is_zero
    jacobi_operator(t, Metric.standard(3, 0), x)


def test_pair_symmetrizer_annihilates_curvature():
    rng = random.Random(37)
    pair_sym = canonical_elements().pair_sym
    for n in (2, 3):
        t = rand_curvature(rng, n)
        assert apply_symmetry_operator(pair_sym, t).is_zero


# --------------------------------------------------------- canonical elements

def test_canonical_elements_invariants():
    e = canonical_elements()
    assert not e.gamma_generator.is_zero
    assert not e.alpha_generator.is_zero
    assert e.swap_proj * e.swap_proj == e.swap_proj
    assert e.swap_sym == e.swap_proj.scale(2)
    assert e.gamma_generator * e.gamma_preimage == e.symmetrizer_star
    assert e.symmetrizer_star == e.symmetrizer.star()
    factors = curvature_module._SYMMETRIZER_FACTORS
    assert len(factors) == 4 and all(len(f) == 2 for f in factors)
    assert factors[0] * factors[1] * factors[2] * factors[3] == e.symmetrizer_star


def test_wrong_symmetrizer_factor_is_refused(monkeypatch):
    """A sign flip in one two-term factor is caught by ``canonical_elements``
    before ``check_curvature`` trusts the factors."""
    factors = list(curvature_module._SYMMETRIZER_FACTORS)
    factors[2] = GroupRingElement(4, [([1, 2, 3, 4], 1), ([3, 2, 1, 4], -1)])
    t = rand_curvature(random.Random(39), 2)
    canonical_elements.cache_clear()
    try:
        monkeypatch.setattr(curvature_module, "_SYMMETRIZER_FACTORS", tuple(factors))
        with pytest.raises(RuntimeError, match="two-term factors"):
            canonical_elements()
        with pytest.raises(RuntimeError, match="two-term factors"):
            check_curvature(t)
    finally:
        canonical_elements.cache_clear()


def test_membership_check_term_reads(monkeypatch):
    """One ``check_curvature`` reads one permuted copy of a tensor per
    non-identity term: three for the direct conditions (one on a tensor
    rejected by the first), two for the Bianchi sum and four for the
    symmetrizer factors.  Applying the 16 terms of ``symmetrizer_star`` one
    by one would take 25 and 21.  The readers are cached, so a second check
    at the same dimension builds none."""
    rng = random.Random(1)
    accepted = rand_curvature(rng, 3)
    rejected = rand_tensor(rng, 4, 3)
    canonical_elements()
    reader = tensor_ops_module._reader
    reads = []

    def counting(images, dim):
        reads.append(images)
        return reader(images, dim)

    monkeypatch.setattr(tensor_ops_module, "_reader", counting)
    assert check_curvature(accepted).ok
    assert len(reads) == 9
    reads.clear()
    built = reader.cache_info().misses
    result = check_curvature(rejected)
    assert result.first_violation == "antisymmetry in the first index pair"
    assert len(reads) == 7
    assert reader.cache_info().misses == built


def test_membership_check_reduces_nothing(monkeypatch):
    """No verdict of ``check_curvature`` needs a result in lowest terms, so
    neither an accepted nor a rejected check calls ``_exact.reduced``."""
    rng = random.Random(1)
    accepted = rand_curvature(rng, 4).scale(Fraction(1, 12))
    a = rand_skew(rng, 4)
    rejected = accepted + tensor_product(a, a).scale(Fraction(1, 4))
    canonical_elements()
    reduced, calls = tensor_ops_module.reduced, []

    def counting(ints, den):
        calls.append(den)
        return reduced(ints, den)

    monkeypatch.setattr(tensor_ops_module, "reduced", counting)
    assert check_curvature(accepted).ok
    assert check_curvature(rejected).first_violation == "first Bianchi identity"
    assert calls == []
    apply_symmetry_operator(canonical_elements().symmetrizer_star, accepted)
    assert len(calls) == 1  # the counter does see the action's wrapper


def test_identity_table_entries():
    report = verify_identity_table()
    assert report.all_ok
    assert len(report.lines) == 9
    by_label = {line.label: line.passed for line in report.lines}
    assert by_label["alpha_gen . ystar == 96 ystar"]
    assert by_label["gamma_gen . ystar == 0"]
    assert by_label["ystar . alpha_gen == 12 alpha_gen"]


def test_identity_table_detects_corruption():
    from dataclasses import replace
    e = canonical_elements()
    broken = replace(e, alpha_generator=e.alpha_generator.scale(2))
    report = verify_identity_table(broken)
    assert not report.all_ok


# ------------------------------------------------------------- decompositions

def _assert_alpha_alias(t: DenseTensor, mixed: CurvatureDecomposition) -> None:
    """``decompose_mixed(t)`` is ``decompose_pure(t, "alpha")`` under its own
    kind."""
    pure = decompose_pure(t, "alpha")
    assert pure.alpha_terms == mixed.alpha_terms
    assert (pure.kind, mixed.kind) == ("pure-alpha", "mixed")


def test_mixed_round_trip_gamma_input():
    rng = random.Random(38)
    t = gamma(rand_symmetric(rng, 3))
    d = decompose_mixed(t)
    assert d.kind == "mixed"
    assert d.reconstruct() == t
    _assert_alpha_alias(t, d)
    assert d.gamma_terms == ()
    assert len(d.alpha_terms) <= 9  # 3·n(n−1)/2 at n = 3
    for _, _, m in d.alpha_terms:
        assert m == -m.transpose()


def _canonical(raw) -> tuple[DecompositionTerm, ...]:
    """``raw`` in the library's canonical form, as decomposition terms."""
    return tuple(DecompositionTerm(1 if c > 0 else -1, abs(c), m)
                 for c, m in tensor_ops_module._canonical_terms(raw))


def _mixed_by_sym_split(t: DenseTensor) -> CurvatureDecomposition:
    """Reference: split every polarized square into its symmetric and skew
    parts and merge both halves, gammas included."""
    half = Fraction(1, 2)
    raw_gamma, raw_alpha = [], []
    for m, n in slice_pairs(t):
        for weight, square in ((half, m + n), (-half, m), (-half, n)):
            sym, skew = sym_split(square)
            raw_gamma.append((weight, sym))
            raw_alpha.append((weight, skew))
    return CurvatureDecomposition("mixed", t.dim, _canonical(raw_gamma), _canonical(raw_alpha))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_mixed_matches_symmetric_split_reference(n):
    t = rand_curvature(random.Random(60 + n), n)
    d = decompose_mixed(t)
    assert d.to_json_dict() == _mixed_by_sym_split(t).to_json_dict()
    _assert_alpha_alias(t, d)
    assert d.gamma_terms == ()
    assert 0 < len(d.alpha_terms) <= 3 * n * (n - 1) // 2


def _every_pair_reference(t: DenseTensor, kind: str, label: str) -> CurvatureDecomposition:
    """Reference: polarize every pair of the public ``slice_pairs`` of the
    source, all n^2 of them, then merge and drop the rank-<=1 terms."""
    if kind == "alpha":
        source, weight = t, Fraction(1, 2)
        project = lambda m: (m - m.transpose()).scale(Fraction(1, 2))
    else:
        source = apply_symmetry_operator(
            canonical_elements().gamma_preimage, t).scale(Fraction(1, 12))
        weight = Fraction(12)
        project = lambda m: m + m.transpose()
    raw = []
    for m, n in slice_pairs(source):
        first, second = project(m), project(n)
        raw += ((weight, first + second), (-weight, first), (-weight, second))
    terms = tuple(term for term in _canonical(raw)
                  if not curvature_module._rank_at_most_one(term.matrix))
    gammas, alphas = (terms, ()) if kind == "gamma" else ((), terms)
    return CurvatureDecomposition(label, t.dim, gammas, alphas)


def _slab(t: DenseTensor, k: int, l: int) -> DenseTensor:
    return DenseTensor.from_function(2, t.dim, lambda x: t[x[0], x[1], k, l])


def test_decompositions_match_every_pair_reference():
    tensors = [rand_curvature(random.Random(70 + n), n) for n in range(1, 8)]
    tensors += structured_curvatures().values()
    for t in tensors:
        assert decompose_pure(t, "gamma") == _every_pair_reference(t, "gamma", "pure-gamma")
        assert decompose_pure(t, "alpha") == _every_pair_reference(t, "alpha", "pure-alpha")
        assert decompose_mixed(t) == _every_pair_reference(t, "alpha", "mixed")
    # the column facts that let the library slice only k <= l, read the
    # alpha slabs as they are, and project the gamma source in one action
    preimage = canonical_elements().gamma_preimage
    first_pair_sum = GroupRingElement(4, [([1, 2, 3, 4], 1), ([2, 1, 3, 4], 1)])
    tensors = [rand_curvature(random.Random(80 + n), n) for n in range(2, 6)]
    for t in tensors + list(structured_curvatures().values()):
        source = apply_symmetry_operator(preimage, t).scale(Fraction(1, 12))
        projected = apply_symmetry_operator(
            (first_pair_sum * preimage).scale(Fraction(1, 12)), t)
        for k, l in product(range(t.dim), repeat=2):
            slab = _slab(t, k, l)
            assert slab.transpose() == -slab
            assert _slab(t, l, k) == -slab
            forward, backward = _slab(source, k, l), _slab(source, l, k)
            assert backward + backward.transpose() == forward + forward.transpose()
            assert _slab(projected, k, l) == forward + forward.transpose()


def test_mixed_round_trip_clifford_shape():
    from symcurv import Metric, clifford_family, quaternion_triple
    g = Metric.standard(4, 0)
    t = clifford_family(1, [1], [quaternion_triple()[0]], g)
    d = decompose_mixed(t)
    assert d.reconstruct() == t
    _assert_alpha_alias(t, d)


def test_decompose_zero_is_empty():
    zero = DenseTensor.zeros(4, 3)
    for d in (decompose_mixed(zero),
              decompose_pure(zero, "gamma"),
              decompose_pure(zero, "alpha")):
        assert d.term_count == 0
        assert d.reconstruct() == zero


def test_pure_gamma_represents_alpha_input():
    rng = random.Random(39)
    t = alpha(rand_skew(rng, 3))
    d = decompose_pure(t, "gamma")
    assert d.kind == "pure-gamma"
    assert d.alpha_terms == ()
    assert d.reconstruct() == t


def test_pure_alpha_represents_gamma_input():
    rng = random.Random(40)
    t = gamma(rand_symmetric(rng, 3))
    d = decompose_pure(t, "alpha")
    assert d.kind == "pure-alpha"
    assert d.gamma_terms == ()
    assert d.reconstruct() == t


def test_all_decompositions_round_trip_random_mixtures():
    rng = random.Random(41)
    for n in (2, 3, 4):
        t = rand_curvature(rng, n)
        assert decompose_mixed(t).reconstruct() == t
        assert decompose_pure(t, "gamma").reconstruct() == t
        assert decompose_pure(t, "alpha").reconstruct() == t


@pytest.mark.parametrize("n,singular", [(2, False), (3, False), (3, True), (4, False),
                                        (4, True)])
def test_basis_change_commutes_with_constructors_and_decompositions(n, singular):
    # pull_back(T, P)(u, v, w, z) = T(Pu, Pv, Pw, Pz) for a rational P that
    # need not be invertible; the matrix of a pulled-back form is P^T M P
    rng = random.Random(700 + 10 * n + singular)
    p = rand_matrix(rng, n)
    rows = p.to_nested()
    if singular:
        rows[-1] = [2 * v for v in rows[0]]
        p = DenseTensor.from_nested(rows)
    pt = p.transpose()
    s, a = rand_symmetric(rng, n), rand_skew(rng, n)
    assert gamma(pt @ s @ p) == pull_back(gamma(s), rows)
    assert alpha(pt @ a @ p) == pull_back(alpha(a), rows)
    t = rand_curvature(rng, n)
    pulled = pull_back(t, rows)
    assert is_algebraic_curvature(pulled)
    mixed = decompose_mixed(t)
    _assert_alpha_alias(t, mixed)
    for d in (mixed, decompose_pure(t, "gamma"), decompose_pure(t, "alpha")):
        moved = replace(d, **{
            field: tuple(term._replace(matrix=pt @ term.matrix @ p)
                         for term in getattr(d, field))
            for field in ("gamma_terms", "alpha_terms")})
        assert d.term_count > 0
        assert moved.reconstruct() == pulled


def test_decompose_rejects_non_curvature():
    rng = random.Random(42)
    t = rand_tensor(rng, 4, 2)
    with pytest.raises(NotACurvatureTensor):
        decompose_mixed(t)
    with pytest.raises(NotACurvatureTensor):
        decompose_pure(t, "gamma")
    with pytest.raises(ValueError):
        decompose_pure(rand_curvature(rng, 2), "both")


def test_rejected_tensor_is_checked_once(monkeypatch):
    calls = []
    original = curvature_module.check_curvature

    def counting(tensor):
        calls.append(tensor)
        return original(tensor)

    monkeypatch.setattr(curvature_module, "check_curvature", counting)
    rng = random.Random(44)
    s = rand_symmetric(rng, 2)
    t = tensor_product(s, s)
    for decompose in (decompose_mixed,
                      lambda x: decompose_pure(x, "gamma"),
                      lambda x: decompose_pure(x, "alpha")):
        calls.clear()
        with pytest.raises(NotACurvatureTensor,
                           match="antisymmetry in the first index pair"):
            decompose(t)
        assert len(calls) == 1


def test_forced_criteria_disagreement_raises(monkeypatch):
    zero = DenseTensor.zeros(4, 2)
    for verdict in (CurvatureCheck(True, False, None, 0),
                    CurvatureCheck(False, True, "first Bianchi identity", 1)):
        monkeypatch.setattr(curvature_module, "check_curvature",
                            lambda tensor, verdict=verdict: verdict)
        with pytest.raises(CriteriaDisagreement):
            is_algebraic_curvature(zero)
        with pytest.raises(CriteriaDisagreement):
            decompose_mixed(zero)
        with pytest.raises(CriteriaDisagreement):
            decompose_pure(zero, "gamma")


def test_pure_gamma_terms_all_contribute():
    rng = random.Random(45)
    for n in (3, 4, 5):
        t = rand_curvature(rng, n)
        d = decompose_pure(t, "gamma")
        assert all(not gamma(term.matrix).is_zero for term in d.gamma_terms)
        assert d.reconstruct() == t


def _has_nonzero_minor(m: DenseTensor) -> bool:
    """Reference: rank >= 2, read off the 2x2 minors of the entries."""
    rows = m.rows
    return any(rows[i][k] * rows[j][l] != rows[i][l] * rows[j][k]
               for i, j in product(range(m.dim), repeat=2) if i < j
               for k, l in product(range(m.dim), repeat=2) if k < l)


def test_rank_filter_runs_on_gamma_terms_only(monkeypatch):
    """A nonzero skew matrix has even rank >= 2, so no alpha term has its
    rank tested; the gamma path still drops its rank-1 terms."""
    verdicts = []
    original = curvature_module._rank_at_most_one

    def counting(matrix):
        verdicts.append(original(matrix))
        return verdicts[-1]

    monkeypatch.setattr(curvature_module, "_rank_at_most_one", counting)
    structured = structured_curvatures()
    seeded = {n: rand_curvature(random.Random(46 + n), n) for n in range(1, 7)}
    dropped = 0
    for name, t in [*seeded.items(), *structured.items()]:
        verdicts.clear()
        alphas = decompose_mixed(t).alpha_terms + decompose_pure(t, "alpha").alpha_terms
        assert verdicts == []
        assert all(_has_nonzero_minor(term.matrix) for term in alphas)
        d = decompose_pure(t, "gamma")
        assert verdicts.count(False) == len(d.gamma_terms)
        assert all(_has_nonzero_minor(term.matrix) for term in d.gamma_terms)
        dropped += verdicts.count(True) if name in structured else 0
    assert dropped > 0


def test_decomposition_weights_positive_and_signs():
    rng = random.Random(43)
    d = decompose_mixed(rand_curvature(rng, 3))
    for sign, weight, _ in d.gamma_terms + d.alpha_terms:
        assert sign in (1, -1)
        assert weight > 0


def test_decomposition_json_round_trip():
    rng = random.Random(44)
    t = rand_curvature(rng, 2)
    d = decompose_pure(t, "alpha")
    payload = d.to_json_dict()
    assert payload["kind"] == "pure-alpha"
    assert all(term["map"] == "alpha" for term in payload["terms"])
    back = CurvatureDecomposition.from_json_dict(payload)
    assert back.reconstruct() == t


_DECOMPOSITION_PAYLOAD = {
    "kind": "pure-alpha", "dim": 2,
    "terms": [{"map": "alpha", "sign": 1, "weight": "1",
               "matrix": [["0", "1"], ["-1", "0"]]}],
}


def test_decomposition_json_payload_loads():
    d = CurvatureDecomposition.from_json_dict(_DECOMPOSITION_PAYLOAD)
    assert (d.kind, d.dim, d.gamma_terms) == ("pure-alpha", 2, ())
    assert d.reconstruct() == alpha(DenseTensor.from_nested([[0, 1], [-1, 0]]))


_MALFORMED_FIELDS = [
    # the three fields of a payload that used to load as dim 2 with a zero
    # alpha term, changed one at a time
    (("dim",), 2.9, TypeError, "'dim' must be an integer"),
    (("terms", 0, "map"), "gama", ValueError, "'map' must be"),
    (("terms", 0, "sign"), 0.5, TypeError, "'sign' must be an integer"),
    (("dim",), "2", TypeError, "'dim' must be an integer"),
    (("dim",), 0, ValueError, "'dim' must be positive"),
    (("kind",), "pure-alpah", ValueError, "'kind' must be one of"),
    (("terms", 0, "sign"), True, TypeError, "'sign' must be an integer"),
    (("terms", 0, "sign"), 0, ValueError, "'sign' must be 1 or -1"),
    (("terms", 0, "sign"), 2, ValueError, "'sign' must be 1 or -1"),
    (("terms", 0, "weight"), "0", ValueError, "'weight' must be positive"),
    (("terms", 0, "weight"), "-1/2", ValueError, "'weight' must be positive"),
    (("terms", 0, "weight"), 0.5, TypeError, "float"),
    (("terms", 0, "matrix"), [["0"]], ValueError, "must be 2 x 2"),
    (("terms", 0, "matrix"), [[["0"]]], ValueError, "must be 2 x 2"),
    (("dim",), 3, ValueError, "must be 3 x 3"),
]


@pytest.mark.parametrize("path,value,error,match", _MALFORMED_FIELDS,
                         ids=[f"{path[-1]}={value!r}" for path, value, *_ in _MALFORMED_FIELDS])
def test_decomposition_json_refuses_malformed_fields(path, value, error, match):
    payload = copy.deepcopy(_DECOMPOSITION_PAYLOAD)
    *parents, key = path
    node = payload
    for step in parents:
        node = node[step]
    node[key] = value
    with pytest.raises(error, match=match):
        CurvatureDecomposition.from_json_dict(payload)


#: gamma and alpha as group-ring elements of S4 acting on a tensor square,
#: spelled here so that the reference below shares no code with the kernel.
_GAMMA_ELEMENT = GroupRingElement(4, [([1, 4, 2, 3], "1/3"), ([1, 3, 2, 4], "-1/3")])
_ALPHA_ELEMENT = GroupRingElement(
    4, [([1, 2, 3, 4], "2/3"), ([1, 3, 2, 4], "1/3"), ([1, 4, 2, 3], "-1/3")])


def _group_ring_sum(n, gamma_terms, alpha_terms) -> DenseTensor:
    """Reference: ``sum c * element (M (x) M)`` over the pairs ``(c, M)``,
    one action of the gamma or alpha element per term."""
    total = DenseTensor.zeros(4, n)
    for element, terms in ((_GAMMA_ELEMENT, gamma_terms), (_ALPHA_ELEMENT, alpha_terms)):
        for c, m in terms:
            total = total + apply_symmetry_operator(element, tensor_product(m, m)).scale(c)
    return total


def _pairs(terms) -> list[tuple[Fraction, DenseTensor]]:
    return [(t.sign * t.weight, t.matrix) for t in terms]


def _term_by_term(d: CurvatureDecomposition) -> DenseTensor:
    """Reference: the group-ring route, one term at a time."""
    return _group_ring_sum(d.dim, _pairs(d.gamma_terms), _pairs(d.alpha_terms))


def _random_terms(rng, n, make, count):
    """Terms with mixed denominators, both signs, zero weights, zero and
    repeated matrices."""
    matrices = [make(rng, n) for _ in range(count)]
    matrices.append(DenseTensor.zeros(2, n))
    terms = []
    for _ in range(count + 2):
        weight = Fraction(rng.randint(0, 9), rng.choice((1, 2, 3, 7, 12)))
        terms.append(DecompositionTerm(rng.choice((1, -1)), weight,
                                       rng.choice(matrices)))
    return tuple(terms)


def test_reconstruct_matches_term_by_term_sum():
    rng = random.Random(46)
    for n in (1, 2, 3, 4, 5):
        for kinds in ("both", "gamma", "alpha"):
            gammas = (_random_terms(rng, n, rand_symmetric, 4)
                      if kinds != "alpha" else ())
            alphas = (_random_terms(rng, n, rand_skew, 4)
                      if kinds != "gamma" else ())
            d = CurvatureDecomposition("mixed", n, gammas, alphas)
            assert d.reconstruct() == _term_by_term(d)


def test_quadratic_sum_matches_the_group_ring_route():
    """Both kinds in one call, n = 1..6: mixed denominators, both signs,
    zero weights, zero and repeated matrices, one kind alone, no terms."""
    rng = random.Random(49)
    quadratic_sum = curvature_module._quadratic_sum
    for n in range(1, 7):
        for count in (0, 1, 4):
            gammas = _pairs(_random_terms(rng, n, rand_symmetric, count))
            alphas = _pairs(_random_terms(rng, n, rand_skew, count))
            for g, a in ((gammas, alphas), (gammas, ()), ((), alphas)):
                assert quadratic_sum(n, g, a) == _group_ring_sum(n, g, a)
        assert quadratic_sum(n, (), ()) == DenseTensor.zeros(4, n)
    one = DenseTensor(2, 1, ["3/2"])
    assert quadratic_sum(1, [(Fraction(-2, 3), one)], [(2, -one + one)]) == DenseTensor.zeros(4, 1)


def test_reconstruct_of_no_terms_is_zero():
    for n in (1, 3):
        empty = CurvatureDecomposition("mixed", n, (), ())
        assert empty.reconstruct() == DenseTensor.zeros(4, n)
        zero_weights = CurvatureDecomposition(
            "mixed", n, (DecompositionTerm(1, Fraction(0), DenseTensor.zeros(2, n)),),
            (DecompositionTerm(-1, Fraction(0), DenseTensor.zeros(2, n)),))
        assert zero_weights.reconstruct() == DenseTensor.zeros(4, n)


def test_tampered_decomposition_fails_self_check():
    rng = random.Random(48)
    t = rand_curvature(rng, 3)
    for d in (decompose_pure(t, "gamma"), decompose_pure(t, "alpha")):
        field = "gamma_terms" if d.gamma_terms else "alpha_terms"
        terms = getattr(d, field)
        first = terms[0]
        for tampered in (first._replace(sign=-first.sign),
                         first._replace(weight=first.weight + Fraction(1, 5))):
            broken = replace(d, **{field: (tampered,) + terms[1:]})
            with pytest.raises(RuntimeError, match="failed to reconstruct"):
                curvature_module._checked(broken, t)
        assert curvature_module._checked(d, t) is d


def _tampered(d: CurvatureDecomposition):
    """``d`` with its first term dropped, its weight doubled and its sign
    flipped, one at a time."""
    field = "gamma_terms" if d.gamma_terms else "alpha_terms"
    first, rest = getattr(d, field)[0], getattr(d, field)[1:]
    for terms in (rest, (first._replace(weight=2 * first.weight),) + rest,
                  (first._replace(sign=-first.sign),) + rest):
        yield replace(d, **{field: terms})


@pytest.mark.parametrize("kind", ["gamma", "alpha"])
@pytest.mark.parametrize("n", [4, 8])
def test_self_check_rejects_a_dropped_term_a_doubled_weight_and_a_flipped_sign(kind, n):
    t = rand_curvature(random.Random(n), n, 3)
    d = decompose_pure(t, kind)
    for broken in _tampered(d):
        with pytest.raises(RuntimeError, match="failed to reconstruct"):
            curvature_module._checked(broken, t)


def test_self_check_on_the_operator_agrees_with_the_rebuild(monkeypatch):
    """``_checked`` compares curvature operators and never rebuilds; on
    every decomposition, tampered or not, and on a sum of both kinds, it
    accepts exactly when the group-ring sum of its terms equals T."""
    tensors = [rand_curvature(random.Random(n), n, 3) for n in range(1, 9)]
    tensors += structured_curvatures().values()
    tensors.append(DenseTensor.zeros(4, 4))
    checked = []
    for t in tensors:
        gammas, alphas = decompose_pure(t, "gamma"), decompose_pure(t, "alpha")
        flipped = tuple(term._replace(sign=-term.sign) for term in alphas.alpha_terms)
        both = CurvatureDecomposition("mixed", t.dim, gammas.gamma_terms, flipped)
        cases = [(gammas, t), (alphas, t), (both, DenseTensor.zeros(4, t.dim))]
        cases += [(broken, t) for d in (gammas, alphas) if d.term_count
                  for broken in _tampered(d)]
        checked += [(d, source, _term_by_term(d) == source) for d, source in cases]
    monkeypatch.setattr(CurvatureDecomposition, "reconstruct", None)
    for d, source, equal in checked:
        try:
            curvature_module._checked(d, source)
        except RuntimeError:
            assert not equal
        else:
            assert equal
    assert any(equal for *_, equal in checked) and not all(equal for *_, equal in checked)


def test_reconstruct_validates_every_matrix():
    not_symmetric = DenseTensor.from_nested([[1, 2], [0, 1]])
    not_skew = DenseTensor.from_nested([[0, 1], [1, 0]])
    fine = DenseTensor.from_nested([[0, 1], [-1, 0]])
    cases = (
        ((DecompositionTerm(1, Fraction(1), not_symmetric),), ()),
        ((), (DecompositionTerm(1, Fraction(1), fine),
              DecompositionTerm(-1, Fraction(2), not_skew))),
        # a zero weight does not exempt a matrix from validation
        ((DecompositionTerm(1, Fraction(0), not_symmetric),), ()),
    )
    for gammas, alphas in cases:
        with pytest.raises(ValueError, match="symmetric"):
            CurvatureDecomposition("mixed", 2, gammas, alphas).reconstruct()


def test_order_four_writers_refuse_the_entry_cap():
    """At n = 32 every quadratic construction would hold 32**4 = 1,048,576
    entries; each is refused before it allocates, sparse input or not."""
    s = DenseTensor.from_entries(2, 32, {(0, 0): 1})
    a = DenseTensor.from_entries(2, 32, {(0, 1): 1, (1, 0): -1})
    builds = (
        lambda: gamma(s),
        lambda: alpha(a),
        lambda: CurvatureDecomposition(
            "mixed", 32, (DecompositionTerm(1, Fraction(1), s),), ()).reconstruct(),
        lambda: jordan_family([1], [[0]], [a]),
        lambda: tensor_product(s, a),
    )
    for build in builds:
        with pytest.raises(ValueError, match="cap"):
            build()


@pytest.mark.parametrize("n", [8, 10])
def test_large_round_trips(n):
    rng = random.Random(49 + n)
    t = rand_curvature(rng, n, 1)
    for d in (decompose_mixed(t), decompose_pure(t, "gamma"),
              decompose_pure(t, "alpha")):
        assert d.dim == n and d.term_count
        assert d.reconstruct() == t


def test_approx_unit_terms_is_float_display():
    rng = random.Random(45)
    d = decompose_mixed(rand_curvature(rng, 2))
    approx = d.approx_unit_terms()
    assert len(approx) == d.term_count
    for label, sign, rows in approx:
        assert label in ("gamma", "alpha")
        assert sign in (1, -1)
        assert all(isinstance(v, float) for row in rows for v in row)


# ------------------------------------------------------------------ refusals

_REFUSALS = [
    pytest.param(lambda: bianchi_defect(DenseTensor.zeros(2, 2)),
                 "order-4 tensor required, got order 2", id="bianchi_defect of order 2"),
    pytest.param(lambda: CurvatureDecomposition(
                     "pure-gamma", 4, (DecompositionTerm(1, Fraction(1), LinearMap.identity(3)),),
                     ()).reconstruct(),
                 "matrix dimension 3 != 4", id="reconstruct of a matrix of another dimension"),
]


@pytest.mark.parametrize("call, fragment", _REFUSALS)
def test_refusals(call, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        call()


def _builders(tree: ast.AST, name: str) -> list[str | None]:
    """The enclosing function (``None`` at module level) of every call of
    ``name`` in ``tree``, in source order."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(child.func, "id",
                                                       getattr(child.func, "attr", None)) == name:
                found.append(owner)
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else owner)

    visit(tree, None)
    return found


def test_only_the_curvature_gate_builds_not_a_curvature_tensor():
    """``curvature._require_curvature`` is the one membership gate: every
    refusal of a tensor without the curvature symmetries goes through it, so
    each names the first violated symmetry in the same words."""
    builders = {}
    for path in sorted(Path(symcurv.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for owner in _builders(tree, "NotACurvatureTensor"):
            builders.setdefault(path.stem, []).append(owner)
    assert builders == {"curvature": ["_require_curvature"]}


def test_one_evaluator_for_sums_of_gammas_and_alphas():
    """``_operator_sum`` alone evaluates ``sum c gamma(S) + sum c alpha(A)``:
    the build ``_quadratic_sum`` and the self-check ``_checked`` both call
    it, neither applies a group-ring element, and ``tensor_ops`` keeps no
    n^4 Gram sum."""
    tree = ast.parse(Path(curvature_module.__file__).read_text(encoding="utf-8"))
    assert sorted(_builders(tree, "_operator_sum")) == ["_checked", "_quadratic_sum"]
    assert not {"_checked", "_quadratic_sum"} & set(_builders(tree, "apply_symmetry_operator"))
    ops = ast.parse(Path(tensor_ops_module.__file__).read_text(encoding="utf-8"))
    assert "_gram_sum" not in {node.name for node in ast.walk(ops)
                               if isinstance(node, ast.FunctionDef)}

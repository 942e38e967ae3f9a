"""Metrics, Jacobi operators, exact spectra, and the nilpotent examples."""

import random
import re
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import symcurv.curvature as curvature_module
import symcurv.osserman as osserman_module
from symcurv import (
    DenseTensor,
    LinearMap,
    Metric,
    NotACurvatureTensor,
    SignatureError,
    alpha,
    char_poly,
    clifford_check,
    clifford_family,
    decompose_pure,
    gamma,
    jacobi_alpha_closed,
    jacobi_gamma_closed,
    jacobi_operator,
    jordan_family,
    lorentz_checks,
    nilpotency_check,
    nilpotent_skew_example,
    nilpotent_sym_example,
    osserman_spectrum_sample,
    quaternion_triple,
    rational_roots,
    sample_unit_vectors,
    sample_vectors,
)

from helpers import (isolated, pull_back, rand_curvature, rand_fraction,
                     rand_skew, rand_symmetric, rand_vector)


def _mat(rows):
    return DenseTensor.from_nested(rows)


def _as_map_rows(t: DenseTensor):
    return LinearMap(t.to_nested())


# --------------------------------------------------------------------- metric

def test_standard_metric():
    g = Metric.standard(2, 2)
    assert g.dim == 4
    assert g.signature == (2, 2)
    assert g.is_standard_form
    assert g.inner([1, 0, 1, 0], [1, 0, 1, 0]) == 0  # null vector
    # default form squares to the identity
    eye = LinearMap.identity(4)
    assert LinearMap(g.rows) @ LinearMap(g.rows) == eye


def test_metric_validation():
    with pytest.raises(ValueError):
        Metric([[0, 1], [2, 0]])  # not symmetric
    with pytest.raises(ValueError):
        Metric([[1, 1], [1, 1]])  # singular


def test_metric_and_gamma_refuse_a_non_symmetric_matrix_alike():
    rows = [[0, 1], [2, 0]]
    with pytest.raises(ValueError) as metric_error:
        Metric(rows)
    with pytest.raises(ValueError) as gamma_error:
        gamma(_mat(rows))
    assert str(metric_error.value) == str(gamma_error.value)


def test_custom_metric_signature_and_inverse():
    g = Metric([[2, 1], [1, -3]])
    assert g.signature == (1, 1)
    assert not g.is_standard_form
    inv = g.inverse_rows
    product = [[sum(g.rows[i][k] * inv[k][j] for k in range(2))
                for j in range(2)] for i in range(2)]
    assert product == [[1, 0], [0, 1]]
    rng = random.Random(64)
    for _ in range(5):
        x, y = rand_vector(rng, 2), rand_vector(rng, 2)
        assert g.inner(x, y) == sum(x[i] * g.rows[i][j] * y[j]
                                    for i in range(2) for j in range(2))
    assert g.inner(["1/2", 1], [3, "-2/3"]) == Fraction(23, 3)  # 3 - 1/3 + 3 + 2
    with pytest.raises(ValueError, match="dimension 2"):
        g.inner([1, 2, 3], [1, 2])
    # the right signature, or the right shape, is not enough
    assert Metric([[1, 0], [0, -1]]).is_standard_form
    assert not Metric([[-1, 0], [0, 1]]).is_standard_form
    assert not Metric([[2, 0], [0, 2]]).is_standard_form
    assert repr(g) == "Metric(dim=2, signature=(1,1))"
    assert repr(LinearMap(g.rows)) == "LinearMap(dim=2)"


def _sympy_rows(sympy, rows):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                         for row in rows])


def test_inverse_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(63)
    checked = 0
    while checked < 30:
        rows = rand_symmetric(rng, rng.randint(1, 6)).to_nested()
        reference = _sympy_rows(sympy, rows)
        if reference.det() == 0:
            continue
        assert _sympy_rows(sympy, Metric(rows).inverse_rows) == reference.inv()
        checked += 1


def test_singular_input_rejected_like_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(64)
    for _ in range(10):
        n = rng.randint(2, 5)
        # sum of k < n rank-one symmetric terms: rank at most k
        rows = [[Fraction(0)] * n for _ in range(n)]
        for _ in range(rng.randint(1, n - 1)):
            v = rand_vector(rng, n)
            weight = Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3))
            for i in range(n):
                for j in range(n):
                    rows[i][j] += weight * v[i] * v[j]
        with pytest.raises(ValueError):
            _sympy_rows(sympy, rows).inv()
        with pytest.raises(ValueError, match="singular"):
            Metric(rows)


def _det(rows):
    """Leibniz determinant: small matrices only."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction((-1) ** inversions)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def _congruent(p, d):
    """P^T diag(d) P."""
    n = len(d)
    return [[sum(p[k][i] * d[k] * p[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


_small_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def _basis_changes(draw):
    n = draw(st.integers(1, 4))
    d = draw(st.lists(_small_fractions.filter(bool), min_size=n, max_size=n))
    p = draw(st.lists(st.lists(_small_fractions, min_size=n, max_size=n),
                      min_size=n, max_size=n))
    return p, d


@settings(max_examples=120, deadline=None)
@given(_basis_changes())
# -> [[0, 1], [1, 0]]: char poly x^2 - 1 has a zero trace coefficient; a
# zero counted as a sign of its own would give two sign changes, not one
@example(([[Fraction(1, 2), 1], [Fraction(-1, 2), 1]], [1, -1]))
# -> [[0, 1], [1, 1]]: char poly x^2 - x - 1, one sign change, so (1, 1)
# although the trace is positive and the first diagonal entry is 0
@example(([[1, 1], [1, 0]], [1, -1]))
def test_signature_invariant_under_congruence(case):
    p, d = case
    assume(_det(p) != 0)
    expected = (sum(v > 0 for v in d), sum(v < 0 for v in d))
    assert Metric(_congruent(p, d)).signature == expected


def _random_symmetric_rows(rng, n, zero_diagonal):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or not zero_diagonal:
                rows[i][j] = rows[j][i] = rand_fraction(rng, -4, 4, 3)
    return rows


def _signature_cases():
    rng = random.Random(77)
    cases = [_random_symmetric_rows(rng, 1 + k % 8, k % 3 == 0) for k in range(240)]
    hyperbolic = [[0, 1], [1, 0]]
    # block sums of hyperbolic planes and definite blocks, up to n = 8
    for blocks in ([hyperbolic], [hyperbolic] * 2, [hyperbolic, [[2]], [[-3]]],
                   [hyperbolic] * 4, [[[1, 2], [2, 1]], hyperbolic, [[0, -1], [-1, 0]]]):
        n = sum(len(b) for b in blocks)
        rows = [[0] * n for _ in range(n)]
        at = 0
        for b in blocks:
            for i, row in enumerate(b):
                rows[at + i][at:at + len(b)] = row
            at += len(b)
        cases.append(rows)
    return cases


def test_signature_matches_sympy_sturm_count():
    # Poly.count_roots counts distinct real roots by Sturm sequences,
    # independent of the sign-change count that Metric uses; the square-free
    # factorization supplies the multiplicities
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    checked = 0
    for rows in _signature_cases():
        matrix = sympy.Matrix(rows)
        if matrix.det() == 0:
            continue
        _, factors = sympy.Poly(matrix.charpoly(x).as_expr(), x).sqf_list()
        positive = sum(m * f.count_roots(0, None) for f, m in factors)
        n = len(rows)
        assert Metric(rows).signature == (positive, n - positive)
        checked += 1
    assert checked > 200


def test_raise_lower_round_trip_both_directions():
    rng = random.Random(61)
    for g in (Metric.standard(3, 0), Metric.standard(1, 2),
              Metric([[2, 1, 0], [1, -3, 0], [0, 0, 1]])):
        for _ in range(5):
            form = _mat([[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                          for _ in range(3)] for _ in range(3)])
            assert g.lower_map(g.raise_form(form)) == form
            mapping = LinearMap([[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                  for _ in range(3)] for _ in range(3)])
            assert g.raise_form(g.lower_map(mapping)) == mapping


def test_raise_form_matches_defining_relation():
    rng = random.Random(62)
    g = Metric.standard(2, 2)
    b = rand_symmetric(rng, 4)
    c = g.raise_form(b)
    for _ in range(5):
        x = rand_vector(rng, 4)
        y = rand_vector(rng, 4)
        assert g.inner(c(x), y) == sum(
            x[i] * b[(i, j)] * y[j] for i in range(4) for j in range(4))


def test_metric_size_is_capped_before_allocation():
    # 10**18 dimensions cannot be allocated; the cap must refuse them first
    for p, q in ((10 ** 18, 0), (1, 10 ** 18), (32, 0), (20, 12)):
        with pytest.raises(ValueError, match="cap"):
            Metric.standard(p, q)
        with pytest.raises(ValueError, match="cap"):
            Metric.from_json_dict({"p": p, "q": q})
    identity = [[int(i == j) for j in range(32)] for i in range(32)]
    with pytest.raises(ValueError, match="cap"):
        Metric.from_json_dict({"matrix": identity})
    assert Metric.from_json_dict({"p": 31, "q": 0}).dim == 31
    with pytest.raises(ValueError, match="nonempty"):
        Metric.from_json_dict({"matrix": []})


def test_metric_json():
    g = Metric.standard(1, 3)
    assert g.to_json_dict() == {"p": 1, "q": 3}
    assert Metric.from_json_dict({"p": 1, "q": 3}) == g
    custom = Metric([[2, 1], [1, -3]])
    assert Metric.from_json_dict(custom.to_json_dict()) == custom
    halves = Metric.from_json_dict({"matrix": [["1/2", "0"], ["0", "-3"]]})
    assert halves.rows == ((Fraction(1, 2), 0), (0, -3))


@pytest.mark.parametrize("payload", [
    {"p": 3.7, "q": 0}, {"p": 3, "q": False}, {"p": True, "q": 1},
    {"p": "2", "q": 2},
])
def test_metric_json_signature_must_be_integers(payload):
    with pytest.raises(TypeError, match="must be an integer"):
        Metric.from_json_dict(payload)


# string rows used to be split into characters: ["10", "01"] loaded as the
# 2x2 identity and ["12", "21"] as [[1, 2], [2, 1]]
@pytest.mark.parametrize("matrix", [["10", "01"], ["12", "21"], "1", [[1, 0], "01"],
                                    {"0": [1]}],
                         ids=["identity-strings", "swap-strings", "string",
                              "mixed-rows", "dict"])
def test_metric_json_matrix_must_be_a_list_of_lists(matrix):
    with pytest.raises(TypeError, match="'matrix' must be a list of lists"):
        Metric.from_json_dict({"matrix": matrix})


# ------------------------------------------------------------- jacobi operator

def test_jacobi_of_zero():
    g = Metric.standard(3, 0)
    j = jacobi_operator(DenseTensor.zeros(4, 3), g, [1, 0, 0])
    assert j.is_zero


def test_jacobi_constant_curvature_is_projection():
    g = Metric.standard(3, 0)
    t = gamma(g.tensor()).scale(3)
    x = (Fraction(3, 5), Fraction(4, 5), Fraction(0))
    assert g.inner(x, x) == 1
    j = jacobi_operator(t, g, x)
    # projection orthogonal to x: J == Id - x (g x)^T
    expected = LinearMap([[Fraction(int(e == a)) - x[e] * x[a]
                           for a in range(3)] for e in range(3)])
    assert j == expected
    roots, remainder = rational_roots(char_poly(j))
    assert remainder == (1,)
    assert roots == ((Fraction(0), 1), (Fraction(1), 2))


def test_jacobi_dimension_mismatch():
    g = Metric.standard(3, 0)
    with pytest.raises(ValueError):
        jacobi_operator(DenseTensor.zeros(4, 2), g, [1, 0, 0])
    with pytest.raises(ValueError):
        jacobi_operator(DenseTensor.zeros(4, 3), g, [1, 0])


def test_closed_forms_match_generic_path():
    rng = random.Random(63)
    for g in (Metric.standard(3, 0), Metric.standard(2, 1),
              Metric.standard(4, 0), Metric.standard(2, 2)):
        m = g.dim
        for _ in range(7):
            s = rand_symmetric(rng, m)
            a = rand_skew(rng, m)
            x = rand_vector(rng, m)
            assert jacobi_gamma_closed(s, g, x) == jacobi_operator(gamma(s), g, x)
            assert jacobi_alpha_closed(a, g, x) == jacobi_operator(alpha(a), g, x)


def test_closed_form_trivial_inputs():
    g = Metric.standard(3, 0)
    assert jacobi_gamma_closed(DenseTensor.zeros(2, 3), g, [1, 2, 3]).is_zero
    assert jacobi_alpha_closed(DenseTensor.zeros(2, 3), g, [1, 2, 3]).is_zero
    s = _mat([[1, 2, 0], [2, 0, 1], [0, 1, 3]])
    a = _mat([[0, 1, 0], [-1, 0, 2], [0, -2, 0]])
    with pytest.raises(ValueError, match="not symmetric"):
        jacobi_gamma_closed(a, g, [1, 2, 3])
    with pytest.raises(ValueError, match="not skew"):
        jacobi_alpha_closed(s, g, [1, 2, 3])
    with pytest.raises(ValueError, match="order 2"):
        jacobi_gamma_closed(DenseTensor.zeros(4, 3), g, [1, 2, 3])


def test_gamma_closed_form_on_nilpotent_block():
    # rank-1 C makes Cx and Cy proportional, so the closed form collapses
    g = Metric.standard(1, 1)
    s = nilpotent_sym_example(1, 1)
    rng = random.Random(71)
    for _ in range(5):
        x = rand_vector(rng, 2)
        j = jacobi_gamma_closed(s, g, x)
        assert j.is_zero
        assert (j @ j).is_zero


def test_alpha_closed_eigenvector():
    # for C with C^2 = -Id and unit x, the vector Cx is a -1 eigenvector
    g = Metric.standard(4, 0)
    c = quaternion_triple()[0]
    a = g.lower_map(c)
    x = (Fraction(3, 5), Fraction(4, 5), Fraction(0), Fraction(0))
    j = jacobi_alpha_closed(a, g, x)
    cx = c(x)
    assert j(cx) == tuple(-v for v in cx)


def test_jacobi_kills_its_base_point_and_is_self_adjoint():
    rng = random.Random(64)
    for g in (Metric.standard(3, 0), Metric.standard(2, 2)):
        m = g.dim
        t = gamma(rand_symmetric(rng, m)) + alpha(rand_skew(rng, m))
        for _ in range(5):
            x = rand_vector(rng, m)
            j = jacobi_operator(t, g, x)
            assert j(x) == (Fraction(0),) * m
            gj = LinearMap(g.rows) @ j
            assert gj == gj.transpose()


def test_jacobi_homogeneity():
    rng = random.Random(65)
    g = Metric.standard(2, 1)
    t = gamma(rand_symmetric(rng, 3))
    x = rand_vector(rng, 3)
    c = Fraction(-3, 2)
    scaled = jacobi_operator(t, g, tuple(c * v for v in x))
    assert scaled == jacobi_operator(t, g, x).scale(c * c)


def _non_diagonal_metric(rng, n):
    """A random symmetric invertible metric, non-diagonal when n > 1."""
    while True:
        rows = rand_symmetric(rng, n).to_nested()
        if _det(rows) and (n == 1 or rows[0][1]):
            return Metric(rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_jacobi_operator_matches_entrywise_contraction(n):
    # oracle: g(J e_a, e_d) = sum over (b, c) of T[a,b,c,d] x_b x_c
    rng = random.Random(300 + n)
    for g in (_non_diagonal_metric(rng, n), Metric.standard(n, 0)):
        for _ in range(3):
            # only the shape is enforced, so any tensor will do
            t = DenseTensor(4, n, [rand_fraction(rng, -3, 3, 5) for _ in range(n ** 4)])
            # a half-odd first component keeps x fractional
            x = (Fraction(2 * rng.randint(-3, 3) + 1, 2),) + rand_vector(rng, n)[1:]
            j = jacobi_operator(t, g, x)
            lowered = [[sum(g.rows[d][e] * j.rows[e][a] for e in range(n))
                        for a in range(n)] for d in range(n)]
            for a in range(n):
                for d in range(n):
                    assert lowered[d][a] == sum(
                        t[(a, b, c, d)] * x[b] * x[c]
                        for b in range(n) for c in range(n))


# ------------------------------------------------------------------- char poly

def test_char_poly_identity():
    coeffs = char_poly(LinearMap.identity(3))
    assert coeffs == (1, -3, 3, -1)  # (t - 1)^3
    roots, remainder = rational_roots(coeffs)
    assert roots == ((Fraction(1), 3),) and remainder == (1,)


def test_char_poly_nilpotent():
    n = LinearMap([[0, 1], [0, 0]])
    assert char_poly(n) == (1, 0, 0)
    roots, _ = rational_roots(char_poly(n))
    assert roots == ((Fraction(0), 2),)


def test_char_poly_diagonal():
    d = LinearMap([[2, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    roots, remainder = rational_roots(char_poly(d))
    assert remainder == (1,)
    assert dict(roots) == {Fraction(0): 2, Fraction(2): 1, Fraction(-1): 1}


def test_rational_roots_fractional_and_irrational():
    # (t - 1/2)(t + 3/2) = t^2 + t - 3/4
    roots, remainder = rational_roots((1, 1, Fraction(-3, 4)))
    assert dict(roots) == {Fraction(1, 2): 1, Fraction(-3, 2): 1}
    assert remainder == (1,)
    # t^2 - 2 has no rational roots: remainder reported, nothing extracted
    roots, remainder = rational_roots((1, 0, -2))
    assert roots == ()
    assert remainder == (1, 0, -2)


def _times(poly, factor, power=1):
    for _ in range(power):
        poly = [sum((poly[i] * factor[k - i] for i in range(len(poly))
                     if 0 <= k - i < len(factor)), Fraction(0))
                for k in range(len(poly) + len(factor) - 1)]
    return poly


def _expand(roots, remainder):
    """The monic polynomial with these rational roots times the remainder."""
    poly = list(remainder)
    for root, multiplicity in roots:
        poly = _times(poly, [1, -root], multiplicity)
    return tuple(poly)


def _no_rational_roots():
    """``(poly, rational roots)``: (x^2-2)(x^2-3)(x^2-6) has a root mod
    every prime (one of 2, 3, 6 is a square mod p) and none over the
    rationals; here alone and with further factors."""
    base = _times(_times([1, 0, -2], [1, 0, -3]), [1, 0, -6])
    return [(base, ()), (_times(base, [1, Fraction(-1, 2)], 2), ((Fraction(1, 2), 2),)),
            (_times(base, [1, 0], 3), ((Fraction(0), 3),)),
            (_times(base, [3, 7]), ((Fraction(-7, 3), 1),)), (_times(base, [1, 0, -2]), ())]


def _seeded_products(rng, count):
    """Products of rational linear factors, some repeated, with random
    quadratics and cubics (mostly irreducible) and a random leading
    coefficient."""
    out = []
    for _ in range(count):
        poly = [rand_fraction(rng, 1, 9, 4) * rng.choice((1, -1))]
        for _ in range(rng.randint(0, 4)):
            poly = _times(poly, [1, -rand_fraction(rng, -6, 6, 3)], rng.randint(1, 3))
        for _ in range(rng.randint(0, 2)):
            poly = _times(poly, [1] + [rand_fraction(rng, -5, 5, 2)
                                       for _ in range(rng.randint(2, 3))])
        out.append(tuple(poly))
    return out


_EDGE_CASES = [
    ((1,) + (0,) * 8, ((Fraction(0), 8),), (1,)),                      # x^8
    (tuple(_times([1], [1, Fraction(-1, 3)], 8)), ((Fraction(1, 3), 8),), (1,)),
    ((1, -2 ** 100), ((Fraction(2 ** 100), 1),), (1,)),
    ((6, -1, -1), ((Fraction(-1, 3), 1), (Fraction(1, 2), 1)), (1,)),  # (3x+1)(2x-1)
    ((Fraction(-7, 2),), (), (1,)),                                     # a constant
    ((2, 0, -4), (), (1, 0, -2)),                                       # 2x^2 - 4
]


def test_rational_roots_edge_cases():
    cases = _EDGE_CASES + [(tuple(poly), roots, None) for poly, roots in _no_rational_roots()]
    results = isolated(rational_roots, [(coefficients,) for coefficients, _, _ in cases])
    for (coefficients, roots, remainder), result in zip(cases, results):
        assert result[0] == roots
        assert remainder is None or result[1] == remainder
        assert _expand(*result) == tuple(Fraction(c) / coefficients[0] for c in coefficients)


def _sympy_rational_roots(sympy, coefficients):
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in map(Fraction, coefficients)], x, domain="QQ").monic()
    # ground_roots factors over QQ; roots(..., filter="Q") stalls on
    # products with irreducible cubic factors
    roots = poly.ground_roots()
    for root, multiplicity in roots.items():
        poly = poly.exquo(sympy.Poly(x - root, x, domain="QQ") ** multiplicity)
    return (tuple(sorted((Fraction(int(r.p), int(r.q)), m) for r, m in roots.items())),
            tuple(Fraction(int(c.p), int(c.q)) for c in poly.all_coeffs()))


def test_rational_roots_match_sympy():
    sympy = pytest.importorskip("sympy")
    polys = _seeded_products(random.Random(330), 200)
    polys += [poly for poly, _ in _no_rational_roots()]
    polys += [coefficients for coefficients, _, _ in _EDGE_CASES]
    results = isolated(rational_roots, [(tuple(p),) for p in polys])
    for poly, result in zip(polys, results):
        assert result == _sympy_rational_roots(sympy, poly)
    # the products cover repeated roots and unfactored remainders
    assert any(m > 1 for roots, _ in results for _, m in roots)
    assert sum(len(remainder) > 3 for _, remainder in results) > 20


def test_char_poly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(310)
    cases = [LinearMap([[0] * n for _ in range(n)]) for n in (1, 4)]
    for n in range(1, 9):
        for _ in range(2):
            # mixed denominators up to 60
            cases.append(LinearMap([[Fraction(rng.randint(-40, 40), rng.randint(1, 60))
                                     for _ in range(n)] for _ in range(n)]))
    # singular: the last row is a combination of the others
    rows = [[rand_fraction(rng, -5, 5, 7) for _ in range(5)] for _ in range(4)]
    rows.append([Fraction(1, 2) * u - Fraction(2, 3) * v for u, v in zip(rows[0], rows[2])])
    cases.append(LinearMap(rows))
    t = sympy.Symbol("t")
    for mapping in cases:
        reference = _sympy_rows(sympy, mapping.rows).charpoly(t).all_coeffs()
        coefficients = char_poly(mapping)
        assert all(isinstance(c, Fraction) for c in coefficients)
        assert [sympy.Rational(c.numerator, c.denominator)
                for c in coefficients] == reference
    assert char_poly(cases[-1])[-1] == 0


def test_linear_map_product_matches_entrywise_sum():
    rng = random.Random(311)
    for n in (1, 3, 6):
        a, b = ([[rand_fraction(rng, -9, 9, 12) for _ in range(n)] for _ in range(n)]
                for _ in range(2))
        product = LinearMap(a) @ LinearMap(b)
        assert product.rows == tuple(
            tuple(sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0))
                  for j in range(n)) for i in range(n))
        assert all(isinstance(v, Fraction) for row in product.rows for v in row)
    with pytest.raises(ValueError, match="square"):
        LinearMap([[1, 2]])


def _entries(value):
    if isinstance(value, DenseTensor):
        return [v for row in value.rows for v in row]
    return list(value) if isinstance(value, tuple) else [value]


@pytest.mark.parametrize("n", [1, 2, 4])
def test_order_two_tensor_is_the_matrix_type(n):
    rng = random.Random(470 + n)
    d, e = (DenseTensor(2, n, [rand_fraction(rng, -9, 9, 12) for _ in range(n * n)])
            for _ in range(2))
    m, k = LinearMap(d.rows), LinearMap(e.rows)
    v = rand_vector(rng, n)
    # the matrix operations agree on both types and stay exact
    assert m == d and m.rows == d.rows
    pairs = [(d @ e, m @ k), (d(v), m(v)), (d.trace(), m.trace()),
             (d.transpose(), m.transpose()), (d + e, m + k), (d - e, m - k),
             (d.scale("2/3"), m.scale("2/3"))]
    for plain, mapped in pairs:
        assert plain == mapped
        assert all(isinstance(x, Fraction) for x in _entries(plain) + _entries(mapped))
        if isinstance(mapped, DenseTensor):
            assert type(mapped) is LinearMap
    # the private rows constructor inverts _int_rows and keeps the type
    for matrix in (d, m):
        back = type(matrix)._from_int_rows(*matrix._int_rows())
        assert back == matrix and type(back) is type(matrix)
    assert (d @ e).rows == tuple(
        tuple(sum((d.rows[i][j] * e.rows[j][l] for j in range(n)), Fraction(0))
              for l in range(n)) for i in range(n))
    assert d(v) == tuple(sum(d.rows[i][j] * v[j] for j in range(n)) for i in range(n))
    assert d.trace() == sum(d.rows[i][i] for i in range(n))
    # they are matrix operations only
    t = DenseTensor(4, n, [rand_fraction(rng) for _ in range(n ** 4)])
    for op in (lambda: t @ t, lambda: d @ t, lambda: t(v), lambda: t.trace(),
               lambda: t.rows, lambda: t.transpose(), lambda: LinearMap(t)):
        with pytest.raises(ValueError, match="order 2"):
            op()
    # the metric's matrix and a lowered map go straight into gamma / alpha
    g = Metric([[2 if i == j else int(abs(i - j) == 1) for j in range(n)]
                for i in range(n)])
    assert gamma(g.tensor()) == gamma(DenseTensor.from_nested([list(r) for r in g.rows]))
    a = rand_skew(rng, n)
    c = g.raise_form(a)
    assert g.lower_map(c) == a
    assert alpha(g.lower_map(c)) == alpha(a)


# ---------------------------------------------- isometry invariance of spectra

def _inverse(rows):
    """Gauss-Jordan inverse of an invertible rational matrix."""
    n = len(rows)
    work = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r][col])
        work[col], work[pivot] = work[pivot], work[col]
        work[col] = [v / work[col][col] for v in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [u - factor * v for u, v in zip(work[r], work[col])]
    return [row[n:] for row in work]


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _signed_permutation(rng, p, q):
    """A random signed permutation matrix that keeps the +1 block of
    diag(+1 x p, -1 x q) and the -1 block apart: an isometry."""
    images = rng.sample(range(p), p) + [p + i for i in rng.sample(range(q), q)]
    return [[rng.choice((1, -1)) if images[j] == i else 0 for j in range(p + q)]
            for i in range(p + q)]


def _cayley(rng, diag):
    """``P = (I - A)^{-1} (I + A)`` with ``A = g^{-1} K`` for a random skew
    K: P^T g P == g whenever I - A is invertible."""
    n = len(diag)
    while True:
        k = rand_skew(rng, n).to_nested()
        a = [[diag[i] * k[i][j] for j in range(n)] for i in range(n)]  # g^{-1} = g
        minus = [[int(i == j) - a[i][j] for j in range(n)] for i in range(n)]
        if _det(minus):
            plus = [[int(i == j) + a[i][j] for j in range(n)] for i in range(n)]
            return _matmul(_inverse(minus), plus)


def _apply(q, x):
    return tuple(sum(q[i][j] * x[j] for j in range(len(x))) for i in range(len(x)))


@pytest.mark.parametrize("p,q", [(4, 0), (2, 2)])
def test_jacobi_spectra_invariant_under_isometries(p, q):
    # J_{Q*T}(x) = Q^{-1} J_T(Q x) Q, so the characteristic polynomials of a
    # generic tensor agree at every sphere sample, and so do their roots
    rng = random.Random(320 + q)
    g = Metric.standard(p, q)
    diag = [1] * p + [-1] * q
    isometries = [_signed_permutation(rng, p, q) for _ in range(2)]
    isometries += [_cayley(rng, diag) for _ in range(2)]
    polys = []
    for iso in isometries:
        assert _congruent(iso, diag) == [list(row) for row in g.rows]
        t = rand_curvature(rng, 4, 1)
        pulled = pull_back(t, iso)
        for sign in (1, -1) if q else (1,):
            for x in sample_unit_vectors(g, sign, 2, seed=rng.randrange(10 ** 6)):
                pair = [char_poly(jacobi_operator(pulled, g, x)),
                        char_poly(jacobi_operator(t, g, _apply(iso, x)))]
                assert pair[0] == pair[1]
                polys += pair
    roots = isolated(rational_roots, [(poly,) for poly in polys])
    assert roots[0::2] == roots[1::2]
    assert all(_expand(*result) == poly for result, poly in zip(roots, polys))
    assert any(len(remainder) > 1 for _, remainder in roots)  # generic spectra
    # control: a basis change that is not an isometry moves the spectrum
    stretch = [[2 if i == j == 0 else int(i == j) for j in range(4)] for i in range(4)]
    t = rand_curvature(rng, 4, 1)
    x = sample_unit_vectors(g, 1, 2, seed=1)[1]
    assert (char_poly(jacobi_operator(pull_back(t, stretch), g, x))
            != char_poly(jacobi_operator(t, g, _apply(stretch, x))))


# ------------------------------------------------------------ clifford family

def test_clifford_check_quaternions():
    g = Metric.standard(4, 0)
    assert clifford_check(quaternion_triple(), g)


def test_clifford_check_single_rotation():
    g = Metric.standard(2, 0)
    rot = LinearMap([[0, -1], [1, 0]])
    assert clifford_check([rot], g)


def test_clifford_check_duplicate_fails():
    g = Metric.standard(2, 0)
    rot = LinearMap([[0, -1], [1, 0]])
    assert not clifford_check([rot, rot], g)


def test_clifford_check_generalized_squares():
    g = Metric.standard(1, 1)
    c = LinearMap([[0, 1], [1, 0]])  # skew wrt (1,1) metric, C^2 = +Id
    assert not clifford_check([c], g)
    assert clifford_check([c], g, generalized=True)


def test_clifford_family_constant_curvature():
    g = Metric.standard(3, 0)
    t = clifford_family(1, [], [], g)
    assert t == gamma(g.tensor()).scale(3)
    report = osserman_spectrum_sample(t, g, 5, 1, seed=2)
    assert report.constant
    assert dict(report.roots[0]) == {Fraction(0): 1, Fraction(1): 2}


def test_clifford_family_standard_spectrum():
    g = Metric.standard(4, 0)
    t = clifford_family(2, [1], [quaternion_triple()[0]], g)
    report = osserman_spectrum_sample(t, g, 10, 1, seed=0)
    assert len(report.samples) == 10
    assert report.constant and report.all_rational
    assert dict(report.roots[0]) == {Fraction(0): 1, Fraction(2): 2, Fraction(-1): 1}


def test_clifford_family_zero():
    g = Metric.standard(4, 0)
    t = clifford_family(0, [0], [quaternion_triple()[0]], g)
    assert t.is_zero


def test_clifford_family_rejects_bad_maps():
    g = Metric.standard(2, 0)
    not_skew = LinearMap([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        clifford_family(1, [1], [not_skew], g)


def _block_quaternions():
    """The quaternion triple acting on both halves of R^8."""
    zero = [0] * 4
    return [LinearMap([list(r) + zero for r in c.rows] + [zero + list(r) for r in c.rows])
            for c in quaternion_triple()]


def test_clifford_family_matches_term_by_term_sum():
    rng = random.Random(65)
    for g, maps in ((Metric.standard(4, 0), quaternion_triple()),
                    (Metric.standard(8, 0), _block_quaternions())):
        for k in (1, 2, 3):
            lam0 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            lams = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(k)]
            expected = gamma(g.tensor()).scale(3 * lam0)
            for lam, c in zip(lams, maps[:k]):
                expected = expected + alpha(g.lower_map(c)).scale(3 * lam)
            assert clifford_family(lam0, lams, maps[:k], g) == expected


def test_clifford_family_r8_spectrum_with_thirds():
    # lam0 = -1/3 scales the characteristic polynomial's constant to ~70 bits
    g = Metric.standard(8, 0)
    lam0, lams = Fraction(-1, 3), [Fraction(4, 3), Fraction(-2, 3), Fraction(5, 3)]
    calls, expected = [], []
    for k in (1, 2, 3):
        calls.append((clifford_family(lam0, lams[:k], _block_quaternions()[:k], g),
                      g, 3, 1, k))
        # 0 once, lam0 - 3 lam_i once each, lam0 on the other 7 - k directions
        spectrum = {Fraction(0): 1, lam0: 7 - k}
        spectrum.update((lam0 - 3 * lam, 1) for lam in lams[:k])
        expected.append(tuple(sorted(spectrum.items())))
    for report, roots in zip(isolated(osserman_spectrum_sample, calls), expected):
        assert report.constant and report.all_rational
        assert report.roots == (roots,) * 3


# --------------------------------------------------------------- jordan family

def test_jordan_family_matches_term_by_term_sum():
    rng = random.Random(70)
    for k in (1, 2, 3):
        skews = [rand_skew(rng, 4) for _ in range(k)]
        cs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k)]
        cross = [[Fraction(0)] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                cross[i][j] = cross[j][i] = Fraction(rng.randint(-3, 3), 2)
        expected = DenseTensor.zeros(4, 4)
        for c, a in zip(cs, skews):
            expected = expected + alpha(a).scale(c)
        for i in range(k):
            for j in range(k):
                if i != j:
                    expected = expected + alpha(skews[i] + skews[j]).scale(cross[i][j] / 2)
        assert jordan_family(cs, cross, skews) == expected


def test_jordan_family_single_term():
    rng = random.Random(66)
    a = rand_skew(rng, 4)
    assert jordan_family([1], [[0]], [a]) == alpha(a)


def test_jordan_family_zero():
    rng = random.Random(67)
    a = rand_skew(rng, 4)
    assert jordan_family([0], [[0]], [a]).is_zero


def test_jordan_family_cross_terms_collapse():
    rng = random.Random(68)
    a1, a2 = rand_skew(rng, 4), rand_skew(rng, 4)
    cross = [[0, 1], [1, 0]]
    t = jordan_family([0, 0], cross, [a1, a2])
    assert t == alpha(a1 + a2)  # half of two equal cross terms


def test_jordan_family_validation():
    rng = random.Random(69)
    a1, a2 = rand_skew(rng, 4), rand_skew(rng, 4)
    with pytest.raises(ValueError):
        jordan_family([1], [[0, 1], [2, 0]], [a1, a2])  # wrong coeff count
    with pytest.raises(ValueError):
        jordan_family([1, 1], [[0, 1], [2, 0]], [a1, a2])  # asymmetric cross


def test_jordan_family_validates_matrices_of_weight_zero():
    with pytest.raises(ValueError, match="not skew-symmetric"):
        jordan_family([0], [[0]], [LinearMap.identity(2)])
    rng = random.Random(71)
    with pytest.raises(ValueError, match="matrix dimension 3 != 4"):
        jordan_family([1, 0], [[0, 0], [0, 0]], [rand_skew(rng, 4), rand_skew(rng, 3)])


@pytest.mark.parametrize("cross", [0, 1])
def test_jordan_family_checks_every_matrix_before_forming_a_cross_sum(cross):
    # a nonzero cross coefficient must not reach skews[0] + skews[1] first
    rng = random.Random(72)
    with pytest.raises(ValueError, match=r"^matrix dimension 3 != 2$"):
        jordan_family([1, 1], [[0, cross], [cross, 0]], [rand_skew(rng, 2), rand_skew(rng, 3)])


# ----------------------------------------------------------- nilpotent examples

def _f_rows(p, q):
    return Metric.standard(p, q).rows


def _nilpotent_under_f(mat: DenseTensor, p: int, q: int) -> bool:
    f = LinearMap(_f_rows(p, q))
    mf = _as_map_rows(mat) @ f
    return (mf @ mf).is_zero


def test_nilpotent_sym_example_11():
    s = nilpotent_sym_example(1, 1)
    assert s == _mat([[1, 1], [1, 1]])
    sf = _as_map_rows(s) @ LinearMap(_f_rows(1, 1))
    assert sf == LinearMap([[1, -1], [1, -1]])
    assert (sf @ sf).is_zero


@pytest.mark.parametrize("p,q", [(2, 1), (1, 2), (3, 2), (2, 3)])
def test_nilpotent_sym_example_padded(p, q):
    s = nilpotent_sym_example(p, q)
    assert not s.is_zero
    assert s == s.transpose()
    assert _nilpotent_under_f(s, p, q)


def test_nilpotent_sym_rejects_definite():
    with pytest.raises(SignatureError):
        nilpotent_sym_example(2, 0)
    with pytest.raises(SignatureError):
        nilpotent_sym_example(0, 2)


def test_nilpotent_skew_example_22():
    a = nilpotent_skew_example(2, 2)
    assert a == _mat([[0, 1, 0, 1], [-1, 0, -1, 0],
                      [0, 1, 0, 1], [-1, 0, -1, 0]])
    assert _nilpotent_under_f(a, 2, 2)


@pytest.mark.parametrize("p,q", [(3, 2), (2, 3), (3, 3)])
def test_nilpotent_skew_example_padded(p, q):
    a = nilpotent_skew_example(p, q)
    assert not a.is_zero
    assert a == -a.transpose()
    assert _nilpotent_under_f(a, p, q)


@pytest.mark.parametrize("p,q", [(1, 1), (1, 3), (3, 1), (0, 4)])
def test_nilpotent_skew_rejects_lorentzian(p, q):
    with pytest.raises(SignatureError):
        nilpotent_skew_example(p, q)


def test_nonzero_sym_or_skew_never_nilpotent_euclidean():
    # without the F factor, M^2 = 0 forces M = 0 (trace of M M^T argument)
    rng = random.Random(70)
    for m in (2, 3, 4, 5):
        for _ in range(5):
            s = rand_symmetric(rng, m)
            if not s.is_zero:
                ms = _as_map_rows(s)
                assert not (ms @ ms).is_zero
            a = rand_skew(rng, m)
            if not a.is_zero:
                ma = _as_map_rows(a)
                assert not (ma @ ma).is_zero


# ------------------------------------------------------------------- sampling

def test_sample_unit_vectors_exact_and_deterministic():
    for g, sign in ((Metric.standard(4, 0), 1), (Metric.standard(2, 2), 1),
                    (Metric.standard(2, 2), -1), (Metric.standard(1, 3), -1)):
        xs = sample_unit_vectors(g, sign, 12, seed=5)
        assert len(xs) == 12
        assert len(set(xs)) == 12
        assert all(g.inner(x, x) == sign for x in xs)
        assert xs == sample_unit_vectors(g, sign, 12, seed=5)
        assert xs != sample_unit_vectors(g, sign, 12, seed=6)


def test_sample_unit_vectors_guard_refuses_an_off_sphere_anchor(monkeypatch):
    """Every drawn line through an anchor off the sphere meets the quadric
    g(x,x) == g(anchor, anchor) != sign, so the integer guard must fire."""
    monkeypatch.setattr(osserman_module, "_find_anchor",
                        lambda g, sign: (Fraction(2), Fraction(0), Fraction(0)))
    with pytest.raises(RuntimeError, match="off-sphere point"):
        sample_unit_vectors(Metric.standard(3, 0), 1, 4, seed=1)


def test_sample_unit_vectors_custom_metric():
    # non-standard metrics: the anchor comes from a search over small
    # integer vectors, scaled onto the sphere
    g = Metric([[4, 0], [0, -1]])
    for sign in (1, -1):
        xs = sample_unit_vectors(g, sign, 8, seed=2)
        assert len(xs) == 8
        assert all(g.inner(x, x) == sign for x in xs)
    skewed = Metric([[2, 1], [1, -3]])
    xs = sample_unit_vectors(skewed, 1, 8, seed=2)
    assert all(skewed.inner(x, x) == 1 for x in xs)
    # 2x^2 + 2xy - 3y^2 = -1 has NO rational solutions (local obstruction
    # at 7: (2x+y)^2 - 7y^2 = -2 needs -2 to be a square mod 7), so the
    # honest outcome is an error even though the real quadric is nonempty
    with pytest.raises(SignatureError, match="rational"):
        sample_unit_vectors(skewed, -1, 8, seed=2)


def _scaled_identity(k: int, n: int) -> Metric:
    return Metric([[k * (i == j) for j in range(n)] for i in range(n)])


def test_sample_unit_vectors_anchor_of_scaled_metrics():
    # no diagonal entry equals the sign, and the first sphere points have
    # coordinates 1/2 or 2.  Run in a fresh process, so a search that takes
    # tens of seconds fails here by timeout.
    block = [[0] * 8 for _ in range(8)]
    block[0][:2], block[1][:2] = [2, 1], [1, -3]
    for i in range(2, 8):
        block[i][i] = 5
    half = Fraction(1, 2)
    cases = [(_scaled_identity(2, 4), 1, (half, half, 0, 0)),
             (_scaled_identity(2, 6), 1, (half, half) + (0,) * 4),
             (_scaled_identity(2, 8), 1, (half, half) + (0,) * 6),
             (Metric(block), -1, (1, 2, 1) + (0,) * 5),
             (Metric([[0, 1], [1, 0]]), 1, (1, half))]
    results = isolated(sample_unit_vectors, [(g, sign, 4, 1) for g, sign, _ in cases],
                       timeout=30)
    for (g, sign, anchor), xs in zip(cases, results):
        assert xs[0] == anchor
        assert len(set(xs)) == 4 and all(g.inner(x, x) == sign for x in xs)


def test_sample_unit_vectors_exhausted_search_is_bounded():
    # 10007 * (sum of at most 8 squares of |v| <= 4) is never a square, so
    # every candidate is tried before the documented failure
    with pytest.raises(SignatureError, match="rational"):
        isolated(sample_unit_vectors, [(_scaled_identity(10007, 8), 1, 2)], timeout=30)


def test_sample_unit_vectors_always_meets_the_count():
    # the first draw range holds only 28 lines through the anchor on R^2, so
    # the range must widen.  Run in a fresh process, so a sampler that runs
    # out of directions fails here by timeout instead of stalling the suite.
    cases = [((2, 0), 1, 200), ((3, 0), 1, 200), ((1, 1), -1, 200),
             ((1, 0), 1, 5), ((0, 1), -1, 5), ((2, 0), 1, 0)]
    results = isolated(sample_unit_vectors,
                       [(Metric.standard(*pq), sign, count) for pq, sign, count in cases],
                       timeout=30)
    for (pq, sign, count), xs in zip(cases, results):
        g = Metric.standard(*pq)
        assert len(xs) == len(set(xs)) == (2 if g.dim == 1 else count)
        assert all(g.inner(x, x) == sign for x in xs)
    g = Metric.standard(3, 0)
    with pytest.raises(ValueError, match="count must be >= 1, got 0"):
        osserman_spectrum_sample(gamma(g.tensor()), g, 0, 1)


def test_sample_unit_vectors_empty_sphere():
    with pytest.raises(SignatureError):
        sample_unit_vectors(Metric.standard(3, 0), -1, 5)
    with pytest.raises(SignatureError):
        sample_unit_vectors(Metric.standard(0, 3), 1, 5)


def test_sample_vectors_deterministic():
    xs = sample_vectors(3, 10, seed=1)
    assert xs == sample_vectors(3, 10, seed=1)
    assert all(any(v for v in x) for x in xs)


@pytest.mark.parametrize("dim", [0, -1])
def test_sample_vectors_refuses_fewer_than_one_coordinate(dim):
    # with no coordinates every draw is the zero vector, which is never kept.
    # Run in a fresh process, so a loop that never ends fails here by timeout.
    with pytest.raises(ValueError, match="bad shape"):
        isolated(sample_vectors, [(dim, 1)], timeout=20)


# ------------------------------------------------------------------- spectra

def test_spectrum_of_zero_tensor():
    g = Metric.standard(2, 1)
    report = osserman_spectrum_sample(DenseTensor.zeros(4, 3), g, 6, 1, seed=0)
    assert report.constant
    assert dict(report.roots[0]) == {Fraction(0): 3}


def test_spectrum_requires_curvature():
    g = Metric.standard(2, 0)
    not_curv = DenseTensor.from_entries(4, 2, {(0, 0, 0, 0): 1})
    with pytest.raises(NotACurvatureTensor):
        osserman_spectrum_sample(not_curv, g, 4, 1)


def test_spectrum_refusal_names_the_violated_symmetry_like_decompose():
    g = Metric.standard(2, 0)
    not_curv = DenseTensor.from_entries(4, 2, {(0, 0, 0, 0): 1})
    with pytest.raises(NotACurvatureTensor) as sampled:
        osserman_spectrum_sample(not_curv, g, 4, 1)
    with pytest.raises(NotACurvatureTensor) as decomposed:
        decompose_pure(not_curv, "alpha")
    assert str(sampled.value) == str(decomposed.value)
    assert str(sampled.value).endswith(": antisymmetry in the first index pair")


def test_spectrum_checks_the_dimension_before_the_curvature(monkeypatch):
    calls = []
    original = curvature_module.check_curvature

    def counting(tensor):
        calls.append(tensor)
        return original(tensor)

    monkeypatch.setattr(curvature_module, "check_curvature", counting)
    not_curv = DenseTensor.from_entries(4, 2, {(0, 0, 0, 0): 1})
    for tensor, g in ((gamma(LinearMap.identity(3)), Metric.standard(2, 0)),
                      (not_curv, Metric.standard(3, 0))):
        with pytest.raises(ValueError, match="tensor dimension") as refused:
            osserman_spectrum_sample(tensor, g, 4, 1)
        assert type(refused.value) is ValueError
    assert calls == []


def test_nilpotent_gamma_tensor_vanishes_lorentzian():
    # Lorentzian rigidity in its strongest form: every admissible S is rank 1
    # and gamma annihilates rank-1 matrices, so the tensor itself is zero
    s = nilpotent_sym_example(1, 1)
    assert not s.is_zero
    t = gamma(s)
    assert t.is_zero
    g = Metric.standard(1, 1)
    report = osserman_spectrum_sample(t, g, 8, 1, seed=3)
    assert report.constant
    for roots in report.roots:
        assert dict(roots) == {Fraction(0): 2}


def test_rank_two_nilpotent_gamma_is_nonzero():
    # min(p,q) >= 2 admits rank-2 symmetric S with (S F)^2 == 0, and those
    # give genuinely nonzero curvature tensors with nilpotent Jacobi operators
    m, p = 4, 2
    u = [Fraction(0)] * m
    v = [Fraction(0)] * m
    u[0] = u[p] = Fraction(1)
    v[1] = v[p + 1] = Fraction(1)
    s = DenseTensor.from_function(
        2, m, lambda x: u[x[0]] * u[x[1]] + v[x[0]] * v[x[1]])
    g = Metric.standard(2, 2)
    sf = _as_map_rows(s) @ LinearMap(g.rows)
    assert (sf @ sf).is_zero
    t = gamma(s)
    assert not t.is_zero
    assert nilpotency_check(t, g, 20, seed=4)
    report = osserman_spectrum_sample(t, g, 6, 1, seed=4)
    assert report.constant
    for roots in report.roots:
        assert dict(roots) == {Fraction(0): 4}


def test_non_rational_spectrum_is_flagged():
    # a generic gamma(S) is not Osserman; its quadratic factor is irrational
    # and the report degrades to characteristic-polynomial comparison
    g = Metric.standard(3, 0)
    s = _mat([[1, 1, 0], [1, 2, 1], [0, 1, 3]])
    report = osserman_spectrum_sample(gamma(s), g, 4, 1, seed=0)
    assert not report.all_rational
    assert not report.constant
    assert dict(report.roots[0]) == {Fraction(0): 1}
    assert report.remainders[0] == (1, Fraction(-4, 3), Fraction(2, 9))
    assert "characteristic-polynomial" in report.to_json_dict()["note"]


# ---------------------------------------------------------- nilpotency checks

def test_nilpotency_of_builtin_examples():
    # the skew-built tensors are nonzero; the symmetric-block ones vanish
    # outright (rank-1 S), which makes their nilpotency trivial but true
    cases = [
        (gamma(nilpotent_sym_example(1, 1)), Metric.standard(1, 1), True),
        (gamma(nilpotent_sym_example(2, 1)), Metric.standard(2, 1), True),
        (alpha(nilpotent_skew_example(2, 2)), Metric.standard(2, 2), False),
        (alpha(nilpotent_skew_example(3, 2)), Metric.standard(3, 2), False),
    ]
    for tensor, g, expect_zero in cases:
        assert tensor.is_zero == expect_zero
        assert nilpotency_check(tensor, g, 20, seed=0)


def test_projection_is_not_nilpotent():
    g = Metric.standard(3, 0)
    t = gamma(g.tensor()).scale(3)
    assert not nilpotency_check(t, g, 10, seed=0)


# -------------------------------------------------------------- lorentz checks

def test_lorentz_2x2_skew_never_f_nilpotent():
    # (A F)^2 = a^2 Id for A = [[0, a], [-a, 0]], F = diag(1, -1)
    f = LinearMap([[1, 0], [0, -1]])
    a = LinearMap([[0, 3], [-3, 0]])
    af = a @ f
    assert af @ af == LinearMap.identity(2).scale(9)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_lorentz_checks_pass(q):
    report = lorentz_checks(q, trials=25, seed=0)
    assert report.ok and report.skew_trials == 25
    assert lorentz_checks(q, trials=0).ok
    assert "jacobi_samples" not in report.to_json_dict()
    assert report.skew_all_non_nilpotent
    assert report.jacobi_all_zero
    assert report.to_json_dict()["pass"]


def test_lorentz_checks_validation():
    with pytest.raises(ValueError):
        lorentz_checks(0, trials=5)
    # the seed is keyword-only: a third positional argument is refused, not read as a seed
    with pytest.raises(TypeError):
        lorentz_checks(2, 10, 20)


# ---------------------------------------------------------------- refusals

def _skew2():
    return LinearMap([[0, 1], [-1, 0]])


_REFUSALS = [
    pytest.param(lambda: Metric.standard(2, 0).raise_form(DenseTensor.zeros(4, 2)),
                 "order-2 tensor required, got order 4", id="raise_form of an order-4 form"),
    pytest.param(lambda: Metric.standard(2, 0).raise_form(DenseTensor.zeros(2, 3)),
                 "form dimension 3 != metric dimension 2", id="raise_form of another dimension"),
    pytest.param(lambda: Metric.standard(2, 0).lower_map(LinearMap.identity(3)),
                 "map dimension 3 != metric dimension 2", id="lower_map of another dimension"),
    pytest.param(lambda: jacobi_operator(DenseTensor.zeros(2, 2), Metric.standard(2, 0), [1, 0]),
                 "order-4 tensor required, got order 2", id="jacobi_operator of order 2"),
    pytest.param(lambda: rational_roots([]), "leading coefficient must be nonzero",
                 id="rational_roots of no coefficients"),
    pytest.param(lambda: rational_roots([0, 1]), "leading coefficient must be nonzero",
                 id="rational_roots with leading zero"),
    pytest.param(lambda: clifford_check([LinearMap.identity(3)], Metric.standard(4, 0)),
                 "map dimension 3 != metric dimension 4", id="clifford_check of a 3x3 map on R^4"),
    pytest.param(lambda: clifford_family(1, [1, 2], [quaternion_triple()[0]],
                                         Metric.standard(4, 0)),
                 "2 coefficients for 1 maps", id="clifford_family with two coefficients"),
    pytest.param(lambda: jordan_family([1], [[0, 1]], [_skew2()]),
                 "cross-coefficient matrix must be 1x1", id="jordan_family with a 1x2 cross"),
    pytest.param(lambda: jordan_family([], [], []), "need at least one skew matrix",
                 id="jordan_family with no matrices"),
    pytest.param(lambda: sample_unit_vectors(Metric.standard(2, 0), 0, 3),
                 "sign must be +1 or -1, got 0", id="sample_unit_vectors of sign 0"),
    # count 0 builds no Jacobi operator, so only the up-front check can refuse
    pytest.param(lambda: osserman_spectrum_sample(DenseTensor.zeros(4, 3),
                                                  Metric.standard(2, 0), 0, 1),
                 "tensor dimension 3 != metric dimension 2",
                 id="osserman_spectrum_sample of another dimension"),
    pytest.param(lambda: lorentz_checks(1, trials=-1), "trials must be >= 0, got -1",
                 id="lorentz_checks of negative trials"),
    # the samplers own the count rule and the two checks inherit it: a
    # negative count would sample nothing and pass a non-nilpotent tensor
    pytest.param(lambda: sample_vectors(3, -1), "count must be >= 0, got -1",
                 id="sample_vectors of a negative count"),
    # 3(x² + y²) == 1 has no rational point: the refusal comes before the anchor search
    pytest.param(lambda: sample_unit_vectors(Metric([[3, 0], [0, 3]]), 1, -1),
                 "count must be >= 0, got -1", id="sample_unit_vectors of a negative count"),
    pytest.param(lambda: nilpotency_check(rand_curvature(random.Random(3), 3),
                                          Metric.standard(3, 0), -5),
                 "count must be >= 0, got -5", id="nilpotency_check of a negative count"),
    pytest.param(lambda: osserman_spectrum_sample(gamma(Metric.standard(2, 0).tensor()),
                                                  Metric.standard(2, 0), -1, 1),
                 "count must be >= 0, got -1",
                 id="osserman_spectrum_sample of a negative count"),
    # no samples, no verdict: at count 0 both checks passed this non-Osserman,
    # non-nilpotent tensor, which fails at 3 and 5 samples
    pytest.param(lambda: nilpotency_check(rand_curvature(random.Random(3), 3),
                                          Metric.standard(3, 0), 0),
                 "count must be >= 1, got 0", id="nilpotency_check of no samples"),
    pytest.param(lambda: osserman_spectrum_sample(rand_curvature(random.Random(3), 3),
                                                  Metric.standard(3, 0), 0, 1),
                 "count must be >= 1, got 0", id="osserman_spectrum_sample of no samples"),
    pytest.param(lambda: nilpotency_check(DenseTensor.zeros(2, 2), Metric.standard(2, 0), 1),
                 "order-4 tensor matching the metric dimension required",
                 id="nilpotency_check of order 2"),
]


@pytest.mark.parametrize("call, fragment", _REFUSALS)
def test_refusals(call, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        call()

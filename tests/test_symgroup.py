"""Group-ring arithmetic: composition, convolution, star, linear solving."""

import itertools
import random
import re
import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from symcurv import (
    GroupRingElement,
    Permutation,
    canonical_elements,
    derivative_idempotent,
    enumerate_group,
    perm_compose,
    ring_product,
    solve_right_factor,
    star,
)
import symcurv.curvature as curvature_module
import symcurv.symgroup as symgroup_module
from symcurv._exact import row_reduce
from symcurv.symgroup import _block_product, _value_blocks
from symcurv.young import (
    Partition,
    curvature_tableau,
    partitions_of,
    standard_tableaux,
    young_symmetrizer,
)

from helpers import isolated, rand_ring_element


# ---------------------------------------------------------------- permutations

def test_compose_pointwise():
    # (1 2) then (1 3): 1 -> 3, 3 -> ... composition acts right-to-left
    p = Permutation.from_cycles(3, (1, 2))
    q = Permutation.from_cycles(3, (1, 3))
    result = perm_compose(p, q)
    assert result == Permutation.from_cycles(3, (1, 3, 2))
    assert result(1) == 3 and result(3) == 2 and result(2) == 1


def test_compose_identity_and_inverse():
    p = Permutation([3, 1, 4, 2])
    identity = Permutation.identity(4)
    assert identity * p == p
    assert p * identity == p
    assert p * p.inverse() == identity
    assert p.inverse() * p == identity


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        perm_compose(Permutation.identity(3), Permutation.identity(4))


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation([1, 1, 3])
    with pytest.raises(ValueError):
        Permutation([0, 1, 2])
    with pytest.raises(TypeError):
        Permutation.identity(3) * 2


# each of these used to truncate or parse to a valid permutation
@pytest.mark.parametrize("images", [[True, 2], [1.9, 2], [2.0, 1.0], ["2", "1"]],
                         ids=["bool", "float", "integral-float", "string"])
def test_permutation_refuses_non_integer_images(images):
    with pytest.raises(TypeError, match="permutation image must be an integer"):
        Permutation(images)


@pytest.mark.parametrize("cycle", [(True, 2), (1.0, 2), ("1", "2")],
                         ids=["bool", "float", "string"])
def test_from_cycles_refuses_non_integer_entries(cycle):
    with pytest.raises(TypeError, match="cycle entry must be an integer"):
        Permutation.from_cycles(3, cycle)


def test_sign():
    assert Permutation.identity(4).sign() == 1
    assert Permutation.from_cycles(4, (1, 2)).sign() == -1
    assert Permutation.from_cycles(4, (1, 2, 3)).sign() == 1
    assert Permutation.from_cycles(4, (1, 3), (2, 4)).sign() == 1


def test_enumerate_group():
    assert enumerate_group(1) == [Permutation([1])]
    assert len(enumerate_group(4)) == 24
    assert len(set(enumerate_group(4))) == 24
    assert [p.images for p in enumerate_group(3)] == [
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    assert sorted(reversed(enumerate_group(3))) == enumerate_group(3)  # one-line order
    with pytest.raises(ValueError, match="cap"):
        enumerate_group(9)
    with pytest.raises(ValueError, match="cap"):
        enumerate_group(5, cap=4)
    assert len(enumerate_group(5, cap=5)) == 120  # cap is overridable
    with pytest.raises(ValueError):
        enumerate_group(0)


# ----------------------------------------------------------------- ring basics

def test_identity_acts_trivially():
    rng = random.Random(1)
    a = rand_ring_element(rng, 4)
    one = GroupRingElement.one(4)
    assert ring_product(one, a) == a
    assert ring_product(a, one) == a


def test_zero_coefficients_never_stored():
    p = Permutation.identity(3)
    a = GroupRingElement(3, [(p, 1), (p, -1)])
    assert a.is_zero
    assert len(a) == 0


_T12 = Permutation.from_cycles(3, (1, 2))
_INTEGER = GroupRingElement(3, {Permutation([1, 2, 3]): 2, Permutation([2, 3, 1]): -3,
                                _T12: 6})
_RATIONAL = GroupRingElement(3, {Permutation([1, 2, 3]): "1/2",
                                 Permutation([3, 1, 2]): "2/3", _T12: "-5/6"})
_ID_MINUS_T, _ID_PLUS_T = (GroupRingElement(3, {Permutation([1, 2, 3]): 1, _T12: sign})
                           for sign in (-1, 1))


@pytest.mark.parametrize("result, expected", [
    (_INTEGER.scale("1/3").scale(3), _INTEGER),
    (_INTEGER + _INTEGER - _INTEGER, _INTEGER),
    (_RATIONAL - _RATIONAL + _INTEGER, _INTEGER),
    (0 * _INTEGER, GroupRingElement.zero(3)),
    (_ID_MINUS_T * _ID_PLUS_T, GroupRingElement.zero(3)),
    (2 * _RATIONAL, _RATIONAL.scale(2)),
    (Fraction(1, 2) * _INTEGER, _INTEGER.scale(Fraction(1, 2))),
    ("1/2" * _INTEGER, _INTEGER.scale("1/2")),
], ids=["scale-back", "add-sub", "cancel-rational", "zero-scalar", "cancelling-product",
        "int-times", "fraction-times", "string-times"])
def test_cancelled_denominators_give_the_integer_element(result, expected):
    # storage is in lowest terms, so equal values mean equal storage
    assert result == expected
    assert len(result) == len(expected)
    assert result.to_json_dict() == expected.to_json_dict()
    assert str(result) == str(expected)


def test_sum_and_difference_are_coefficientwise():
    rng = random.Random(21)
    for _ in range(5):
        a, b = rand_ring_element(rng, 3, terms=4), rand_ring_element(rng, 3, terms=4)
        for p in enumerate_group(3):
            assert (a + b).coefficient(p) == a.coefficient(p) + b.coefficient(p)
            assert (a - b).coefficient(p) == a.coefficient(p) - b.coefficient(p)


def test_ring_product_degree_mismatch():
    with pytest.raises(ValueError):
        ring_product(GroupRingElement.one(3), GroupRingElement.one(4))


def test_scalar_multiplication():
    rng = random.Random(2)
    a = rand_ring_element(rng, 4)
    assert 2 * a == a + a
    assert a * Fraction(1, 2) + a * Fraction(1, 2) == a
    assert (0 * a).is_zero
    assert -a == a.scale(-1) and (a + -a).is_zero
    for foreign in (lambda: a + 1, lambda: a - "1", lambda: a * 0.5):
        with pytest.raises(TypeError):
            foreign()
    assert repr(a) == f"GroupRingElement(degree=4, support={len(a)})"


def test_star_involution_and_transpositions():
    rng = random.Random(3)
    a = rand_ring_element(rng, 4)
    assert star(star(a)) == a
    swap = GroupRingElement(2, [(Permutation.identity(2), 1),
                                (Permutation([2, 1]), 1)])
    assert star(swap) == swap
    three_cycle = Permutation.from_cycles(3, (1, 2, 3))
    single = GroupRingElement.from_permutation(three_cycle, Fraction(5, 7))
    assert star(single) == GroupRingElement.from_permutation(
        three_cycle.inverse(), Fraction(5, 7))


def test_symmetrizer_square_coefficient():
    y = young_symmetrizer(curvature_tableau())
    ystar = star(y)
    assert ring_product(ystar, ystar) == ystar.scale(12)


def test_gamma_generator_is_nilpotent():
    gg = canonical_elements().gamma_generator
    assert ring_product(gg, gg).is_zero


# ------------------------------------------------------------ hypothesis props

_coeffs = st.builds(Fraction,
                    st.integers(min_value=-6, max_value=6),
                    st.integers(min_value=1, max_value=4))


def _elements(degree: int):
    perms = st.permutations(list(range(1, degree + 1)))
    term = st.tuples(st.builds(Permutation, perms), _coeffs)
    return st.builds(GroupRingElement, st.just(degree),
                     st.lists(term, min_size=0, max_size=3))


@settings(max_examples=40, deadline=None)
@given(_elements(4), _elements(4), _elements(4))
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(_elements(4), _elements(4))
def test_star_antihomomorphism(a, b):
    assert star(a * b) == star(b) * star(a)


@settings(max_examples=30, deadline=None)
@given(_elements(3), _elements(3), _elements(3))
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


def _reference_product(a, b):
    """The module docstring's convolution, summed as Fractions keyed by
    one-line image tuples."""
    sums = {}
    for p, cp in a.items():
        for q, cq in b.items():
            s = tuple(p.images[i - 1] for i in q.images)
            sums[s] = sums.get(s, Fraction(0)) + cp * cq
    return GroupRingElement(a.degree, [(Permutation(s), c) for s, c in sums.items()])


_mixed_coeffs = st.builds(Fraction,
                          st.integers(min_value=-30, max_value=30),
                          st.sampled_from([1, 2, 3, 4, 5, 6, 7, 12, 35]))


def _block_sum(degree, values, sign):
    """The sum of the permutations of ``values``, each times its sign when
    ``sign`` is -1: left multiplication by it gives any element the block
    symmetry ``(values, sign)``."""
    terms = []
    for arrangement in itertools.permutations(values):
        images = list(range(1, degree + 1))
        for v, w in zip(sorted(values), arrangement):
            images[v - 1] = w
        p = Permutation(images)
        terms.append((p, p.sign() if sign < 0 else 1))
    return GroupRingElement(degree, terms)


def _block_route(a, b):
    """``a * b`` through the block-symmetric kernel whatever the operand
    sizes, with the blocks it found on ``a``; the product is ``None`` when
    it found none."""
    blocks = _value_blocks(a._ints, a.degree) if a else []
    if not blocks:
        return None, blocks
    ints = _block_product(a._ints, b._ints.items(), blocks)
    return GroupRingElement._unchecked(a.degree, ints, a._den * b._den), blocks


@st.composite
def _factor_pairs(draw):
    """Two elements of one degree in 1..5.  In some draws (flagged) they are
    ``x * (1 + t)`` and ``(1 - t) * y`` for a transposition ``t``, whose
    product cancels to 0; in others (flagged) the left one is ``B * x``
    for a block sum ``B`` of sign 1 or -1 (see ``_block_sum``)."""
    degree = draw(st.integers(min_value=1, max_value=5))
    term = st.tuples(st.permutations(list(range(1, degree + 1))), _mixed_coeffs)
    element = st.builds(GroupRingElement, st.just(degree),
                        st.lists(term, min_size=0, max_size=8))
    a, b = draw(element), draw(element)
    kind = draw(st.sampled_from(["plain", "cancels", "planted"])) if degree > 1 else "plain"
    if kind == "cancels":
        i, j = draw(st.lists(st.integers(1, degree), min_size=2, max_size=2,
                             unique=True))
        t = Permutation.from_cycles(degree, (i, j))
        one = Permutation.identity(degree)
        a = _reference_product(a, GroupRingElement(degree, [(one, 1), (t, 1)]))
        b = _reference_product(GroupRingElement(degree, [(one, 1), (t, -1)]), b)
    elif kind == "planted":
        values = draw(st.lists(st.integers(1, degree), min_size=2,
                               max_size=min(degree, 3), unique=True))
        a = _reference_product(_block_sum(degree, values, draw(st.sampled_from([1, -1]))), a)
    return a, b, kind


@settings(max_examples=150, deadline=None)
@given(_factor_pairs())
def test_product_matches_reference_convolution(case):
    a, b, kind = case
    product = a * b
    reference = _reference_product(a, b)
    assert product == reference
    assert product.is_zero or kind != "cancels"
    assert all(c != 0 for _, c in product.items())
    assert star(product) == star(b) * star(a)
    factored, _ = _block_route(a, b)
    assert factored is None or factored == reference
    assert factored is not None or kind != "planted" or a.is_zero


# ---------------------------------------------- block-symmetric left factors

def _tableau_symmetrizers(r):
    return [young_symmetrizer(t) for shape in partitions_of(r) for t in standard_tableaux(shape)]


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_block_route_matches_reference_on_every_symmetrizer(r):
    """``y*y``, ``y* * y*``, ``y * y*`` and ``y* * y``.  From degree 2 on
    every left factor has blocks (the rows of ``y`` give it blocks of sign 1,
    the columns of ``y*`` blocks of sign -1, and a tableau of one row or one
    column gives both a block), so the kernel runs on every product."""
    for y in _tableau_symmetrizers(r):
        for a, b in ((y, y), (star(y), star(y)), (y, star(y)), (star(y), y)):
            reference = _reference_product(a, b)
            factored, blocks = _block_route(a, b)
            assert a * b == reference
            assert factored == reference or (r == 1 and factored is None)
            assert bool(blocks) == (r > 1)


@pytest.mark.parametrize("u", [0, 1, 2])
def test_block_route_matches_reference_on_idempotents(u):
    e = derivative_idempotent(u)
    for a in (e, star(e)):
        factored, blocks = _block_route(a, a)
        assert a * a == factored == _reference_product(a, a) == a
        assert blocks


def test_star_of_degree_7_idempotent_is_idempotent():
    """``star(e)`` has the columns (1 2), (3 4) as blocks of sign -1."""
    e = star(derivative_idempotent(3))
    assert ([1, 2], -1) in _value_blocks(e._ints, 7)
    assert e * e == e


def _idempotent_square_is_itself(u):
    e = derivative_idempotent(u)
    return e * e == e


def test_degree_8_idempotent_is_idempotent():
    """5760 terms, the degree cap: the block route squares it in well under
    a second, where forming all 5760**2 term pairs took about 20 s."""
    assert isolated(_idempotent_square_is_itself, [(4,)], timeout=60) == [True]


def _planted(rng, degree, numerator_bits=4):
    """``B_plus * B_minus * z`` for a random ``z`` of five terms and two
    disjoint random blocks, one of each sign; and the two blocks."""
    values = rng.sample(range(1, degree + 1), 4)
    plus, minus = sorted(values[:2]), sorted(values[2:])
    z = GroupRingElement(degree, [
        (Permutation(rng.sample(range(1, degree + 1), degree)),
         Fraction(rng.randint(1, 2 ** numerator_bits) * rng.choice((-1, 1)), rng.randint(1, 9)))
        for _ in range(5)])
    a = _reference_product(_reference_product(_block_sum(degree, plus, 1),
                                              _block_sum(degree, minus, -1)), z)
    return a, plus, minus


def _contains(blocks, values, sign):
    return any(set(values) <= set(found) and s == sign for found, s in blocks)


@pytest.mark.parametrize("degree", [5, 6])
def test_block_route_finds_planted_blocks_of_both_signs(degree):
    rng = random.Random(degree)
    for _ in range(4):
        a, plus, minus = _planted(rng, degree)
        b = rand_ring_element(rng, degree, terms=degree ** 2 + 5)
        reference = _reference_product(a, b)
        factored, blocks = _block_route(a, b)
        assert _contains(blocks, plus, 1) and _contains(blocks, minus, -1)
        assert factored == reference
        assert a * b == reference


@pytest.mark.parametrize("degree", [5, 6])
def test_block_route_rejects_a_near_miss(degree):
    """One coefficient changed breaks the symmetry of every planted block:
    each transposition moves the changed term onto an unchanged one."""
    rng = random.Random(10 + degree)
    for _ in range(4):
        a, plus, minus = _planted(rng, degree)
        p, c = a.items()[rng.randrange(len(a))]
        near = a + GroupRingElement.from_permutation(p, c / 3)
        b = rand_ring_element(rng, degree, terms=degree ** 2 + 5)
        factored, blocks = _block_route(near, b)
        for values in (plus, minus):
            assert not any(set(values) <= set(found) for found, _ in blocks)
        assert factored is None or factored == _reference_product(near, b)
        assert near * b == _reference_product(near, b)


@pytest.mark.parametrize("sign", [1, -1])
def test_block_route_with_a_lone_transposition(sign):
    """``(1 + sign*(1 2)) * z``, z of 60 random terms on S6: one block of two
    values (|H| = 2) and many cosets, times a 40-term right factor."""
    rng = random.Random(300 + sign)

    def terms(count):
        return GroupRingElement(6, [
            (p, Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 4)))
            for p in rng.sample(enumerate_group(6), count)])

    a = _reference_product(_block_sum(6, [1, 2], sign), terms(60))
    b = terms(40)  # more than 6**2 terms, so ``a * b`` takes the block route too
    reference = _reference_product(a, b)
    factored, blocks = _block_route(a, b)
    assert ([1, 2], sign) in blocks
    assert factored == reference
    assert a * b == reference


def test_block_route_on_wide_numerators_small_degrees_and_zero():
    rng = random.Random(200)
    a, plus, minus = _planted(rng, 5, numerator_bits=200)
    assert max(abs(c.numerator) for _, c in a.items()).bit_length() >= 200
    b = rand_ring_element(rng, 5, terms=30)
    assert _block_route(a, b)[0] == a * b == _reference_product(a, b)
    zero = GroupRingElement.zero(5)
    assert _block_route(a, zero)[0] == a * zero == zero
    assert zero * a == zero and _block_route(zero, a) == (None, [])
    one = GroupRingElement.one(1)
    assert _block_route(one.scale(3), one) == (None, [])
    for sign in (1, -1):
        pair = _block_sum(2, [1, 2], sign).scale(Fraction(2 ** 200 + 1, 3))
        b = rand_ring_element(rng, 2, terms=2)
        factored, blocks = _block_route(pair, b)
        assert blocks == [([1, 2], sign)]
        assert factored == pair * b == _reference_product(pair, b)


# ----------------------------------------------------------------- linear solve

def test_solve_identity_left_factor():
    rng = random.Random(4)
    c = rand_ring_element(rng, 3)
    x = solve_right_factor(GroupRingElement.one(3), c)
    assert x == c


def test_solve_recovers_generator_preimage():
    elements = canonical_elements()
    x = solve_right_factor(elements.gamma_generator, elements.symmetrizer_star)
    assert x is not None
    assert elements.gamma_generator * x == elements.symmetrizer_star


def test_solve_unsolvable_returns_none():
    zero = GroupRingElement.zero(4)
    ystar = canonical_elements().symmetrizer_star
    assert solve_right_factor(zero, ystar) is None


def test_solve_random_consistency():
    rng = random.Random(5)
    for _ in range(5):
        a = rand_ring_element(rng, 3)
        x = rand_ring_element(rng, 3)
        c = a * x
        found = solve_right_factor(a, c)
        assert found is not None
        assert a * found == c


def _left_multiplication(a, r):
    """Matrix of x -> a*x on the basis of one-line tuples, built here from
    pointwise composition: entry (s, q) is a(s q^-1)."""
    group = list(itertools.permutations(range(1, r + 1)))
    coeffs = {p.images: c for p, c in a.items()}
    rows = []
    for s in group:
        row = []
        for q in group:
            q_inv = [0] * r
            for i, image in enumerate(q):
                q_inv[image - 1] = i + 1
            row.append(coeffs.get(tuple(s[q_inv[i] - 1] for i in range(r)), 0))
        rows.append(row)
    return group, rows


def _rational(sympy, value):
    value = Fraction(value)
    return sympy.Rational(value.numerator, value.denominator)


def _rref_solution(sympy, a, c, r):
    """The reduced-row-echelon reading of ``[L | c]`` by sympy, free columns
    set to 0, as ``{images: Fraction}``; ``None`` when ``c`` is a pivot
    column (the system is inconsistent)."""
    group, rows = _left_multiplication(a, r)
    augmented = sympy.Matrix([
        [_rational(sympy, v) for v in row] + [_rational(sympy, c.coefficient(Permutation(s)))]
        for s, row in zip(group, rows)])
    reduced, pivots = augmented.rref()
    n = len(group)
    if n in pivots:
        return None
    return {group[col]: Fraction(int(reduced[i, n].p), int(reduced[i, n].q))
            for i, col in enumerate(pivots) if reduced[i, n]}


def test_solve_agrees_with_sympy():
    """The solution itself, not only ``a * x == c``: reduced row echelon
    form is unique, so the kernel's reading must equal sympy's."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(6)
    solvable_seen = unsolvable_seen = 0
    cases = itertools.product((1, 2, 3, 4), ("symmetrizer", "random"), (True, False), (0, 1))
    for r, kind, in_image, _ in cases:
        if kind == "symmetrizer":
            shape = rng.choice(partitions_of(r))
            a = young_symmetrizer(rng.choice(standard_tableaux(shape)))
            a = a.scale(Fraction(rng.choice((-3, -1, 2, 5)), rng.choice((1, 2, 3, 7))))
        else:
            a = rand_ring_element(rng, r, terms=rng.randint(1, 3))
        c = a * rand_ring_element(rng, r) if in_image else rand_ring_element(rng, r)
        found = solve_right_factor(a, c)
        expected = _rref_solution(sympy, a, c, r)
        if expected is None:
            assert found is None
            unsolvable_seen += 1
        else:
            assert found is not None
            assert {p.images: v for p, v in found.items()} == expected
            assert a * found == c
            solvable_seen += 1
    assert solvable_seen and unsolvable_seen


def _full_width_solution(left_multiplication, c):
    """The reading of the whole ``[L | c]``, for ``(group, L)`` built by
    ``_left_multiplication`` and reduced by ``row_reduce`` over all r!
    columns at once, free columns set to 0; ``None`` when the rows past the
    rank are not 0 in ``c``."""
    group, rows = left_multiplication
    rhs = [c.coefficient(Permutation(s)) for s in group]
    den_a = lcm(*(Fraction(v).denominator for row in rows for v in row))
    den_c = lcm(*(v.denominator for v in rhs))
    matrix = [[int(v * den_a) for v in row] + [int(v * den_c)] for row, v in zip(rows, rhs)]
    n = len(group)
    pivots = row_reduce(matrix, n)
    if any(row[n] for row in matrix[len(pivots):]):
        return None
    return GroupRingElement(c.degree, [
        (Permutation(group[col]), Fraction(matrix[i][n] * den_a, matrix[i][col] * den_c))
        for i, col in enumerate(pivots)])


def test_solve_matches_full_width_reduction(monkeypatch):
    """At r = 5 the windowed solve returns the whole element that reducing
    the full 120 x 121 matrix gives, ``None`` included: symmetrizers, their
    products with random elements, random elements with enough terms that
    the pivots run past the first windows, ``c`` outside the image, and
    zero ``a``.  Every window width, 2 up to the whole group, is reached."""
    widths = set()

    def spy(rows, ncols):
        widths.add(ncols)
        return row_reduce(rows, ncols)

    monkeypatch.setattr(symgroup_module, "row_reduce", spy)
    rng = random.Random(36)
    factors = [young_symmetrizer(rng.choice(standard_tableaux(shape)))
               .scale(rng.choice((1, -2, "3/5"))) for shape in partitions_of(5)]
    factors += [y * rand_ring_element(rng, 5, terms=2) for y in factors[1:-1]]
    factors += [rand_ring_element(rng, 5, terms=terms) for terms in (1, 2, 4)]
    factors.append(GroupRingElement.zero(5))
    outcomes = set()
    for a in factors:
        left_multiplication = _left_multiplication(a, 5)
        for c in (a * rand_ring_element(rng, 5, terms=3), rand_ring_element(rng, 5, terms=2),
                  GroupRingElement.zero(5)):
            found = solve_right_factor(a, c)
            assert found == _full_width_solution(left_multiplication, c)
            assert found is None or a * found == c
            outcomes.add(found is None)
    assert outcomes == {True, False}
    assert widths == {2, 4, 8, 16, 32, 64, 120}


def test_solve_cost_follows_the_window_not_the_group(monkeypatch):
    """An r = 7 symmetrizer solve, where the whole matrix would be
    5040 x 5041: a ``c`` in the span of the first 24 columns (``x0`` fixes
    1, 2 and 3) is solved within the 32-column window, well under a second.
    Where the answer needs later pivots the window grows further (a random
    ``x0`` needs 512 columns for this tableau).  The cap still refuses
    r = 7 before any elimination."""
    widths = []

    def spy(rows, ncols):
        widths.append(ncols)
        return row_reduce(rows, ncols)

    monkeypatch.setattr(symgroup_module, "row_reduce", spy)
    rng = random.Random(7)
    y = young_symmetrizer(standard_tableaux(Partition((4, 2, 1)))[0])
    x0 = GroupRingElement(7, [((1, 2, 3, *rng.sample(range(4, 8), 4)), rng.randint(1, 9))
                              for _ in range(3)])
    c = y * x0
    start = time.perf_counter()
    x = solve_right_factor(y, c)
    elapsed = time.perf_counter() - start
    assert y * x == c
    assert max(widths) <= 32 and elapsed < 1.0
    widths.clear()
    with pytest.raises(ValueError, match=re.escape("degree 7 exceeds the cap of 6")):
        solve_right_factor(y, c, cap=6)
    assert widths == []


def test_gamma_preimage_is_pinned():
    """``gamma_preimage`` feeds every pure-gamma decomposition, so its exact
    value is fixed, not just its product: the stated element is the one the
    solver finds, and the curvature layer runs no solve of its own."""
    e = canonical_elements()
    stated = GroupRingElement(4, [([1, 3, 2, 4], "-1/4")])
    assert e.gamma_preimage == stated == solve_right_factor(e.gamma_generator,
                                                             e.symmetrizer_star)
    assert e.gamma_preimage.to_json_dict() == {
        "r": 4, "terms": [{"perm": [1, 3, 2, 4], "coeff": "-1/4"}]}
    assert not hasattr(curvature_module, "solve_right_factor")


# ------------------------------------------------------------------- JSON form

def test_json_round_trip():
    a = GroupRingElement(4, [(Permutation([2, 1, 4, 3]), Fraction(1, 2)),
                             (Permutation.identity(4), -3)])
    payload = a.to_json_dict()
    assert payload["r"] == 4
    assert {"perm": [2, 1, 4, 3], "coeff": "1/2"} in payload["terms"]
    assert GroupRingElement.from_json_dict(payload) == a


@pytest.mark.parametrize("payload", [
    {"r": 2.9, "terms": []},
    {"r": "3", "terms": [{"perm": [1, 2, 3], "coeff": "1"}]},
    {"r": True, "terms": []},
], ids=["r-float", "r-string", "r-bool"])
def test_json_refuses_non_integer_degree(payload):
    with pytest.raises(TypeError, match="'r'"):
        GroupRingElement.from_json_dict(payload)


@pytest.mark.parametrize("terms", [{}, ""], ids=["dict", "string"])
def test_json_refuses_terms_that_are_not_a_list(terms):
    with pytest.raises(TypeError, match="'terms'"):
        GroupRingElement.from_json_dict({"r": 3, "terms": terms})


@pytest.mark.parametrize("perm", [[True, 2, 3], [1, 2.7, 3], [1.0, 2, 3], "123"],
                         ids=["bool", "float", "integral-float", "string"])
def test_json_refuses_perm_that_is_not_a_list_of_ints(perm):
    with pytest.raises(TypeError, match="'perm'"):
        GroupRingElement.from_json_dict({"r": 3, "terms": [{"perm": perm, "coeff": "1"}]})


@pytest.mark.parametrize("degree,terms", [(2.9, []), (True, [((1,), 1)])],
                         ids=["float", "bool"])
def test_constructor_refuses_non_integer_degree(degree, terms):
    # int(degree) used to truncate 2.9 to 2 and read True as 1
    with pytest.raises(TypeError, match="degree must be an integer"):
        GroupRingElement(degree, terms)


def test_json_refuses_boolean_coefficient():
    with pytest.raises(TypeError, match="bool"):
        GroupRingElement.from_json_dict({"r": 2, "terms": [{"perm": [2, 1], "coeff": True}]})


# ------------------------------------------------------------------ refusals

_REFUSALS = [
    pytest.param(lambda: Permutation.from_cycles(3, (1, 4)), "bad cycle entry 4 for degree 3",
                 id="cycle entry past the degree"),
    pytest.param(lambda: Permutation([2, 1, 3])(0), "argument 0 outside 1..3",
                 id="permutation applied to 0"),
    pytest.param(lambda: GroupRingElement(0), "degree must be >= 1, got 0",
                 id="element of degree 0"),
    pytest.param(lambda: GroupRingElement(4, [([2, 1, 3], 1)]),
                 "term degree 3 != element degree 4", id="degree-3 term in degree 4"),
    pytest.param(lambda: GroupRingElement.from_json_dict({"r": 0}), "'r' must be positive, got 0",
                 id="JSON of degree 0"),
    pytest.param(lambda: solve_right_factor(GroupRingElement.one(3), GroupRingElement.one(4)),
                 "degree mismatch: 3 vs 4", id="solve across degrees 3 and 4"),
]


@pytest.mark.parametrize("call, fragment", _REFUSALS)
def test_refusals(call, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        call()

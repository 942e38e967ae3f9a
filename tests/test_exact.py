"""The exact kernels: ``_exact.numerators``, ``_exact.reduced`` and the
integer Gauss-Jordan ``_exact.row_reduce`` against sympy."""

import math
import random
from fractions import Fraction

import pytest

from symcurv._exact import EXPONENT_CAP, exact, numerators, reduced, row_reduce


def test_numerators_over_the_least_common_denominator():
    rng = random.Random(17)
    for _ in range(200):
        values = [Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                  for _ in range(rng.randint(1, 6))]
        ints, den = numerators(values)
        assert all(isinstance(i, int) for i in ints)
        assert [Fraction(i, den) for i in ints] == values
        assert den == math.lcm(*(v.denominator for v in values))


def test_numerators_cases():
    assert numerators([Fraction(-1, 2), Fraction(3, 4)]) == ([-2, 3], 4)
    assert numerators([Fraction(-5, 6), Fraction(0), Fraction(2)]) == ([-5, 0, 12], 6)
    assert numerators([]) == ([], 1)


@pytest.mark.parametrize("ints,den,expected", [
    ((0, 0, 0), 6, ((0, 0, 0), 1)),  # all zero: the input itself, over 1
    ((), 4, ((), 1)),
    ((2, -4), 6, ([1, -2], 3)),
    ((6, 0), 6, ([1, 0], 1)),
    ((3, 5), 4, ((3, 5), 4)),  # lowest terms already: the input itself
])
def test_reduced_cases(ints, den, expected):
    result = reduced(ints, den)
    assert result == expected
    if expected[0] is ints:
        assert result[0] is ints


@pytest.mark.parametrize("value", [True, False, 0.5, 2.0])
def test_exact_refuses_bools_and_floats(value):
    with pytest.raises(TypeError, match="rejected"):
        exact(value)


@pytest.mark.parametrize("text", ["1e4301", "1e-4301", "-3.5E+4301", " 2e4_301 ",
                                  "1e300000000", "1e-999999999"])
def test_exact_refuses_exponents_past_the_cap(text):
    # Fraction would build 10**|exponent| first: seconds to minutes here
    with pytest.raises(ValueError, match="cap"):
        exact(text)


def test_exact_parses_exponents_up_to_the_cap():
    assert EXPONENT_CAP == 4300
    assert exact("1e4300") == 10 ** 4300
    assert exact("1e-4300") == Fraction(1, 10 ** 4300)
    assert exact("-2.5e-3") == Fraction(-1, 400)
    assert exact("-4/3") == Fraction(-4, 3)
    for text in ("1e", "e5", "1/2e3"):
        with pytest.raises(ValueError, match="Invalid literal"):
            exact(text)


def _random_matrix(rng: random.Random) -> tuple[list[list[int]], int]:
    """An integer matrix and the number of columns to eliminate; the
    columns past it form an augmented block.  Some columns are zero, some
    rows repeat or are multiples of others, and entries of both signs make
    negative pivots common."""
    nrows = rng.randint(1, 6)
    ncols = rng.randint(1, 7)
    extra = rng.choice((0, 0, 1, 3))
    rows = [[rng.randint(-4, 4) for _ in range(ncols + extra)] for _ in range(nrows)]
    for _ in range(rng.randint(0, 2)):
        col = rng.randrange(ncols)
        for row in rows:
            row[col] = 0
    if nrows > 1 and rng.random() < 0.5:
        src, dst = rng.sample(range(nrows), 2)
        rows[dst] = [rng.choice((1, -1, -2, 3)) * v for v in rows[src]]
    return rows, ncols


def _matrix_cases():
    rng = random.Random(91)
    cases = [_random_matrix(rng) for _ in range(200)]
    # a negative first pivot and an identity block, the metric-inverse shape
    cases.append(([[-2, 1, 1, 0], [1, -3, 0, 1]], 2))
    # all-zero input, and a zero row between nonzero ones
    cases.append(([[0, 0, 0], [0, 0, 0]], 3))
    cases.append(([[0, 2, -4], [0, 0, 0], [3, 1, 1]], 3))
    return cases


def test_row_reduce_matches_sympy_rref():
    sympy = pytest.importorskip("sympy")
    for original, ncols in _matrix_cases():
        rows = [list(row) for row in original]
        pivots = row_reduce(rows, ncols)
        assert all(isinstance(v, int) for row in rows for v in row)
        full = sympy.Matrix(original)
        left_rref, left_pivots = full[:, :ncols].rref()
        assert pivots == list(left_pivots)
        rank = len(pivots)
        for i in range(rank):
            pivot = rows[i][pivots[i]]
            for j in range(ncols):
                value = Fraction(rows[i][j], pivot)
                assert value == Fraction(int(left_rref[i, j].p), int(left_rref[i, j].q))
        assert all(not v for row in rows[rank:] for v in row[:ncols])
        # the same row space, so no row was lost or mis-updated, and the
        # augmented block went through the same row operations
        assert sympy.Matrix(rows).rref() == full.rref()
        if rank == len(rows):
            # full row rank: the augmented block's reading is sympy's too
            full_rref, _ = full.rref()
            for i in range(rank):
                pivot = rows[i][pivots[i]]
                for j in range(ncols, len(rows[i])):
                    value = Fraction(rows[i][j], pivot)
                    assert value == Fraction(int(full_rref[i, j].p), int(full_rref[i, j].q))


def test_row_reduce_divides_updated_rows_by_their_content():
    # col 0: 2*[4,2,2] - 4*[2,4,6] = [0,-12,-20] -> [0,-3,-5], and
    #        2*[6,6,10] - 6*[2,4,6] = [0,-12,-16] -> [0,-3,-4];
    # col 1: -3*[2,4,6] - 4*[0,-3,-5] = [-6,0,2] -> [-3,0,1], and
    #        -3*[0,-3,-4] + 3*[0,-3,-5] = [0,0,-3] -> [0,0,-1]
    rows = [[2, 4, 6], [4, 2, 2], [6, 6, 10]]
    assert row_reduce(rows, 2) == [0, 1]
    assert rows == [[-3, 0, 1], [0, -3, -5], [0, 0, -1]]

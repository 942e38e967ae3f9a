"""Deterministic random generators shared by the test modules, and a runner
that gives up on a call after a timeout."""

from __future__ import annotations

import multiprocessing
import random
from fractions import Fraction
from functools import cache
from math import factorial

from symcurv import (DenseTensor, GroupRingElement, LinearMap, Metric, Permutation,
                     alpha, clifford_family, gamma, nilpotent_skew_example,
                     quaternion_triple)


def isolated(func, calls, timeout: float = 60) -> list:
    """``[func(*args) for args in calls]``, computed in one fresh interpreter.

    A call that does not return fails the calling test with
    ``multiprocessing.TimeoutError`` after ``timeout`` seconds instead of
    stalling the suite.  ``func`` must be importable by name, and the
    arguments and results must pickle.
    """
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.starmap_async(func, calls).get(timeout)


def rand_fraction(rng: random.Random, lo: int = -5, hi: int = 5,
                  max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_symmetric(rng: random.Random, n: int) -> DenseTensor:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rand_fraction(rng)
    return DenseTensor.from_nested(rows)


def rand_skew(rng: random.Random, n: int) -> DenseTensor:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            value = rand_fraction(rng)
            rows[i][j] = value
            rows[j][i] = -value
    return DenseTensor.from_nested(rows)


def rand_matrix(rng: random.Random, n: int) -> DenseTensor:
    return DenseTensor.from_nested(
        [[rand_fraction(rng) for _ in range(n)] for _ in range(n)]
    )


def rand_tensor(rng: random.Random, order: int, dim: int) -> DenseTensor:
    return DenseTensor(order, dim,
                       [rand_fraction(rng, -3, 3, 2)
                        for _ in range(dim ** order)])


def rand_curvature(rng: random.Random, n: int, pieces: int = 2) -> DenseTensor:
    """A random rational combination of gammas and alphas (hence curvature)."""
    total = DenseTensor.zeros(4, n)
    for _ in range(pieces):
        c = rand_fraction(rng, -3, 3, 2)
        total = total + gamma(rand_symmetric(rng, n)).scale(c)
        d = rand_fraction(rng, -3, 3, 2)
        total = total + alpha(rand_skew(rng, n)).scale(d)
    return total


def quaternion_clifford() -> tuple[DenseTensor, Metric]:
    """The Clifford family of the quaternion units i, j on Euclidean R^4."""
    g = Metric.standard(4, 0)
    i, j, _ = quaternion_triple()
    return clifford_family(Fraction(2), [Fraction(1), Fraction(-1, 3)], [i, j], g), g


def skew_unit(n: int, i: int, j: int) -> DenseTensor:
    """The skew matrix ``E_ij - E_ji`` on R^n (0-based indices)."""
    return DenseTensor.from_entries(2, n, {(i, j): 1, (j, i): -1})


def structured_curvatures() -> dict[str, DenseTensor]:
    """Curvature tensors with structure that seeded ones lack: many zero
    slices, a curvature operator with an all-zero diagonal
    (``alpha(E12 + E34) - alpha(E12) - alpha(E34)``), a nilpotent example
    of signature (2,2) and a Clifford family."""
    e12, e34 = skew_unit(4, 0, 1), skew_unit(4, 2, 3)
    return {
        "gamma-identity-n3": gamma(LinearMap.identity(3)),
        "gamma-identity-n4": gamma(LinearMap.identity(4)),
        "alpha-e12-n3": alpha(skew_unit(3, 0, 1)),
        "zero-diagonal-n4": alpha(e12 + e34) - alpha(e12) - alpha(e34),
        "alpha-nilpotent-skew": alpha(nilpotent_skew_example(2, 2)),
        "clifford-quaternion": quaternion_clifford()[0],
    }


def pull_back(t: DenseTensor, q) -> DenseTensor:
    """``(Q*T)(u, v, w, z) = T(Q u, Q v, Q w, Q z)`` for the square matrix
    ``q`` given by its rows, entrywise and one slot at a time."""
    n = t.dim
    entries = {idx: t[idx] for idx in t.indices()}
    for slot in range(4):
        entries = {idx: sum(q[a][idx[slot]] * entries[idx[:slot] + (a,) + idx[slot + 1:]]
                            for a in range(n))
                   for idx in entries}
    return DenseTensor.from_entries(4, n, entries)


def rand_vector(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(rand_fraction(rng, -4, 4, 3) for _ in range(n))


def rand_ring_element(rng: random.Random, degree: int,
                      terms: int = 3) -> GroupRingElement:
    images = list(range(1, degree + 1))
    chosen = []
    for _ in range(terms):
        rng.shuffle(images)
        chosen.append((Permutation(images), rand_fraction(rng, -4, 4, 3)))
    return GroupRingElement(degree, chosen)


# ----------------------------------------------------- Schur polynomial oracle
#
# Independent check of the Littlewood-Richardson implementation: expand each
# class as its generating function over semistandard tableaux (a polynomial
# in `nvars` variables) and compare products coefficient-by-coefficient.
# Nothing here shares code with the horizontal-strip rule under test.
#
# Schur polynomials and their products are symmetric, and two symmetric
# polynomials that agree at every partition-shaped (weakly decreasing)
# exponent are equal, so `dominant_product` and `dominant_part` only look at
# those exponents.  `schur_polynomial` asserts the symmetry that makes this
# enough, once per polynomial it builds.

@cache
def schur_polynomial(lam, nvars: int) -> dict[tuple[int, ...], int]:
    """Monomial dict of the degree-|lam| Schur polynomial in `nvars` variables.

    Memoized: callers share the returned dict and must not mutate it.
    """
    rows = list(lam.parts)
    if not rows:
        return {(0,) * nvars: 1}
    out: dict[tuple[int, ...], int] = {}
    grid = [[0] * r for r in rows]

    def fill(i: int, j: int) -> None:
        if i == len(rows):
            content = [0] * nvars
            for row in grid:
                for v in row:
                    content[v - 1] += 1
            key = tuple(content)
            out[key] = out.get(key, 0) + 1
            return
        ni, nj = (i, j + 1) if j + 1 < rows[i] else (i + 1, 0)
        lo = 1
        if j > 0:
            lo = max(lo, grid[i][j - 1])          # rows weakly increase
        if i > 0 and j < rows[i - 1]:
            lo = max(lo, grid[i - 1][j] + 1)      # columns strictly increase
        for v in range(lo, nvars + 1):
            grid[i][j] = v
            fill(ni, nj)
        grid[i][j] = 0

    fill(0, 0)
    _assert_symmetric(out, nvars)
    return out


def _assert_symmetric(poly: dict, nvars: int) -> None:
    """Every monomial has the coefficient of its sorted exponent, and each
    orbit under permuting the variables is present in full."""
    orbit_sizes: dict[tuple[int, ...], int] = {}
    for exp, coeff in poly.items():
        key = tuple(sorted(exp, reverse=True))
        assert poly.get(key) == coeff, (exp, coeff, poly.get(key))
        orbit_sizes[key] = orbit_sizes.get(key, 0) + 1
    for key, size in orbit_sizes.items():
        expected = factorial(nvars)
        for value in set(key):
            expected //= factorial(key.count(value))
        assert size == expected, (key, size, expected)


def _dominant_exponents(weight: int, nvars: int, largest: int | None = None):
    """Weakly decreasing exponent tuples of length `nvars` summing to `weight`."""
    if largest is None:
        largest = weight
    if nvars == 0:
        if weight == 0:
            yield ()
        return
    for first in range(min(weight, largest), -1, -1):
        for rest in _dominant_exponents(weight - first, nvars - 1, first):
            yield (first,) + rest


def dominant_part(poly: dict) -> dict:
    """The terms of `poly` at partition-shaped exponents."""
    return {exp: coeff for exp, coeff in poly.items()
            if all(x >= y for x, y in zip(exp, exp[1:]))}


def dominant_product(a: dict, b: dict, nvars: int) -> dict:
    """The nonzero coefficients of `a*b` at partition-shaped exponents, each
    as the sum of a[e_a]*b[e - e_a] over the monomials e_a of `a`."""
    weight = sum(next(iter(a))) + sum(next(iter(b)))
    out = {}
    for exp in _dominant_exponents(weight, nvars):
        coeff = 0
        for exp_a, coeff_a in a.items():
            rest = tuple(x - y for x, y in zip(exp, exp_a))
            if min(rest) >= 0:
                coeff += coeff_a * b.get(rest, 0)
        if coeff:
            out[exp] = coeff
    return out


def poly_mul(a: dict, b: dict) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return out


def schur_sum_polynomial(s, nvars: int) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for part, mult in s.items():
        for exp, coeff in schur_polynomial(part, nvars).items():
            out[exp] = out.get(exp, 0) + mult * coeff
    return out

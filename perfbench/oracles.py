"""Independent correctness oracles for the benchmark.

Nothing here imports ``symcurv``.  Every check works on plain data (nested
lists of ``Fraction``, tuples of one-line permutation images, dicts) and
recomputes the expected answer from the paper's formulas or from closed
forms, so a fault in the library cannot hide behind shared code.

Each ``*_problem`` function returns ``None`` when the output is right and a
short reason string when it is wrong.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial, gcd

# --------------------------------------------------------------- tensors


def zeros4(n: int) -> list:
    return [[[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
            for _ in range(n)]


def gamma_formula(s: list) -> list:
    """``gamma(S)[i,j,k,l] = (S[i,l]S[j,k] - S[i,k]S[j,l]) / 3``."""
    n = len(s)
    return [[[[(s[i][l] * s[j][k] - s[i][k] * s[j][l]) / 3
               for l in range(n)] for k in range(n)] for j in range(n)]
            for i in range(n)]


def alpha_formula(a: list) -> list:
    """``alpha(A)[i,j,k,l] = (2A[i,j]A[k,l] + A[i,k]A[j,l] - A[i,l]A[j,k]) / 3``."""
    n = len(a)
    return [[[[(2 * a[i][j] * a[k][l] + a[i][k] * a[j][l]
                - a[i][l] * a[j][k]) / 3
               for l in range(n)] for k in range(n)] for j in range(n)]
            for i in range(n)]


def add_scaled(total: list, coeff: Fraction, t: list) -> None:
    """``total += coeff * t`` in place, for order-4 nested lists."""
    n = len(t)
    for i, j, k, l in product(range(n), repeat=4):
        total[i][j][k][l] += coeff * t[i][j][k][l]


def curvature_violation(t: list) -> str | None:
    """The first curvature identity that ``t`` breaks, or ``None``."""
    n = len(t)
    idx = list(product(range(n), repeat=4))
    if any(t[i][j][k][l] != -t[j][i][k][l] for i, j, k, l in idx):
        return "antisymmetry in the first index pair"
    if any(t[i][j][k][l] != -t[i][j][l][k] for i, j, k, l in idx):
        return "antisymmetry in the second index pair"
    if any(t[i][j][k][l] != t[k][l][i][j] for i, j, k, l in idx):
        return "pair-exchange symmetry"
    if any(t[i][j][k][l] + t[i][k][l][j] + t[i][l][j][k] for i, j, k, l in idx):
        return "first Bianchi identity"
    return None


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def _integer_matrix(m: list) -> tuple[list, int]:
    """Integer numerators of ``m`` over the lcm of its denominators."""
    den = 1
    for row in m:
        for v in row:
            den = _lcm(den, v.denominator)
    return [[int(v * den) for v in row] for row in m], den


def decomposition_problem(target: list, terms: list) -> str | None:
    """Check ``target == sum sign * weight * map(matrix)`` entry by entry.

    ``terms`` holds ``(map, sign, weight, matrix)`` with ``map`` either
    ``"gamma"`` or ``"alpha"``, ``sign`` +-1, ``weight`` a positive
    Fraction and ``matrix`` a nested Fraction list (symmetric for gamma,
    skew for alpha).  Each term is evaluated with the paper's formula on
    integer numerators over one common denominator, which keeps the
    oracle exact and an order of magnitude cheaper than per-entry
    ``Fraction`` arithmetic.
    """
    n = len(target)
    scaled = []
    common = 1
    for kind, sign, weight, matrix in terms:
        if kind not in ("gamma", "alpha"):
            return f"unknown map {kind!r}"
        if sign not in (1, -1):
            return f"sign {sign!r} is not +-1"
        if not isinstance(weight, Fraction) or weight <= 0:
            return f"weight {weight!r} is not a positive rational"
        if len(matrix) != n or any(len(row) != n for row in matrix):
            return "term matrix has the wrong size"
        flip = 1 if kind == "gamma" else -1
        if any(matrix[i][j] != flip * matrix[j][i]
               for i in range(n) for j in range(n)):
            return f"{kind} matrix is not {'symmetric' if flip == 1 else 'skew'}"
        ints, den = _integer_matrix(matrix)
        coeff = Fraction(sign) * weight / (3 * den * den)
        scaled.append((kind, coeff, ints))
        common = _lcm(common, coeff.denominator)
    acc = [0] * (n ** 4)
    for kind, coeff, m in scaled:
        w = int(coeff * common)
        pos = 0
        for i in range(n):
            mi = m[i]
            for j in range(n):
                mj = m[j]
                for k in range(n):
                    mk = m[k]
                    for l in range(n):
                        if kind == "gamma":
                            v = mi[l] * mj[k] - mi[k] * mj[l]
                        else:
                            v = 2 * mi[j] * mk[l] + mi[k] * mj[l] - mi[l] * mj[k]
                        if v:
                            acc[pos] += w * v
                        pos += 1
    pos = 0
    for i, j, k, l in product(range(n), repeat=4):
        want = target[i][j][k][l]
        if acc[pos] * want.denominator != want.numerator * common:
            return (f"reconstruction differs at {(i, j, k, l)}: "
                    f"{Fraction(acc[pos], common)} != {want}")
        pos += 1
    return None


# ------------------------------------------------------ Clifford spectra


def clifford_spectrum(n: int, lam0: Fraction, lams: list) -> list:
    """Jacobi spectrum of the Clifford family on Euclidean R^n:
    0 once, ``lam0 - 3 lam_i`` once each, ``lam0`` with multiplicity
    ``n - 1 - k``; equal values merged.  Sorted ``(root, mult)`` pairs."""
    mult: dict[Fraction, int] = {}
    for root, m in [(Fraction(0), 1), (lam0, n - 1 - len(lams))] + [
            (lam0 - 3 * lam, 1) for lam in lams]:
        if m:
            mult[root] = mult.get(root, 0) + m
    return sorted(mult.items())


def spectrum_problem(samples: list, roots: list, remainders: list,
                     metric_diag: list, sign: int, count: int,
                     expected: list) -> str | None:
    """Check a spectrum sample: ``count`` distinct points with
    ``g(x,x) == sign`` and, at every one, exactly the expected roots with
    nothing left unfactored."""
    if len(samples) != count:
        return f"{len(samples)} samples, expected {count}"
    if len(set(map(tuple, samples))) != len(samples):
        return "repeated sample point"
    for x in samples:
        if len(x) != len(metric_diag):
            return "sample has the wrong dimension"
        if sum(g * v * v for g, v in zip(metric_diag, x)) != sign:
            return f"sample {x} is off the sphere g(x,x) == {sign}"
    for per_sample, remainder in zip(roots, remainders):
        if sorted(per_sample) != expected:
            return f"roots {per_sample} != closed form {expected}"
        if list(remainder) != [1]:
            return f"unfactored remainder {remainder}"
    return None


# --------------------------------------------------------- group ring


def compose(p: tuple, q: tuple) -> tuple:
    """``(p * q)(i) = p(q(i))`` on one-line images."""
    return tuple(p[i - 1] for i in q)


def perm_sign(p: tuple) -> int:
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def _block_group(r: int, blocks: list) -> list:
    out = []
    for images in product(*(permutations(b) for b in blocks)):
        perm = list(range(1, r + 1))
        for block, img in zip(blocks, images):
            for pos, value in zip(block, img):
                perm[pos - 1] = value
        out.append(tuple(perm))
    return out


def symmetrizer(rows: list) -> dict:
    """``sum over p in rows, q in columns of sign(q) * p*q`` as a dict."""
    r = sum(len(row) for row in rows)
    cols = [[row[j] for row in rows if len(row) > j] for j in range(len(rows[0]))]
    signed_cols = [(q, perm_sign(q)) for q in _block_group(r, cols)]
    out: dict[tuple, int] = {}
    for p in _block_group(r, rows):
        for q, sign in signed_cols:
            s = compose(p, q)
            out[s] = out.get(s, 0) + sign
    return {s: Fraction(c) for s, c in out.items() if c}


def scaled(elem: dict, factor: Fraction) -> dict:
    return {p: c * factor for p, c in elem.items() if c * factor}


def ring_mul(a: dict, b: dict) -> dict:
    out: dict[tuple, Fraction] = {}
    for p, cp in a.items():
        for q, cq in b.items():
            s = compose(p, q)
            out[s] = out.get(s, 0) + cp * cq
    return {s: c for s, c in out.items() if c}


def hook_count(shape: tuple) -> int:
    """Standard tableaux of ``shape`` by the hook-length formula."""
    cols = [sum(1 for part in shape if part > j) for j in range(shape[0])] if shape else []
    hooks = 1
    for i, part in enumerate(shape):
        for j in range(part):
            hooks *= part - j + cols[j] - i - 1
    return factorial(sum(shape)) // hooks


def gl_dimension(shape: tuple, m: int) -> int:
    """Dimension of the GL(m) irreducible of ``shape`` (hook-content formula)."""
    cols = [sum(1 for part in shape if part > j) for j in range(shape[0])] if shape else []
    num = den = 1
    for i, part in enumerate(shape):
        for j in range(part):
            num *= m + j - i
            den *= part - j + cols[j] - i - 1
    return num // den


def symmetrizer_problem(got: dict, rows: list) -> str | None:
    want = symmetrizer(rows)
    if got != want:
        return f"symmetrizer of {rows} differs from its definition"
    return None


def square_problem(square: dict, rows: list) -> str | None:
    """``y*y == (r!/f^shape) * y`` for the symmetrizer ``y`` of ``rows``."""
    shape = tuple(len(row) for row in rows)
    factor = Fraction(factorial(sum(shape)), hook_count(shape))
    if square != scaled(symmetrizer(rows), factor):
        return f"y*y != {factor} y for tableau {rows}"
    return None


def derivative_idempotent(u: int) -> dict:
    """``(u+1)/(2(u+3)!)`` times the symmetrizer of rows ``1,3,5..u+4`` / ``2,4``."""
    rows = [[1, 3] + list(range(5, u + 5)), [2, 4]]
    return scaled(symmetrizer(rows), Fraction(u + 1, 2 * factorial(u + 3)))


def idempotent_problem(got: dict, u: int) -> str | None:
    if got != derivative_idempotent(u):
        return f"derivative idempotent u={u} differs from its definition"
    return None


def solve_problem(a: dict, x: dict | None, c: dict) -> str | None:
    if x is None:
        return "solver reported no solution for a solvable system"
    if ring_mul(a, x) != c:
        return "a * x != c"
    return None


def lr_problem(lam: tuple, mu: tuple, terms: list) -> str | None:
    """Littlewood-Richardson output ``[(nu, mult), ...]`` against the
    dimension identities for S_r and for GL(m), m = 1..4."""
    total = sum(lam) + sum(mu)
    for nu, mult in terms:
        if not isinstance(mult, int) or mult <= 0:
            return f"multiplicity {mult!r} of {nu} is not a positive integer"
        if sum(nu) != total or any(nu[i] < nu[i + 1] for i in range(len(nu) - 1)):
            return f"{nu} is not a partition of {total}"
        for inner in (lam, mu):
            if len(inner) > len(nu) or any(nu[i] < inner[i] for i in range(len(inner))):
                return f"{nu} does not contain {inner}"
    got = sum(mult * hook_count(nu) for nu, mult in terms)
    want = comb(total, sum(lam)) * hook_count(lam) * hook_count(mu)
    if got != want:
        return f"sum of c * f^nu is {got}, expected {want}"
    for m in range(1, 5):
        got = sum(mult * gl_dimension(nu, m) for nu, mult in terms)
        want = gl_dimension(lam, m) * gl_dimension(mu, m)
        if got != want:
            return f"GL({m}) dimensions: {got} != {want}"
    return None

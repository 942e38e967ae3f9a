"""Acceptance suite: one test and one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
All comparisons are exact rational equality; there are no tolerances
anywhere in this file.
"""

import random
from fractions import Fraction

from symcurv import (
    GroupRingElement,
    Metric,
    Partition,
    Permutation,
    SchurSum,
    SignatureError,
    alpha,
    apply_symmetry_operator,
    canonical_elements,
    char_poly,
    check_curvature,
    clifford_family,
    decompose_mixed,
    decompose_pure,
    derivative_idempotent,
    gamma,
    jacobi_operator,
    lr_product,
    nilpotent_skew_example,
    nilpotent_sym_example,
    partitions_of,
    plethysm_sym2,
    plethysm_transpose,
    quaternion_triple,
    rational_roots,
    ring_product,
    sample_unit_vectors,
    sample_vectors,
    star,
    tensor_product,
    to_group_ring,
    verify_identity_table,
)
from symcurv.young import curvature_tableau, young_symmetrizer

from helpers import (
    dominant_part,
    dominant_product,
    rand_curvature,
    rand_ring_element,
    rand_skew,
    rand_symmetric,
    rand_tensor,
    rand_vector,
    schur_polynomial,
    schur_sum_polynomial,
)


def _verdict(number: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {text}")


def test_criterion_01_generator_product_table():
    report = verify_identity_table()
    ok = report.all_ok and len(report.lines) == 9
    _verdict(1, ok, "all nine generator products match (coefficients 12/96/0)")
    assert ok


def test_criterion_02_derivative_idempotents():
    ok = True
    for u in (0, 1, 2):
        e = derivative_idempotent(u)
        ok = ok and (e * e == e) and e.degree == u + 4
    _verdict(2, ok, "derivative idempotents square to themselves for u = 0, 1, 2")
    assert ok


def test_criterion_03_projector_identities():
    rng = random.Random(103)
    ystar = canonical_elements().symmetrizer_star
    ok = True
    for i in range(20):
        n = (2, 3, 4)[i % 3]
        s = rand_symmetric(rng, n)
        a = rand_skew(rng, n)
        ok = ok and apply_symmetry_operator(ystar, tensor_product(s, s)) == gamma(s).scale(12)
        ok = ok and apply_symmetry_operator(ystar, tensor_product(a, a)) == alpha(a).scale(12)
        ok = ok and apply_symmetry_operator(ystar, tensor_product(s, a)).is_zero
        ok = ok and apply_symmetry_operator(ystar, tensor_product(a, s)).is_zero
    _verdict(3, ok, "symmetrizer projects 20 random squares onto 12*gamma / "
                    "12*alpha and kills the mixed products")
    assert ok


def test_criterion_04_decomposition_round_trips():
    rng = random.Random(104)
    ok = True
    for i in range(20):
        n = (2, 3, 4)[i % 3]
        t = rand_curvature(rng, n)
        ok = ok and decompose_mixed(t).reconstruct() == t
        ok = ok and decompose_pure(t, "gamma").reconstruct() == t
        ok = ok and decompose_pure(t, "alpha").reconstruct() == t
    # crossing the kinds: gammas-only form of an alpha tensor and vice versa
    pure_alpha_input = alpha(rand_skew(rng, 3))
    pure_gamma_input = gamma(rand_symmetric(rng, 3))
    d_gamma = decompose_pure(pure_alpha_input, "gamma")
    d_alpha = decompose_pure(pure_gamma_input, "alpha")
    ok = ok and d_gamma.alpha_terms == () and d_gamma.reconstruct() == pure_alpha_input
    ok = ok and d_alpha.gamma_terms == () and d_alpha.reconstruct() == pure_gamma_input
    _verdict(4, ok, "mixed / pure-gamma / pure-alpha decompositions reconstruct "
                    "20 random curvature tensors exactly, including crossed kinds")
    assert ok


def test_criterion_05_membership_criteria_agree():
    rng = random.Random(105)
    disagreements = 0
    for i in range(50):
        n = (2, 3, 4)[i % 3]
        result = check_curvature(rand_curvature(rng, n))
        if result.direct_ok != result.young_ok:
            disagreements += 1
        result = check_curvature(rand_tensor(rng, 4, n))
        if result.direct_ok != result.young_ok:
            disagreements += 1
    ok = disagreements == 0
    _verdict(5, ok, "direct-symmetry test and symmetrizer test agree on "
                    f"100 tensors ({disagreements} disagreements)")
    assert ok


def test_criterion_06_schur_table_and_oracle():
    ok = lr_product(Partition([2]), Partition([1, 1])) == SchurSum(
        {Partition([3, 1]): 1, Partition([2, 1, 1]): 1})
    ok = ok and plethysm_sym2(2) == SchurSum(
        {Partition([4]): 1, Partition([2, 2]): 1})
    ok = ok and plethysm_transpose(plethysm_sym2(2)) == SchurSum(
        {Partition([2, 2]): 1, Partition([1, 1, 1, 1]): 1})
    # every product of weight <= 4 classes against the semistandard-tableau
    # polynomial oracle, in enough variables that nothing truncates; both
    # sides are symmetric, so the partition-shaped exponents decide equality
    partitions = [p for w in range(1, 5) for p in partitions_of(w)]
    for lam in partitions:
        for mu in partitions:
            nvars = lam.weight + mu.weight
            lhs = dominant_product(schur_polynomial(lam, nvars),
                                   schur_polynomial(mu, nvars), nvars)
            rhs = dominant_part(schur_sum_polynomial(lr_product(lam, mu), nvars))
            ok = ok and lhs == rhs
    _verdict(6, ok, "ideal-structure table entries and all weight<=4 products "
                    "match the Schur-polynomial oracle")
    assert ok


def test_criterion_07_mixed_slices_annihilate():
    rng = random.Random(107)
    y = young_symmetrizer(curvature_tableau())
    ok = True
    symmetric_square_survives = False
    for _ in range(20):
        s = rand_symmetric(rng, 3)
        a = rand_skew(rng, 3)
        b = [rand_vector(rng, 3) for _ in range(4)]
        ok = ok and ring_product(to_group_ring(tensor_product(s, a), b), y).is_zero
        ok = ok and ring_product(to_group_ring(tensor_product(a, s), b), y).is_zero
        if not ring_product(to_group_ring(tensor_product(s, s), b), y).is_zero:
            symmetric_square_survives = True
    ok = ok and symmetric_square_survives
    _verdict(7, ok, "mixed symmetric/skew slices annihilate the symmetrizer "
                    "(20 random triples); a symmetric square survives")
    assert ok


def test_criterion_08_clifford_spectrum():
    g = Metric.standard(4, 0)
    t = clifford_family(2, [1], [quaternion_triple()[0]], g)
    xs = sample_unit_vectors(g, 1, 10, seed=8)
    ok = len(xs) == 10 and len(set(xs)) == 10
    expected_roots = {Fraction(0), Fraction(2), Fraction(-1)}
    multiplicity_vectors = set()
    for x in xs:
        roots, remainder = rational_roots(char_poly(jacobi_operator(t, g, x)))
        ok = ok and remainder == (1,)
        ok = ok and {root for root, _ in roots} == expected_roots
        multiplicity_vectors.add(tuple(sorted(roots)))
    ok = ok and len(multiplicity_vectors) == 1
    _verdict(8, ok, "anticommuting-family tensor (l0=2, l1=1) has exact roots "
                    "{0, 2, -1} with one multiplicity vector at 10 unit vectors")
    assert ok


def test_criterion_09_nilpotent_examples():
    cases = (
        ("gamma", 1, 1), ("gamma", 2, 1),
        ("alpha", 2, 2), ("alpha", 3, 2),
    )
    failures = []
    for kind, p, q in cases:
        g = Metric.standard(p, q)
        m = p + q
        if kind == "gamma":
            t = gamma(nilpotent_sym_example(p, q))
        else:
            t = alpha(nilpotent_skew_example(p, q))
        if t.is_zero:
            failures.append(f"{kind} on ({p},{q}): T == 0")
        for x in sample_vectors(m, 20, seed=9):
            j = jacobi_operator(t, g, x)
            if not (j @ j).is_zero:
                failures.append(f"{kind} on ({p},{q}): J^2 != 0 at {x}")
                break
            if char_poly(j) != (Fraction(1),) + (Fraction(0),) * m:
                failures.append(f"{kind} on ({p},{q}): char poly not t^{m}")
                break
    ok = not failures
    _verdict(9, ok, "built-in nilpotent examples: T != 0, J^2 == 0 at 20 "
                    "samples, char polys are pure powers"
                    + ("" if ok else f" [{'; '.join(failures)}]"))
    # Known-unattainable clause, asserted as specified: on signatures (1,1)
    # and (2,1) every symmetric S with (S F)^2 == 0 has rank 1 (checked
    # exhaustively over small rationals for (1,1), and forced by the
    # Lorentzian normal form in general), and gamma annihilates every
    # rank-1 matrix, so gamma(S) == 0 there for EVERY admissible S.  The
    # J^2 == 0 and pure-power clauses hold for all four cases; T != 0
    # holds only for the two alpha cases.
    assert ok, "; ".join(failures)


def test_criterion_10_lorentz_rigidity():
    ok = True
    details = []
    rng = random.Random(110)
    for q in (1, 2, 3):
        m = 1 + q
        g = Metric.standard(1, q)
        t = gamma(nilpotent_sym_example(1, q))
        for x in sample_vectors(m, 20, seed=q):
            if not jacobi_operator(t, g, x).is_zero:
                ok = False
                details.append(f"J != 0 for q={q}")
                break
        f_map = g.rows
        for _ in range(50):
            a = rand_skew(rng, m)
            while a.is_zero:
                a = rand_skew(rng, m)
            af = [[sum(a[(i, k)] * f_map[k][j] for k in range(m))
                   for j in range(m)] for i in range(m)]
            square = [[sum(af[i][k] * af[k][j] for k in range(m))
                       for j in range(m)] for i in range(m)]
            if all(not v for row in square for v in row):
                ok = False
                details.append(f"skew (A F)^2 == 0 found for q={q}")
                break
    for p, q in ((1, 3), (3, 1)):
        try:
            nilpotent_skew_example(p, q)
            ok = False
            details.append(f"skew example did not reject ({p},{q})")
        except SignatureError:
            pass
    _verdict(10, ok, "Lorentzian (1,q), q in {1,2,3}: J == 0 at 20 samples, "
                     "50 random skews stay non-nilpotent, and skew examples "
                     "reject (1,q)/(p,1)"
                     + ("" if ok else f" [{'; '.join(details)}]"))
    assert ok


def test_criterion_11_group_ring_embedding_calculus():
    rng = random.Random(111)
    ok = True
    for _ in range(30):
        a = rand_ring_element(rng, 4)
        t = rand_tensor(rng, 4, 2)
        b = [rand_vector(rng, 2) for _ in range(4)]
        lhs = to_group_ring(apply_symmetry_operator(a, t), b)
        rhs = ring_product(to_group_ring(t, b), star(a))
        ok = ok and lhs == rhs
    swap = Permutation([2, 1])
    e1 = GroupRingElement(2, [(Permutation.identity(2), Fraction(1, 2)),
                              (swap, Fraction(1, 2))])
    e2 = GroupRingElement(2, [(Permutation.identity(2), Fraction(1, 2)),
                              (swap, Fraction(-1, 2))])
    for _ in range(20):
        s = rand_symmetric(rng, 3)
        a2 = rand_skew(rng, 3)
        b2 = [rand_vector(rng, 3) for _ in range(2)]
        sb = to_group_ring(s, b2)
        ab = to_group_ring(a2, b2)
        ok = ok and ring_product(sb, star(e1)) == sb
        ok = ok and ring_product(ab, star(e2)) == ab
    _verdict(11, ok, "evaluation rule (aT)_b == T_b a* holds for 30 random "
                     "triples; symmetric/skew evaluations fix their projectors")
    assert ok

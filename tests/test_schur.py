"""Littlewood-Richardson products, the two plethysm rules, ideal structure."""

import random
from itertools import combinations, combinations_with_replacement
from math import comb
from operator import add

import pytest

from symcurv import (
    Partition,
    SchurSum,
    hook_length_count,
    ideal_structure,
    lr_product,
    partitions_of,
    plethysm_sym2,
    plethysm_transpose,
)

from helpers import poly_mul, schur_polynomial, schur_sum_polynomial


def P(*parts) -> Partition:
    return Partition(parts)


def test_lr_known_products():
    assert lr_product(P(2), P(1, 1)) == SchurSum({P(3, 1): 1, P(2, 1, 1): 1})
    assert lr_product(P(1), P(1)) == SchurSum({P(2): 1, P(1, 1): 1})
    # hand-checkable classic with a multiplicity 2
    assert lr_product(P(2, 1), P(2, 1)) == SchurSum({
        P(4, 2): 1, P(4, 1, 1): 1, P(3, 3): 1, P(3, 2, 1): 2,
        P(3, 1, 1, 1): 1, P(2, 2, 2): 1, P(2, 2, 1, 1): 1,
    })


def test_lr_empty_partition_is_unit():
    lam = P(3, 1)
    assert lr_product(lam, P()) == SchurSum({lam: 1})
    assert lr_product(P(), lam) == SchurSum({lam: 1})


def test_lr_weight_cap():
    with pytest.raises(ValueError, match="cap"):
        lr_product(P(9), P(1))


def test_lr_symmetry_small_weights():
    partitions = [p for w in range(5) for p in partitions_of(w)]
    for lam in partitions:
        for mu in partitions:
            assert lr_product(lam, mu) == lr_product(mu, lam)


def test_lr_against_schur_polynomial_oracle_spot():
    for lam, mu in ((P(2), P(1, 1)), (P(2, 1), P(2, 1)), (P(1, 1), P(1, 1))):
        nvars = lam.weight + mu.weight
        lhs = poly_mul(schur_polynomial(lam, nvars), schur_polynomial(mu, nvars))
        rhs = schur_sum_polynomial(lr_product(lam, mu), nvars)
        assert lhs == rhs


def test_lr_dimension_identity():
    # standard-tableau counts refine the product: sum of m_nu * f^nu equals
    # binom(|lam|+|mu|, |lam|) * f^lam * f^mu
    partitions = [p for w in range(1, 5) for p in partitions_of(w)]
    for lam in partitions:
        for mu in partitions:
            total = sum(mult * hook_length_count(nu)
                        for nu, mult in lr_product(lam, mu).items())
            expected = (comb(lam.weight + mu.weight, lam.weight)
                        * hook_length_count(lam) * hook_length_count(mu))
            assert total == expected


def test_plethysm_sym2():
    assert plethysm_sym2(1) == SchurSum({P(2): 1})
    assert plethysm_sym2(2) == SchurSum({P(4): 1, P(2, 2): 1})
    assert plethysm_sym2(3) == SchurSum({P(6): 1, P(4, 2): 1, P(2, 2, 2): 1})
    with pytest.raises(ValueError, match="cap"):
        plethysm_sym2(7)
    with pytest.raises(ValueError):
        plethysm_sym2(0)


def test_plethysm_transpose():
    sym = plethysm_sym2(2)
    alt = plethysm_transpose(sym)
    assert alt == SchurSum({P(2, 2): 1, P(1, 1, 1, 1): 1})
    assert plethysm_transpose(SchurSum({P(3, 1): 2})) == SchurSum({P(2, 1, 1): 2})


def test_plethysm_transpose_involution():
    rng = random.Random(51)
    pool = [p for w in range(1, 7) for p in partitions_of(w)]
    terms = {rng.choice(pool): rng.randint(1, 3) for _ in range(5)}
    s = SchurSum(terms)
    assert plethysm_transpose(plethysm_transpose(s)) == s


def _multiset_products(monomials: list, n: int) -> dict:
    """The sum of the products of n of ``monomials``, taken as a multiset."""
    out: dict[tuple[int, ...], int] = {}
    for pick in combinations_with_replacement(monomials, n):
        exp = tuple(map(sum, zip(*pick)))
        out[exp] = out.get(exp, 0) + 1
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_plethysm_rules_against_monomial_oracle(n):
    # h_n[h_2] is the sum over multisets of n degree-2 monomials, h_n[e_2]
    # the same over square-free ones; in 4 variables
    nvars = 4
    units = [tuple(int(k == i) for k in range(nvars)) for i in range(nvars)]
    squares = [tuple(map(add, a, b)) for a, b in combinations_with_replacement(units, 2)]
    square_free = [tuple(map(add, a, b)) for a, b in combinations(units, 2)]
    sym = plethysm_sym2(n)
    assert schur_sum_polynomial(sym, nvars) == _multiset_products(squares, n)
    assert (schur_sum_polynomial(plethysm_transpose(sym), nvars)
            == _multiset_products(square_free, n))


def test_ideal_structure_table():
    assert ideal_structure("SS") == SchurSum({P(4): 1, P(2, 2): 1})
    assert ideal_structure("SA") == SchurSum({P(3, 1): 1, P(2, 1, 1): 1})
    assert ideal_structure("AS") == SchurSum({P(3, 1): 1, P(2, 1, 1): 1})
    assert ideal_structure("AA") == SchurSum({P(2, 2): 1, P(1, 1, 1, 1): 1})
    with pytest.raises(ValueError):
        ideal_structure("XY")


def test_only_square_kinds_contain_the_curvature_component():
    # the (2,2) component is exactly what survives the curvature symmetrizer
    square = P(2, 2)
    assert ideal_structure("SS").multiplicity(square) == 1
    assert ideal_structure("AA").multiplicity(square) == 1
    assert ideal_structure("SA").multiplicity(square) == 0
    assert ideal_structure("AS").multiplicity(square) == 0


def test_schur_sum_formatting():
    assert str(lr_product(P(2), P(1, 1))) == "3,1 + 2,1,1"
    assert str(plethysm_sym2(2)) == "4 + 2,2"
    assert str(plethysm_transpose(plethysm_sym2(2))) == "2,2 + 1,1,1,1"
    assert "2*3,2,1" in str(lr_product(P(2, 1), P(2, 1)))
    assert str(SchurSum()) == "0"
    assert repr(SchurSum({P(2): 1})) == "SchurSum({Partition([2]): 1})"
    total = plethysm_sym2(2) + plethysm_transpose(plethysm_sym2(2))
    assert total.multiplicity(P(2, 2)) == 2
    assert str(total) == "4 + 2*2,2 + 1,1,1,1"
    assert len(total) == 3 and total and not SchurSum()
    with pytest.raises(TypeError):
        total + {P(4): 1}


def test_schur_sum_validation_and_json():
    with pytest.raises(ValueError):
        SchurSum({P(2): -1})
    payload = plethysm_sym2(2).to_json_dict()
    assert payload == {"terms": [
        {"partition": [4], "multiplicity": 1},
        {"partition": [2, 2], "multiplicity": 1},
    ]}


@pytest.mark.parametrize("terms", [[(P(2), 1.7)], [((2,), "3")]], ids=["float", "string"])
def test_multiplicity_must_be_an_integer(terms):
    # int(mult) used to truncate 1.7 to 1 and parse "3" as 3
    with pytest.raises(TypeError, match="multiplicity must be an integer"):
        SchurSum(terms)

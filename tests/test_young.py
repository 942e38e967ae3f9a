"""Partitions, tableaux, symmetrizers, derivative idempotents."""

import itertools
import re

import pytest

from symcurv import (
    Partition,
    YoungTableau,
    conjugate,
    curvature_tableau,
    derivative_idempotent,
    hook_length_count,
    partitions_of,
    standard_tableaux,
    young_symmetrizer,
)
from symcurv.symgroup import GroupRingElement, Permutation
from math import factorial


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([3, 0])
    assert Partition([]).weight == 0
    assert Partition([4, 2, 1]).weight == 7


def test_partitions_of():
    assert [p.parts for p in partitions_of(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [p.parts for p in partitions_of(1)] == [(1,)]
    assert [p.parts for p in partitions_of(2)] == [(2,), (1, 1)]
    assert len(partitions_of(10)) == 42
    with pytest.raises(ValueError, match="cap"):
        partitions_of(13)


def test_conjugate():
    assert conjugate(Partition([2, 2])) == Partition([2, 2])
    assert conjugate(Partition([4])) == Partition([1, 1, 1, 1])
    assert conjugate(Partition([3, 1])) == Partition([2, 1, 1])
    for r in range(7):
        for lam in partitions_of(r):
            assert conjugate(conjugate(lam)) == lam


# each of these used to truncate or parse to a valid partition
@pytest.mark.parametrize("parts", [[2.7, True], [2, True], [2.0, 1], ["2", "1"]],
                         ids=["float-and-bool", "bool", "integral-float", "string"])
def test_partition_refuses_non_integer_parts(parts):
    with pytest.raises(TypeError, match="part must be an integer"):
        Partition(parts)
    with pytest.raises(TypeError, match="part must be an integer"):
        Partition.from_json(parts)


def test_partition_text_round_trip():
    assert Partition.from_text("3,1").parts == (3, 1)
    assert str(Partition([3, 1])) == "3,1"
    assert Partition.from_text("").parts == ()
    assert repr(Partition([3, 1])) == "Partition([3, 1])"
    assert Partition.from_text(" 3, 1 ").parts == (3, 1)


# int() alone read the first four as numbers and refused the rest with its
# own message
@pytest.mark.parametrize("text", ["0_3", "+3", "\u0661", "3,-1", "3,,1", "3.0", "\u00b2"],
                         ids=["underscore", "plus", "arabic-indic", "minus", "empty-part",
                              "decimal-point", "superscript"])
def test_partition_and_tableau_text_take_ascii_digits_only(text):
    with pytest.raises(ValueError, match="ASCII digits"):
        Partition.from_text(text)
    with pytest.raises(ValueError, match="ASCII digits"):
        YoungTableau.from_text(f"1;{text}")


def test_tableau_validation():
    YoungTableau([[1, 2], [3]])  # valid frame
    with pytest.raises(ValueError):
        YoungTableau([[1], [2, 3]])  # rows must weakly decrease in length
    with pytest.raises(ValueError):
        YoungTableau([[1, 2], [2, 3]])  # duplicate entry
    with pytest.raises(ValueError):
        YoungTableau([[1, 2], [4, 5]])  # entries must be exactly 1..r


# each of these used to load as [[1, 2], [3]] or as [[1], [2]]
@pytest.mark.parametrize("rows", [[[1.0, 2], [3]], [[True, 2], [3]], [["1", 2], [3]]],
                         ids=["float", "bool", "string"])
def test_tableau_refuses_non_integer_entries(rows):
    with pytest.raises(TypeError, match="tableau entry must be an integer"):
        YoungTableau(rows)
    with pytest.raises(TypeError, match="tableau entry must be an integer"):
        YoungTableau.from_json_dict({"rows": rows})


@pytest.mark.parametrize("rows", ["12", ["12", "3"], [[1, 2], (3,)], {"1": [2]}],
                         ids=["string", "string-rows", "tuple-row", "dict"])
def test_tableau_json_rows_must_be_a_list_of_lists(rows):
    with pytest.raises(TypeError, match="'rows' must be a list of lists"):
        YoungTableau.from_json_dict({"rows": rows})


def test_tableau_text_round_trip():
    t = curvature_tableau()
    assert t.to_text() == "1,3;2,4"
    assert YoungTableau.from_text("1,3;2,4") == t
    assert t.shape == Partition([2, 2])
    assert t.is_standard
    assert repr(t) == "YoungTableau([[1, 3], [2, 4]])"
    assert len({t, YoungTableau.from_text("1,3;2,4"), YoungTableau([[1, 2], [3, 4]])}) == 2
    # a decrease along a row, and then one down a column
    assert not YoungTableau([[2, 1], [3]]).is_standard
    assert not YoungTableau([[2, 3], [1, 4]]).is_standard


def test_standard_tableaux_shape_22():
    tableaux = standard_tableaux(Partition([2, 2]))
    assert len(tableaux) == 2
    assert curvature_tableau() in tableaux
    assert all(t.is_standard for t in tableaux)


def test_standard_tableaux_row_and_hook_counts():
    assert len(standard_tableaux(Partition([5]))) == 1
    assert len(standard_tableaux(Partition([2, 1]))) == 2
    for r in range(1, 7):
        for lam in partitions_of(r):
            assert len(standard_tableaux(lam)) == hook_length_count(lam)


def test_hook_length_values():
    assert hook_length_count(Partition([2, 2])) == 2
    assert hook_length_count(Partition([3, 2])) == 5
    assert hook_length_count(Partition([4, 2])) == 9
    assert hook_length_count(Partition(())) == 1


def test_symmetrizer_of_curvature_tableau():
    y = young_symmetrizer(curvature_tableau())
    assert len(y) == 16
    assert all(c in (1, -1) for _, c in y.items())


def test_symmetrizer_single_row_and_column():
    row = young_symmetrizer(YoungTableau([[1, 2]]))
    assert row == GroupRingElement(2, [(Permutation.identity(2), 1),
                                       (Permutation([2, 1]), 1)])
    col = young_symmetrizer(YoungTableau([[1], [2]]))
    assert col == GroupRingElement(2, [(Permutation.identity(2), 1),
                                       (Permutation([2, 1]), -1)])


def test_symmetrizer_matches_definition():
    # sum over p in H, q in V of sign(q) * (p o q), with H, V and the sign
    # computed here from scratch
    for r in range(1, 6):
        perms = list(itertools.permutations(range(1, r + 1)))

        def preserving(blocks):
            return [p for p in perms
                    if all(p[i - 1] in block for block in blocks for i in block)]

        for lam in partitions_of(r):
            for t in standard_tableaux(lam):
                sums = {}
                for p in preserving(t.rows):
                    for q in preserving(t.columns()):
                        inversions = sum(q[i] > q[j] for i in range(r)
                                         for j in range(i + 1, r))
                        s = tuple(p[i - 1] for i in q)
                        sums[s] = sums.get(s, 0) + (-1) ** inversions
                expected = GroupRingElement(
                    r, [(Permutation(s), c) for s, c in sums.items()])
                assert young_symmetrizer(t) == expected


def test_symmetrizer_essential_idempotency():
    # y*y = k*y with k * (number of standard tableaux) = r!
    for r in range(1, 6):
        for lam in partitions_of(r):
            tableaux = standard_tableaux(lam)
            for t in tableaux:
                y = young_symmetrizer(t)
                square = y * y
                # find k from any common nonzero coefficient
                perm, coeff = y.items()[0]
                k = square.coefficient(perm) / coeff
                assert k != 0
                assert square == y.scale(k)
                assert k * len(tableaux) == factorial(r)


def test_symmetrizer_star_support():
    y = young_symmetrizer(curvature_tableau())
    assert len(y.star()) == len(y)


def test_derivative_idempotents():
    from fractions import Fraction
    for u, expected_degree in ((0, 4), (1, 5), (2, 6), (3, 7)):
        e = derivative_idempotent(u)
        assert e.degree == expected_degree
        assert e * e == e
    # u=0 is the curvature symmetrizer over 12; u=2 has shape (4,2), scale 1/80
    y = young_symmetrizer(curvature_tableau())
    assert derivative_idempotent(0) == y.scale(Fraction(1, 12))
    t2 = YoungTableau([[1, 3, 5, 6], [2, 4]])
    assert t2.shape == Partition([4, 2])
    assert derivative_idempotent(2) == young_symmetrizer(t2).scale(Fraction(1, 80))
    with pytest.raises(ValueError, match="cap"):
        derivative_idempotent(5)
    with pytest.raises(ValueError):
        derivative_idempotent(-1)


def test_json_forms():
    assert Partition([4, 2, 1]).to_json() == [4, 2, 1]
    assert Partition.from_json([4, 2]) == Partition([4, 2])
    t = curvature_tableau()
    assert t.to_json_dict() == {"rows": [[1, 3], [2, 4]]}
    assert YoungTableau.from_json_dict({"rows": [[1, 3], [2, 4]]}) == t


# ------------------------------------------------------------------ refusals

_REFUSALS = [
    pytest.param(lambda: partitions_of(-1), "cannot partition -1", id="partitions_of(-1)"),
    pytest.param(lambda: YoungTableau([[1, 2], []]), "tableau rows must be nonempty",
                 id="tableau with an empty row"),
    pytest.param(lambda: standard_tableaux(Partition(())),
                 "empty shape has no tableau representation here",
                 id="standard tableaux of the empty shape"),
]


@pytest.mark.parametrize("call, fragment", _REFUSALS)
def test_refusals(call, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        call()

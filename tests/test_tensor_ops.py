"""Tensor storage, the slot-permutation action, and the group-ring embedding."""

import random
import re
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

import symcurv.cli
import symcurv.curvature
import symcurv.osserman
import symcurv.tensor_ops as tensor_ops_module
from symcurv import (
    DenseTensor,
    GroupRingElement,
    LinearMap,
    Permutation,
    apply_symmetry_operator,
    canonical_elements,
    gamma,
    alpha,
    ring_product,
    slice_pairs,
    star,
    sym_split,
    tensor_product,
    to_group_ring,
)
from symcurv.young import curvature_tableau, young_symmetrizer

from helpers import (
    rand_curvature,
    rand_fraction,
    rand_matrix,
    rand_ring_element,
    rand_skew,
    rand_symmetric,
    rand_tensor,
    rand_vector,
    structured_curvatures,
)


def _e1_star():
    """Projection onto symmetric order-2 tensors, starred."""
    e1 = GroupRingElement(2, [(Permutation.identity(2), Fraction(1, 2)),
                              (Permutation([2, 1]), Fraction(1, 2))])
    return star(e1)


def _e2_star():
    e2 = GroupRingElement(2, [(Permutation.identity(2), Fraction(1, 2)),
                              (Permutation([2, 1]), Fraction(-1, 2))])
    return star(e2)


# -------------------------------------------------------------------- storage

def test_dense_tensor_shape_validation():
    with pytest.raises(ValueError):
        DenseTensor(2, 2, [1, 2, 3])  # wrong entry count
    for nested, message in (([[1, 2], [3]], "axis at depth 1 must have length 2"),
                            ([[1, 2], 3], "axis at depth 1 must have length 2"),
                            ([[1, 2], [3, 4], [5, 6]], "axis at depth 1 must have length 3"),
                            ([[]], "empty axis in nested data"),
                            ([], "empty axis in nested data"),
                            ([[1, [2]], [3, 4]], "ragged nested data")):
        with pytest.raises(ValueError, match=message):
            DenseTensor.from_nested(nested)
    scalar = DenseTensor.from_nested("3/4")  # order 0
    assert (scalar.order, scalar.dim, scalar[()]) == (0, 1, Fraction(3, 4))
    with pytest.raises(TypeError):
        DenseTensor(1, 2, [0.5, 1])  # floats rejected


def test_arithmetic_results_stay_exact():
    t = DenseTensor.from_nested([[1, "1/2"], [-3, 0]])
    u = DenseTensor.from_nested([["2/3", 1], [0, 5]])
    for result, expected in ((t + u, [[Fraction(5, 3), Fraction(3, 2)], [-3, 5]]),
                             (t - u, [[Fraction(1, 3), Fraction(-1, 2)], [-3, -5]]),
                             (-t, [[-1, Fraction(-1, 2)], [3, 0]]),
                             (t.scale("3/2"), [[Fraction(3, 2), Fraction(3, 4)],
                                               [Fraction(-9, 2), 0]])):
        assert result == DenseTensor.from_nested(expected)
        assert all(type(result[idx]) is Fraction for idx in result.indices())
    with pytest.raises(TypeError):
        t.scale(0.5)  # floats rejected by scale as by the constructor
    with pytest.raises(TypeError):
        t * 0.5
    for foreign in (lambda: t + 1, lambda: t - "1", lambda: t @ 2):
        with pytest.raises(TypeError):
            foreign()
    assert repr(t) == "DenseTensor(order=2, dim=2)"


def test_dense_tensor_indexing_and_equality():
    t = DenseTensor.from_nested([[1, 2], [3, 4]])
    assert t[(0, 1)] == 2
    assert t[(1, 0)] == 3
    with pytest.raises(IndexError):
        t[(0, 2)]
    assert t == DenseTensor(2, 2, [1, 2, 3, 4])
    assert t != DenseTensor(2, 2, [1, 2, 3, 5])
    assert t.transpose() == DenseTensor.from_nested([[1, 3], [2, 4]])


def test_index_entries_must_be_integers():
    t = DenseTensor.from_nested([[1, 2], [3, 4]])
    with pytest.raises(TypeError, match=r"index \(True, 0\)"):
        t[(True, 0)]  # not entry (1, 0)
    with pytest.raises(TypeError, match=r"index \(0, 1\.0\)"):
        DenseTensor.from_entries(2, 2, {(0, 1.0): 1})


def test_flat_numerators_stay_inside_tensor_ops():
    """Only ``tensor_ops`` reads or writes the stored numerators; the other
    modules go through its private helpers (``_int_rows``, ``_slab``,
    ``_operator_rows``, ``_from_operator_rows``, the raw action ``_act``,
    ...)."""
    touch = re.compile(r"\._ints|\._den\b|\._unchecked\(")
    for module in (symcurv.curvature, symcurv.osserman, symcurv.cli):
        with open(module.__file__, encoding="utf-8") as source:
            lines = [line for line in source if touch.search(line)]
        assert lines == [], module.__name__


def test_constructors_build_dense_tensors_on_the_matrix_subclass():
    assert LinearMap.from_nested([[1, 0], [0, 1]]) == LinearMap.identity(2)
    zeros = LinearMap.zeros(4, 2)
    assert type(zeros) is DenseTensor and zeros.order == 4 and zeros.is_zero
    assert type(LinearMap.from_entries(2, 2, {(0, 1): 1})) is DenseTensor
    assert type(LinearMap.from_function(2, 2, sum)) is DenseTensor
    payload = DenseTensor.from_nested([[0, 1], [2, 0]]).to_json_dict()
    assert type(LinearMap.from_json_dict(payload)) is DenseTensor


@pytest.mark.parametrize("build", [DenseTensor.from_nested, LinearMap],
                         ids=["DenseTensor", "LinearMap"])
def test_cancelled_denominators_give_the_integer_tensor(build):
    # storage is in lowest terms, so equal values mean equal storage
    t = build([[1, -2], [3, 4]])
    a = build([["1/2", "1/3"], [2, "3/2"]])
    b = build([[2, 0], [6, 6]])
    for result, expected in ((t.scale("1/3").scale(3), t),
                             (t + t - t, t),
                             (a - a + t, t),
                             (t.scale(0), DenseTensor.zeros(2, 2)),
                             (a @ b, build([[3, 2], [13, 9]]))):
        assert result == expected
        assert hash(result) == hash(expected)
        assert result.to_json_dict() == expected.to_json_dict()


def test_json_round_trip():
    t = DenseTensor.from_entries(4, 3, {(0, 0, 1, 2): Fraction(1, 3),
                                        (2, 1, 0, 0): -2})
    payload = t.to_json_dict()
    assert payload["order"] == 4 and payload["dim"] == 3
    assert {"idx": [0, 0, 1, 2], "value": "1/3"} in payload["entries"]
    assert DenseTensor.from_json_dict(payload) == t


@pytest.mark.parametrize("shape", [
    {"order": 4.9, "dim": True},
    {"order": 4.0, "dim": 2},
    {"order": 4, "dim": False},
    {"order": "4", "dim": 2},
])
def test_json_shape_must_be_integers(shape):
    with pytest.raises(TypeError, match="must be an integer"):
        DenseTensor.from_json_dict({**shape, "entries": []})


def test_json_refuses_a_repeated_index():
    # the later of two conflicting entries used to win silently
    payload = {"order": 2, "dim": 2, "entries": [{"idx": [0, 1], "value": 1},
                                                 {"idx": [0, 1], "value": "5/2"}]}
    with pytest.raises(ValueError, match="twice"):
        DenseTensor.from_json_dict(payload)


def test_json_refuses_a_boolean_value():
    payload = {"order": 2, "dim": 2, "entries": [{"idx": [0, 1], "value": True}]}
    with pytest.raises(TypeError, match="bool"):
        DenseTensor.from_json_dict(payload)


# --------------------------------------------------------------------- action

def test_identity_acts_trivially():
    rng = random.Random(11)
    t = rand_tensor(rng, 4, 2)
    assert apply_symmetry_operator(GroupRingElement.one(4), t) == t


def test_degree_order_mismatch():
    rng = random.Random(12)
    t = rand_tensor(rng, 3, 2)
    with pytest.raises(ValueError):
        apply_symmetry_operator(GroupRingElement.one(4), t)


def test_symmetrizer_projects_squares():
    rng = random.Random(13)
    ystar = canonical_elements().symmetrizer_star
    for n in (2, 3):
        s = rand_symmetric(rng, n)
        a = rand_skew(rng, n)
        assert apply_symmetry_operator(ystar, tensor_product(s, s)) == gamma(s).scale(12)
        assert apply_symmetry_operator(ystar, tensor_product(a, a)) == alpha(a).scale(12)
        assert apply_symmetry_operator(ystar, tensor_product(s, a)).is_zero
        assert apply_symmetry_operator(ystar, tensor_product(a, s)).is_zero


def _reference_action(a, t):
    """``(a T)[idx] = sum of a(p) * T[idx[p(1)-1], ..., idx[p(r)-1]]``,
    read entry by entry."""
    return {
        idx: sum((c * t[tuple(idx[img - 1] for img in p.images)]
                  for p, c in a.items()), Fraction(0))
        for idx in product(range(t.dim), repeat=t.order)
    }


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_action_matches_entrywise_reference(order, dim):
    """The action agrees with the entrywise definition with its slot
    readers built cold, read warm, and rebuilt after eviction."""
    rng = random.Random(100 * order + dim)
    group = [Permutation(images) for images in permutations(range(1, order + 1))]
    # a permutation that moves exactly three points is a 3-cycle
    three_cycles = [p for p in group
                    if sum(k != img for k, img in enumerate(p.images, 1)) == 3]
    assert len(three_cycles) == (0, 0, 2, 8)[order - 1]
    tensor_ops_module._reader.cache_clear()
    results = []
    for _ in range(3):
        t = DenseTensor(order, dim, [rand_fraction(rng, -4, 4, 3)
                                     for _ in range(dim ** order)])
        full = GroupRingElement(order, [
            (p, rng.choice((1, -1)) * rand_fraction(rng, 1, 5, 4)) for p in group
        ])
        assert len(full) == len(group)
        single = GroupRingElement.from_permutation(rng.choice(group),
                                                   rand_fraction(rng, 1, 3, 5))
        # the identity term alone, and next to one other term
        identity = Permutation.identity(order)
        elements = [full, single,
                    GroupRingElement.from_permutation(identity, Fraction(-5, 3))]
        if order > 1:
            elements.append(GroupRingElement(order, [
                (identity, 1), (rng.choice([p for p in group if p != identity]), -1)]))
        for a in elements:
            got = apply_symmetry_operator(a, t)
            assert {idx: got[idx] for idx in got.indices()} == _reference_action(a, t)
            assert apply_symmetry_operator(a, t) == got
            results.append((a, t, got))
    # applying every permutation at higher dimensions, more keys than the
    # cache holds, evicts each reader built above (order 1 builds none)
    moved = len(group) - 1
    if moved:
        every = GroupRingElement(order, [(p, 1) for p in group])
        for d in range(dim + 1, dim + 2 + tensor_ops_module._READERS // moved):
            apply_symmetry_operator(every, DenseTensor.zeros(order, d))
        assert tensor_ops_module._reader.cache_info().currsize == tensor_ops_module._READERS
    for a, t, got in results:
        assert apply_symmetry_operator(a, t) == got


def test_action_is_compatible_with_product():
    """``(a*b) T == a (b T)`` with equal storage, for elements and tensors
    with non-unit coefficients and denominators; the unreduced chain
    ``_act((a, b), T)``, brought to lowest terms, stores the same, and the
    empty chain gives the stored numerators."""
    rng = random.Random(14)
    for degree, dim in ((2, 3), (3, 2), (4, 2), (4, 3)):
        for _ in range(4):
            a, b = rand_ring_element(rng, degree, 4), rand_ring_element(rng, degree, 4)
            t = rand_tensor(rng, degree, dim).scale(Fraction(1, rng.choice((1, 4, 6, 12))))
            expected = apply_symmetry_operator(ring_product(a, b), t)
            chained = DenseTensor._unchecked(degree, dim, *tensor_ops_module._act((a, b), t))
            for got in (apply_symmetry_operator(a, apply_symmetry_operator(b, t)), chained):
                assert (got._den, got._ints) == (expected._den, expected._ints)
                assert hash(got) == hash(expected)
            assert tensor_ops_module._act((), t) == (t._ints, t._den)


# -------------------------------------------------------------- tensor product

def test_tensor_product_values():
    eye = DenseTensor.from_nested([[1, 0], [0, 1]])
    prod = tensor_product(eye, eye)
    for idx in prod.indices():
        i, j, k, l = idx
        assert prod[idx] == (1 if (i == j and k == l) else 0)
    rot = DenseTensor.from_nested([[0, 1], [-1, 0]])
    assert tensor_product(rot, rot)[(0, 1, 0, 1)] == 1
    zero = DenseTensor.zeros(2, 2)
    assert tensor_product(zero, eye).is_zero
    with pytest.raises(ValueError):
        tensor_product(eye, DenseTensor.zeros(2, 3))


# ------------------------------------------------------------------- embedding

def test_to_group_ring_zero():
    rng = random.Random(15)
    b = [rand_vector(rng, 2) for _ in range(4)]
    assert to_group_ring(DenseTensor.zeros(4, 2), b).is_zero


def test_to_group_ring_matches_entrywise_evaluation():
    # coefficient of p is T(v_p(1), ..., v_p(r)), summed over every index here
    rng = random.Random(20)
    for order, dim in ((1, 3), (2, 3), (3, 2), (4, 2)):
        t = rand_tensor(rng, order, dim)
        b = [rand_vector(rng, dim) for _ in range(order)]
        b[0] = (Fraction(0),) + b[0][1:]
        element = to_group_ring(t, b)
        for images in permutations(range(1, order + 1)):
            expected = Fraction(0)
            for idx in product(range(dim), repeat=order):
                term = t[idx]
                for k, i in enumerate(idx):
                    term *= b[images[k] - 1][i]
                expected += term
            assert element.coefficient(Permutation(images)) == expected


def test_symmetric_embeds_in_symmetric_ideal():
    rng = random.Random(16)
    for _ in range(5):
        s = rand_symmetric(rng, 3)
        b = [rand_vector(rng, 3) for _ in range(2)]
        sb = to_group_ring(s, b)
        assert ring_product(sb, _e1_star()) == sb


def test_skew_embeds_in_skew_ideal():
    rng = random.Random(17)
    for _ in range(5):
        a = rand_skew(rng, 3)
        b = [rand_vector(rng, 3) for _ in range(2)]
        ab = to_group_ring(a, b)
        assert ring_product(ab, _e2_star()) == ab


def test_action_embedding_rule():
    # evaluating after acting == multiplying by the starred element
    rng = random.Random(18)
    for _ in range(5):
        a = rand_ring_element(rng, 4)
        t = rand_tensor(rng, 4, 2)
        b = [rand_vector(rng, 2) for _ in range(4)]
        lhs = to_group_ring(apply_symmetry_operator(a, t), b)
        rhs = ring_product(to_group_ring(t, b), star(a))
        assert lhs == rhs


def test_mixed_slices_annihilate_symmetrizer():
    rng = random.Random(19)
    y = young_symmetrizer(curvature_tableau())
    hits = 0
    for _ in range(5):
        s = rand_symmetric(rng, 3)
        a = rand_skew(rng, 3)
        b = [rand_vector(rng, 3) for _ in range(4)]
        assert ring_product(to_group_ring(tensor_product(s, a), b), y).is_zero
        assert ring_product(to_group_ring(tensor_product(a, s), b), y).is_zero
        if not ring_product(to_group_ring(tensor_product(s, s), b), y).is_zero:
            hits += 1
    assert hits > 0  # the symmetric square does NOT annihilate in general


def test_to_group_ring_shape_mismatch():
    rng = random.Random(20)
    t = rand_tensor(rng, 4, 2)
    with pytest.raises(ValueError):
        to_group_ring(t, [rand_vector(rng, 2) for _ in range(3)])
    with pytest.raises(ValueError):
        to_group_ring(t, [rand_vector(rng, 3) for _ in range(4)])


# --------------------------------------------------------------------- slicing

def test_slice_pairs_reconstruction():
    rng = random.Random(21)
    for n in (2, 3):
        t = rand_tensor(rng, 4, n)
        pairs = slice_pairs(t)
        total = DenseTensor.zeros(4, n)
        for m, unit in pairs:
            total = total + tensor_product(m, unit)
        assert total == t
    assert slice_pairs(DenseTensor.zeros(4, 2)) == []


def test_slab_reads_the_entrywise_slice():
    rng = random.Random(25)
    tensors = list(structured_curvatures().values())
    tensors += [rand_tensor(rng, 4, n) for n in (1, 2, 3, 4)]
    for t in tensors:
        n = t.dim
        for k, l in product(range(n), repeat=2):
            assert tensor_ops_module._slab(t, k, l) == DenseTensor.from_function(
                2, n, lambda ij: t[ij + (k, l)])


def test_operator_rows_read_the_curvature_operator():
    rng = random.Random(27)
    tensors = list(structured_curvatures().values())
    tensors += [rand_curvature(random.Random(n), n, 3) for n in range(1, 9)]
    tensors += [rand_tensor(rng, 4, n) for n in (1, 2, 3)] + [DenseTensor.zeros(4, 4)]
    for t in tensors:
        pairs = [(i, j) for i in range(t.dim) for j in range(i + 1, t.dim)]
        rows, den = tensor_ops_module._operator_rows(t)
        assert [[Fraction(v, den) for v in row] for row in rows] == [
            [t[p + q] for q in pairs] for p in pairs]


def test_from_operator_rows_inverts_operator_rows():
    """Writing a curvature tensor out from its curvature operator gives it
    back: the structured examples (one with an all-zero diagonal of B),
    seeded ones at n = 1..8 (n = 1 has no pairs and one entry), tensors
    projected by ``ystar`` without the writer, and zero tensors."""
    ystar = canonical_elements().symmetrizer_star
    rng = random.Random(28)
    tensors = list(structured_curvatures().values())
    tensors += [rand_curvature(random.Random(n), n, 3) for n in range(1, 9)]
    projected = [apply_symmetry_operator(ystar, rand_tensor(rng, 4, n)) for n in (2, 3, 4)]
    assert not any(t.is_zero for t in projected)
    tensors += projected + [DenseTensor.zeros(4, n) for n in (1, 2, 5)]
    for t in tensors:
        rows = tensor_ops_module._operator_rows(t)
        assert tensor_ops_module._from_operator_rows(*rows, t.dim) == t


def test_canonical_terms_keep_the_gram_sum():
    """The decompositions' canonical form: the same ``sum c M (x) M``, every
    matrix once and led by a positive entry, no zero weight or matrix, and
    the matrices in entrywise order."""
    canonical = tensor_ops_module._canonical_terms

    def gram(n, terms):
        total = DenseTensor.zeros(4, n)
        for c, x in terms:
            total = total + tensor_product(x, x).scale(c)
        return total

    rng = random.Random(26)
    m = DenseTensor(2, 2, [0, "-1/3", 5, 0])
    mixed = [DenseTensor(2, 2, values) for values in
             ([0, "1/2", 0, 0], [0, "1/3", 1, 0], [0, "1/2", 0, "-1/5"], ["-1/7", 0, 0, 0])]
    cases = [
        (2, []),
        (2, [(Fraction(0), m), (Fraction(3), DenseTensor.zeros(2, 2))]),
        (2, [(Fraction(1, 2), m), (Fraction(-1, 2), -m), (Fraction(1, 3), -m),
             (Fraction(-1, 3), m)]),
        (2, [(Fraction((-1) ** k * (k + 1), k + 2), x) for k, x in enumerate(mixed)]),
        (1, [(Fraction(-2, 3), DenseTensor(2, 1, ["-5/7"])), (Fraction(3), DenseTensor(2, 1, [2])),
             (Fraction(2, 3), DenseTensor(2, 1, ["5/7"]))]),
    ]
    for n in (1, 2, 3):
        pool = [rand_matrix(rng, n) for _ in range(4)] + [DenseTensor.zeros(2, n)]
        cases.append((n, [(rand_fraction(rng, -3, 3, 4), rng.choice((1, -1)) * rng.choice(pool))
                          for _ in range(12)]))
    entries = lambda x: [x[idx] for idx in x.indices()]
    for n, terms in cases:
        out = canonical(terms)
        assert gram(n, out) == gram(n, terms)
        matrices = [x for _, x in out]
        assert all(c for c, _ in out) and len(set(matrices)) == len(matrices)
        assert all(next(v for _, v in x.nonzero_items()) > 0 for x in matrices)
        assert matrices == sorted(matrices, key=entries)
    assert canonical(cases[1][1]) == canonical(cases[2][1]) == []
    assert [x for _, x in canonical(cases[3][1])] == sorted(mixed[:3] + [-mixed[3]], key=entries)


def test_slice_pairs_generic_count():
    rng = random.Random(22)
    dense = DenseTensor(4, 3, [Fraction(rng.randint(1, 5))
                               for _ in range(81)])  # strictly nonzero
    assert len(slice_pairs(dense)) == 9


# ------------------------------------------------------------------- sym split

def test_sym_split():
    m = DenseTensor.from_nested([[1, 2], [0, 1]])
    s, a = sym_split(m)
    assert s == DenseTensor.from_nested([[1, 1], [1, 1]])
    assert a == DenseTensor.from_nested([[0, 1], [-1, 0]])
    assert s + a == m

    rng = random.Random(23)
    sym = rand_symmetric(rng, 3)
    assert sym_split(sym) == (sym, DenseTensor.zeros(2, 3))
    skew = rand_skew(rng, 3)
    assert sym_split(skew) == (DenseTensor.zeros(2, 3), skew)


# ------------------------------------------------------------ hypothesis props

_small = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@settings(max_examples=25, deadline=None)
@given(st.lists(_small, min_size=16, max_size=16),
       st.lists(_small, min_size=16, max_size=16))
def test_action_linearity(xs, ys):
    t1 = DenseTensor(4, 2, xs)
    t2 = DenseTensor(4, 2, ys)
    ystar = canonical_elements().symmetrizer_star
    assert (apply_symmetry_operator(ystar, t1 + t2)
            == apply_symmetry_operator(ystar, t1) + apply_symmetry_operator(ystar, t2))


# ------------------------------------------------------------------ refusals

_REFUSALS = [
    pytest.param(lambda: DenseTensor.zeros(4, 0), "bad shape: order=4, dim=0",
                 id="zeros of dimension 0"),
    pytest.param(lambda: DenseTensor.from_entries(2, 2, {(0, 2): 1}),
                 "index (0, 2) out of range for order 2, dim 2", id="from_entries out of range"),
    pytest.param(lambda: LinearMap.identity(2)([1, 2, 3]), "vector length 3 != dimension 2",
                 id="2x2 matrix applied to a 3-vector"),
    pytest.param(lambda: tensor_product(DenseTensor.zeros(4, 2), DenseTensor.zeros(2, 2)),
                 "need two order-2 tensors, got orders 4, 2", id="tensor_product of orders 4, 2"),
    pytest.param(lambda: slice_pairs(DenseTensor.zeros(2, 2)), "slice_pairs needs order 4, got 2",
                 id="slice_pairs of order 2"),
    pytest.param(lambda: sym_split(DenseTensor.zeros(4, 2)), "sym_split needs order 2, got 4",
                 id="sym_split of order 4"),
]


@pytest.mark.parametrize("call, fragment", _REFUSALS)
def test_refusals(call, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        call()


_EDGE_PATHS = [
    pytest.param(lambda: apply_symmetry_operator(GroupRingElement(4),
                                                 rand_tensor(random.Random(7), 4, 3)),
                 DenseTensor.zeros(4, 3), id="the zero element acts as zero"),
    pytest.param(lambda: DenseTensor.zeros(0, 3).to_nested(), 0,
                 id="an order-0 tensor nests as its one value"),
]


@pytest.mark.parametrize("call, expected", _EDGE_PATHS)
def test_edge_paths(call, expected):
    assert call() == expected

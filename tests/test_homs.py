import itertools
import math
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from strategies import invariant_factor_chains, permutation_lists
from wreathhom import (
    AbelianGroup,
    builtin_group,
    group_from_permutations,
    hom_count_abelian,
    hom_group,
    subgroup_classes,
)
from wreathhom.groups import abelianization, full_group_class
from wreathhom.homs import abelian_hom
from oracles import (brute_hom_count_abelian, index_sum, is_homomorphism, reference_abelian_homs, reference_add_table,
                     vectors)

BUILTINS = ["C1", "C2", "C3", "C4", "V4", "S3", "D4", "Q8"]
COEFFS = [AbelianGroup((2,)), AbelianGroup((3,)), AbelianGroup((2, 2))]


def test_hom_count_examples():
    assert hom_count_abelian(AbelianGroup((4,)), AbelianGroup((2,))) == 2
    assert hom_count_abelian(AbelianGroup((2, 2)), AbelianGroup((2,))) == 4
    assert hom_count_abelian(AbelianGroup((6,)), AbelianGroup((6,))) == 6


@pytest.mark.parametrize(
    "source,coeffs",
    [
        ((2,), (2,)),
        ((4,), (2,)),
        ((6,), (6,)),
        ((2, 4), (2, 2)),
        ((3,), (2, 6)),
        ((2, 2, 2), (4,)),
        ((), (2,)),
        ((5,), ()),
    ],
)
def test_hom_count_vs_brute(source, coeffs):
    b, a = AbelianGroup(source), AbelianGroup(coeffs)
    h = hom_count_abelian(b, a)
    assert h == brute_hom_count_abelian(b, a)
    assert len({abelian_hom(b, a, i) for i in range(h)}) == h


def _check_decoder(b, a):
    # index i decodes to the i-th entry of the listing, for every i
    listing = reference_abelian_homs(b, a)
    assert [abelian_hom(b, a, i) for i in range(len(listing))] == listing
    assert len(listing) == hom_count_abelian(b, a)


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("coeffs", COEFFS, ids=str)
def test_decoder_matches_reference_listing_on_class_abelianizations(name, coeffs):
    g = builtin_group(name)
    for cls in subgroup_classes(g):
        _check_decoder(abelianization(g, cls).group, coeffs)


@settings(max_examples=60, deadline=None, database=None)
@given(invariant_factor_chains, invariant_factor_chains)
def test_decoder_matches_reference_listing_random_chains(source, coeffs):
    b, a = AbelianGroup(source), AbelianGroup(coeffs)
    assume(hom_count_abelian(b, a) <= 4096)
    _check_decoder(b, a)


def test_hom_group_sizes():
    assert hom_group(builtin_group("S3"), AbelianGroup((2,))).size == 2
    assert hom_group(builtin_group("V4"), AbelianGroup((2,))).size == 4
    assert hom_group(builtin_group("C3"), AbelianGroup((2,))).size == 1


def test_hom_group_trivial_first_and_sorted():
    hg = hom_group(builtin_group("V4"), AbelianGroup((2,)))
    assert all(v == 0 for v in hg.elements[0])
    assert list(hg.elements) == sorted(hg.elements)


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("coeffs", COEFFS, ids=str)
def test_hom_group_elements_are_homomorphisms(name, coeffs):
    g = builtin_group(name)
    hg = hom_group(g, coeffs)
    for h in hg.elements:
        assert is_homomorphism(g, coeffs, h)
    # closed under pointwise addition, with 0 the neutral element, and
    # ``add`` on generator values adds like the full values
    table = reference_add_table(hg)
    for i in range(hg.size):
        assert table[0][i] == i
        assert table[i].count(0) == 1
        for j in range(hg.size):
            assert table[i][j] == table[j][i] == hg.add(i, j)
    assert hg.span({0}, range(hg.size)) == set(range(hg.size))


def _element_orders(add, size):
    """The order of each element 0..size-1 of an abelian group given by ``add``."""
    orders = []
    for x in range(size):
        k, y = 1, x
        while y:
            k, y = k + 1, add(y, x)
        orders.append(k)
    return Counter(orders)


def _check_coordinates(hg):
    # psi -> its values on the generators is a bijection onto its image in
    # A^r, inverted by ``index_of``; the coordinates of a sum, found by its
    # full values, are the coordinatewise sums in A; and the group is
    # isomorphic to the product of the Z/gcd(b_i, a_j) over the invariant
    # factors of G^ab and A (an abelian group is fixed by its element orders)
    gens = hg.group.generators
    coords = [tuple(v[s] for s in gens) for v in hg.elements]
    assert len(set(coords)) == hg.size
    assert [hg.index_of(c) for c in coords] == list(range(hg.size))
    table = reference_add_table(hg)
    for i, x in enumerate(coords):
        for j, y in enumerate(coords):
            assert coords[table[i][j]] == tuple(index_sum(hg.coeffs, (1, a), (1, b)) for a, b in zip(x, y))
            assert hg.add(i, j) == table[i][j]
    ab = abelianization(hg.group, full_group_class(hg.group)).group
    factors = [math.gcd(b, a) for b in ab.invariant_factors for a in hg.coeffs.invariant_factors]
    cells = list(itertools.product(*(range(g) for g in factors)))
    assert len(cells) == hg.size
    index = {c: i for i, c in enumerate(cells)}
    product_add = lambda i, j: index[tuple((a + b) % g for a, b, g in zip(cells[i], cells[j], factors))]
    assert _element_orders(hg.add, hg.size) == _element_orders(product_add, len(cells))


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("coeffs", COEFFS, ids=str)
def test_hom_group_coordinates_are_an_isomorphism(name, coeffs):
    _check_coordinates(hom_group(builtin_group(name), coeffs))


@settings(max_examples=40, deadline=None, database=None)
@given(permutation_lists, st.sampled_from([(2,), (4,), (2, 4), (2, 2)]))
def test_hom_group_coordinates_are_an_isomorphism_random_groups(perms, factors):
    _check_coordinates(hom_group(group_from_permutations(perms), AbelianGroup(factors)))


@pytest.mark.parametrize(
    "group",
    [builtin_group(n) for n in BUILTINS]
    + [group_from_permutations([(1, 2, 0, 3), (1, 0, 3, 2)], name="A4")],
)
def test_index_two_identity(group):
    h = hom_group(group, AbelianGroup((2,))).size
    assert h - 1 == sum(c.conjugate_count for c in subgroup_classes(group) if c.index == 2)


def test_hom_json_vectors():
    a = AbelianGroup((2, 2))
    hg = hom_group(builtin_group("C2"), a)
    vecs = [list(vectors(a)[v]) for v in hg.elements[-1]]
    assert len(vecs) == 2 and vecs[0] == [0, 0]

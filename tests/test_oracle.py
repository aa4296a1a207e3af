from functools import lru_cache
from itertools import accumulate, permutations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from wreathhom import (
    AbelianGroup,
    SizeCapError,
    WreathHomCounter,
    build_wreath_group,
    builtin_group,
    coset_action,
    delta_distribution,
    enumerate_homs,
    fixed_point_strata_uniform,
    fold_indices,
    group_from_permutations,
    hom_count_direct,
    hom_count_wreath,
    oracle_delta,
    subgroup_classes,
)
from wreathhom.cli import EXIT_CAP_EXCEEDED, execute
from wreathhom.oracle import ORACLE_CAP, ExplicitWreath, hom_images
from oracles import (
    TableTarget,
    centralizer_order,
    fn_power,
    index_sum,
    reference_enumerate_homs,
    reference_hom_images,
    reference_pushed_map,
    reference_wreath_elements,
    reference_wreath_ops,
)
from strategies import permutation_lists_4

C2 = AbelianGroup((2,))
C3A = AbelianGroup((3,))
V4A = AbelianGroup((2, 2))


def test_wreath_orders():
    assert build_wreath_group(C2, 2).order == 8
    assert build_wreath_group(C3A, 1).order == 3
    assert build_wreath_group(C2, 3).order == 48


def test_wreath_size_cap():
    # C2 wr S10 is built, but listing the roots of 2 would visit its 10!
    # permutations and more, past the oracle's cap (oracle-check exits 4:
    # test_refused_before_any_root_is_listed)
    target = build_wreath_group(C2, 10)
    with pytest.raises(SizeCapError, match="cap"):
        enumerate_homs(builtin_group("C2"), target)


def test_wreath_group_axioms_small():
    w, elements = build_wreath_group(C2, 2), reference_wreath_elements(C2, 2)
    for x in elements:
        assert w.mul(x, w.identity) == x
        assert w.mul(w.identity, x) == x
        assert sum(w.mul(x, y) == w.identity for y in elements) == 1
    for x in elements:
        for y in elements:
            for z in elements:
                assert w.mul(w.mul(x, y), z) == w.mul(x, w.mul(y, z))


def test_wreath_projection_and_fold_are_homomorphisms():
    w, elements = build_wreath_group(C2, 3), reference_wreath_elements(C2, 3)
    for x in elements:
        for y in elements:
            xy = w.mul(x, y)
            assert xy[0] == tuple(x[0][i] for i in y[0])
            assert w.fold(xy) == index_sum(C2, (1, w.fold(x)), (1, w.fold(y)))


@pytest.mark.parametrize("factors, degree", [((), 3), ((3,), 2), ((2, 4), 2), ((2, 2, 2), 2)])
def test_wreath_mul_and_fold_match_tuple_arithmetic(factors, degree):
    coeffs = AbelianGroup(factors)
    w = build_wreath_group(coeffs, degree)
    mul, fold = reference_wreath_ops(coeffs)
    elements = reference_wreath_elements(coeffs, degree)
    for x in elements:
        assert w.fold(x) == fold(x)
        for y in elements:
            assert w.mul(x, y) == mul(x, y)


def test_wreath_elements_listed_once_in_order():
    # every element of C2^2 wr S3 has order dividing 12, so roots(12) lists
    # them all
    w = build_wreath_group(AbelianGroup((2, 2)), 3)
    roots = w.roots(12)
    assert len(roots) == w.order == 384
    assert len(set(roots)) == w.order
    assert roots[0] == w.identity == ((0, 1, 2), (0, 0, 0))
    # permutations lexicographic, then decorations big-endian: the order
    # in which enumerate_homs tries candidates
    assert roots[1] == ((0, 1, 2), (0, 0, 1))
    assert roots[17] == ((0, 1, 2), (1, 0, 1))
    assert roots[-1] == ((2, 1, 0), (3, 3, 3))


def test_enumerate_homs_examples():
    c2 = builtin_group("C2")
    assert len(enumerate_homs(c2, TableTarget(builtin_group("S3")))) == 4
    assert len(enumerate_homs(c2, build_wreath_group(C2, 2))) == 6
    for target in (TableTarget(builtin_group("S3")), build_wreath_group(C2, 2)):
        assert len(enumerate_homs(builtin_group("C1"), target)) == 1


def test_enumerate_homs_are_homomorphisms():
    g = builtin_group("S3")
    t = builtin_group("D4")
    target = TableTarget(t)
    for images in enumerate_homs(g, target):
        img, _ = reference_pushed_map(g, target, images)
        for a in range(g.order):
            for b in range(g.order):
                assert t.mul(img[a], img[b]) == img[g.mul(a, b)]


@pytest.mark.parametrize("target", ["S3", "D4", "C2wrS2", "C2wrS3", "C3wrS2"])
@pytest.mark.parametrize("name", ["C1", "C2", "C3", "V4", "S3", "Q8"])
def test_enumerate_homs_matches_reference(name, target):
    g = builtin_group(name)
    if "wr" in target:
        a, n = target.split("wrS")
        coeffs = AbelianGroup((int(a[1:]),))
        t, elements = build_wreath_group(coeffs, int(n)), reference_wreath_elements(coeffs, int(n))
    else:
        t = TableTarget(builtin_group(target))
        elements = t.elements
    homs = enumerate_homs(g, t)
    assert all(len(images) == len(g.generators) for images in homs)
    assert len(set(homs)) == len(homs)
    assert set(homs) == reference_enumerate_homs(g, t, elements)


BUILTINS = ("C1", "C2", "C3", "C4", "V4", "S3", "D4", "Q8")
# small explicit targets (A, n): cyclic, elementary and mixed A, degrees 1 to 3
SMALL_WREATHS = (((2,), 2), ((2,), 3), ((3,), 2), ((2, 2), 2), ((4,), 2), ((2, 4), 1))


@lru_cache(maxsize=None)
def _small_wreath(factors, degree):
    return build_wreath_group(AbelianGroup(factors), degree)


@lru_cache(maxsize=None)
def _small_listing(factors, degree):
    return reference_wreath_elements(AbelianGroup(factors), degree)


# the roots of 1 to 12 against the power filter: every small wreath above,
# degree 0, trivial A, and A = C2 x C4 and C6 at higher degree
ROOT_WREATHS = SMALL_WREATHS + (((2,), 0), ((), 4), ((2, 4), 2), ((6,), 3), ((2,), 4), ((3,), 3))


@pytest.mark.parametrize("factors, degree", ROOT_WREATHS)
def test_roots_equal_power_filter_in_listing_order(factors, degree):
    w = _small_wreath(factors, degree)
    for o in range(1, 13):
        expected = [x for x in _small_listing(factors, degree) if fn_power(w.mul, w.identity, x, o) == w.identity]
        assert w.roots(o) == expected, o


@lru_cache(maxsize=None)
def _failing_only_last(name, factors, degree):
    """The tuples of generator images whose pushed map breaks only Cayley
    edges x -> x s at the element the pushing reaches last."""
    group, target = builtin_group(name), _small_wreath(factors, degree)
    found = []
    for images in product(_small_listing(factors, degree), repeat=len(group.generators)):
        full, last = reference_pushed_map(group, target, images)
        failing = [
            (x, group.mul(x, s))
            for x in range(group.order)
            for s, t in zip(group.generators, images)
            if full[group.mul(x, s)] != target.mul(full[x], t)
        ]
        if failing and all(last in edge for edge in failing):
            found.append(images)
    return found


@settings(max_examples=300, deadline=None, database=None)
@given(st.sampled_from(BUILTINS), st.sampled_from(SMALL_WREATHS), st.sampled_from(["any", "pruned", "fails last"]),
       st.data())
def test_hom_images_refuses_exactly_what_the_reference_rejects(name, wreath, kind, data):
    # hom_images checks each closing edge as soon as both its ends have
    # images and stops at the first that fails: random tuples, tuples
    # pruned by generator order as enumerate_homs draws them, and tuples
    # that break only edges at the element pushed last
    group, target = builtin_group(name), _small_wreath(*wreath)
    if kind == "fails last":
        pool = _failing_only_last(name, *wreath)
        assume(pool)
        images = data.draw(st.sampled_from(pool))
    else:
        pools = [
            [
                t
                for t in _small_listing(*wreath)
                if kind == "any" or fn_power(target.mul, target.identity, t, group.element_order(g)) == target.identity
            ]
            for g in group.generators
        ]
        images = tuple(data.draw(st.sampled_from(pool)) for pool in pools)
    got = hom_images(group, target.mul, target.identity, images)
    expected = reference_hom_images(group, target, images)
    assert (got is None) == (expected is None)
    if got is not None:
        assert tuple(got) == expected


def test_enumerate_homs_cap():
    # two generators of order 2 into C2 wr S7: 6512^2 tuples of roots, past
    # the oracle's cap (oracle-check exits 4: the test below)
    with pytest.raises(SizeCapError, match="cap"):
        enumerate_homs(builtin_group("V4"), build_wreath_group(C2, 7))


def _visits_by_permutations(w, o):
    """What ``roots(o)`` visits, counted over itertools.permutations: each
    permutation, and every decoration of each whose cycle lengths divide o."""
    visits = 0
    for p in permutations(range(w.degree)):
        cycles = {frozenset(accumulate(p, lambda j, _: p[j], initial=i)) for i in p}
        visits += 1 + (w.coeffs.order**w.degree if all(o % len(c) == 0 for c in cycles) else 0)
    return visits


@pytest.mark.parametrize("factors, degree", ROOT_WREATHS)
def test_counts_equal_roots_and_visits_without_listing(factors, degree):
    w = _small_wreath(factors, degree)
    for o in range(1, 13):
        assert w.counts(o) == (_visits_by_permutations(w, o), len(w.roots(o))), o


def test_counts_stop_past_the_cap():
    # C2 wr S_100000: both counts pass the cap within a few steps of the
    # recurrence, not 100000 steps on numbers of a million bits
    visits, roots = build_wreath_group(C2, 100000).counts(2)
    assert visits > ORACLE_CAP and roots > ORACLE_CAP
    # just inside it, exact: 9! permutations, 2^9 decorations for each of the
    # 2620 whose cycles have length 1 or 2, and |Hom(C2, C2 wr S9)| roots
    assert build_wreath_group(C2, 9).counts(2) == (362880 + 2**9 * 2620, 168992)


@pytest.mark.parametrize("name, n", [("V4", 7), ("C2", 10), ("S3", 7)])
def test_refused_before_any_root_is_listed(name, n, capsys, monkeypatch):
    def listed(self, o):
        raise AssertionError("a root was listed past the cap")

    monkeypatch.setattr(ExplicitWreath, "roots", listed)
    with pytest.raises(SizeCapError, match=f"exceeds cap {ORACLE_CAP}"):
        enumerate_homs(builtin_group(name), build_wreath_group(C2, n))
    assert execute(["oracle-check", "--group", name, "--n", str(n)]) == EXIT_CAP_EXCEEDED
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: oracle work") and f"exceeds cap {ORACLE_CAP}" in err


def brute_delta(group, coeffs, n):
    target = build_wreath_group(coeffs, n)
    homs = enumerate_homs(group, target)
    return oracle_delta(group, coeffs, target, fold_indices(group, coeffs, target, homs))


def test_oracle_delta_examples():
    c2 = builtin_group("C2")
    assert brute_delta(c2, C2, 2).fiber_counts == (4, 2)
    assert brute_delta(c2, C2, 3).fiber_counts == (10, 10)
    c3 = builtin_group("C3")
    # Hom(C3, C2) is trivial, so all mass sits on the trivial fold value
    table = brute_delta(c3, C2, 2)
    assert table.fiber_counts == (table.total,)


def test_oracle_delta_matches_engine():
    for name, coeffs, n in [
        ("C4", C2, 3),
        ("V4", C2, 3),
        ("S3", C3A, 2),
        ("Q8", C2, 2),
        ("D4", AbelianGroup((2, 2)), 2),
    ]:
        g = builtin_group(name)
        brute = brute_delta(g, coeffs, n)
        assert brute.fiber_counts == delta_distribution(g, coeffs, n).fiber_counts
        assert hom_count_wreath(g, coeffs, n) == brute.total


def test_weyl_count_equals_fold_kernel_enumeration():
    from wreathhom import weyl_hom_count

    for name in ("C2", "V4", "S3"):
        g = builtin_group(name)
        for n in (1, 2, 3, 4):
            w = build_wreath_group(C2, n)
            homs = enumerate_homs(g, w)
            in_kernel = sum(
                1
                for images in homs
                if all(w.fold(x) == 0 for x in reference_pushed_map(g, w, images)[0])
            )
            assert in_kernel == weyl_hom_count(g, n)


def test_fixed_point_strata_uniform_small():
    g = builtin_group("C2")
    w = build_wreath_group(C2, 3)
    homs = enumerate_homs(g, w)
    assert fixed_point_strata_uniform(g, C2, w, homs, fold_indices(g, C2, w, homs))


def test_centralizer_examples():
    c2 = builtin_group("C2")
    regular = coset_action(c2, subgroup_classes(c2)[0])
    assert centralizer_order(regular) == 2

    s3 = builtin_group("S3")
    trivial_action = coset_action(s3, subgroup_classes(s3)[-1])
    assert centralizer_order(trivial_action) == 1

    natural = coset_action(s3, next(c for c in subgroup_classes(s3) if c.order == 2))
    assert centralizer_order(natural) == 1


def test_centralizer_degree_cap():
    q8 = builtin_group("Q8")
    regular = coset_action(q8, subgroup_classes(q8)[0])
    assert centralizer_order(regular) == 8
    with pytest.raises(SizeCapError, match="degree"):
        centralizer_order(regular, degree_cap=4)


@pytest.mark.parametrize("name", ["C1", "C2", "C3", "C4", "V4", "S3", "D4", "Q8"])
def test_centralizer_identity_all_classes(name):
    g = builtin_group(name)
    for cls in subgroup_classes(g):
        action = coset_action(g, cls)
        assert centralizer_order(action) == cls.normalizer_order // cls.order
        assert centralizer_order(action) == cls.centralizer_order


@settings(max_examples=300, deadline=None, database=None)
@given(permutation_lists_4, st.sampled_from([C2, C3A, V4A]), st.integers(0, 2))
def test_three_counts_agree_on_random_permutation_groups(perms, coeffs, n):
    # the integer direct sum, the recurrence and brute force, on groups of
    # order at most 24
    _check_three_counts(group_from_permutations(perms), coeffs, n)


@settings(max_examples=60, deadline=None, database=None)
@given(permutation_lists_4, st.sampled_from([C2, C3A]))
def test_three_counts_agree_at_n3_on_random_permutation_groups(perms, coeffs):
    # the same at n = 3, where orbits of sizes 1, 2 and 3 meet and the fold
    # lattice combines classes of different k
    _check_three_counts(group_from_permutations(perms), coeffs, 3)


def _check_three_counts(g, coeffs, n):
    target = build_wreath_group(coeffs, n)
    homs = enumerate_homs(g, target)
    assert hom_count_direct(g, coeffs, n) == hom_count_wreath(g, coeffs, n) == len(homs)
    # and the fold fibers of the lattice sequences, by the same enumeration
    folds = fold_indices(g, coeffs, target, homs)
    assert WreathHomCounter(g, coeffs).fiber_counts(n) == oracle_delta(g, coeffs, target, folds).fiber_counts

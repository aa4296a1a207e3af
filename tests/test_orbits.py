import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    add,
    fn_power,
    orbit_data_to_json,
    reference_cocycle_table,
    reference_orbit_type_data,
    reference_transfer,
)
from strategies import permutation_lists
from wreathhom import (
    AbelianGroup,
    InvariantError,
    PermutationAction,
    builtin_group,
    build_wreath_group,
    coset_action,
    group_from_permutations,
    hom_group,
    orbit_type_data,
    subgroup_classes,
)
from wreathhom import orbits, sampling
from wreathhom.counting import counter_for
from wreathhom.groups import abelianization

BUILTINS = ["C1", "C2", "C3", "C4", "V4", "S3", "D4", "Q8"]
COEFFS = [AbelianGroup((2,)), AbelianGroup((3,)), AbelianGroup((2, 2))]


def _class_of(group, elements):
    return next(c for c in subgroup_classes(group) if c.elements == tuple(sorted(elements)))


def _transfer(group, cls):
    return reference_transfer(group, cls, coset_action(group, cls).transversal)


def _check_fold(od, fiber):
    # the fold subgroup is the support of the class's fiber vector, which
    # hits each of its elements weight / |K| times
    assert od.fold == {psi for psi, x in enumerate(fiber) if x}
    assert all(x * len(od.fold) == od.weight for x in fiber if x)


def _check_against_reference(od, ref):
    assert (od.class_id, od.k, od.c, od.weight) == (ref.class_id, ref.k, ref.c, ref.weight)
    _check_fold(od, ref.fiber)


# --- the full-G reference transfer ----------------------------------------


def test_transfer_trivial_target():
    g = builtin_group("C2")
    cls = _class_of(g, [0])
    assert abelianization(g, cls).group.invariant_factors == ()
    assert all(v == () for v in _transfer(g, cls))


def test_transfer_c4_middle_subgroup():
    g = builtin_group("C4")
    cls = _class_of(g, [0, 2])
    assert abelianization(g, cls).group.invariant_factors == (2,)
    values = _transfer(g, cls)
    # the generator transfers to the nontrivial element g^2
    assert values[1] == (1,)
    assert values[2] == (0,)


def test_transfer_s3_alternating():
    g = builtin_group("S3")
    cls = next(c for c in subgroup_classes(g) if c.order == 3)
    assert abelianization(g, cls).group.invariant_factors == (3,)
    assert all(v == (0,) for v in _transfer(g, cls))


@pytest.mark.parametrize("name", BUILTINS)
def test_transfer_is_homomorphism(name):
    g = builtin_group(name)
    for cls in subgroup_classes(g):
        target = abelianization(g, cls).group
        values = _transfer(g, cls)
        for a in range(g.order):
            for b in range(g.order):
                assert values[g.mul(a, b)] == add(target, values[a], values[b])


@pytest.mark.parametrize("name", ["C4", "S3", "D4", "Q8"])
def test_transfer_transversal_independence(name):
    g = builtin_group(name)
    rng = random.Random(20240917)
    for cls in subgroup_classes(g):
        action = coset_action(g, cls)
        reference = reference_transfer(g, cls, action.transversal)
        members = list(cls.elements)
        for _ in range(5):
            twisted = tuple(g.mul(t, rng.choice(members)) for t in action.transversal)
            assert reference_transfer(g, cls, twisted) == reference


def test_transfer_rejects_wrong_transversal():
    g = builtin_group("C4")
    cls = _class_of(g, [0, 2])
    with pytest.raises(ValueError, match="coset"):
        reference_transfer(g, cls, (1, 1))


# --- orbit type data ------------------------------------------------------


def test_orbit_data_c2_trivial_subgroup():
    g = builtin_group("C2")
    a = AbelianGroup((2,))
    od = orbit_type_data(g, a, _class_of(g, [0]), hom_group(g, a))
    assert (od.k, od.c, od.weight) == (2, 2, 2)
    assert od.fold == {0}


def test_orbit_data_c2_full_group():
    g = builtin_group("C2")
    a = AbelianGroup((2,))
    od = orbit_type_data(g, a, _class_of(g, [0, 1]), hom_group(g, a))
    assert (od.k, od.c, od.weight) == (1, 1, 2)
    assert od.fold == {0, 1}


def test_orbit_data_c4_middle():
    g = builtin_group("C4")
    a = AbelianGroup((2,))
    od = orbit_type_data(g, a, _class_of(g, [0, 2]), hom_group(g, a))
    assert (od.k, od.weight) == (2, 4)
    assert od.fold == {0, 1}


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("coeffs", COEFFS, ids=str)
def test_orbit_data_invariants(name, coeffs):
    g = builtin_group(name)
    hg = hom_group(g, coeffs)
    for i, cls in enumerate(subgroup_classes(g)):
        od = orbit_type_data(g, coeffs, cls, hg, class_id=i)
        _check_against_reference(od, reference_orbit_type_data(g, coeffs, cls, hg, class_id=i))
        if od.k == 1:
            assert od.fold == set(range(hg.size))
            assert od.weight == hg.size


@settings(max_examples=40, deadline=None, database=None)
@given(permutation_lists, st.sampled_from(COEFFS))
def test_orbit_data_vs_full_group_reference_random_groups(perms, coeffs):
    g = group_from_permutations(perms)
    hg = hom_group(g, coeffs)
    for i, cls in enumerate(subgroup_classes(g)):
        table = reference_cocycle_table(g, coeffs, cls)
        assert [orbits.cocycle_row(g, coeffs, cls, u) for u in range(len(table))] == list(table)
        _check_against_reference(
            orbit_type_data(g, coeffs, cls, hg, class_id=i), reference_orbit_type_data(g, coeffs, cls, hg, class_id=i)
        )


def test_corrupted_transversal_raises(monkeypatch):
    g = builtin_group("S3")
    a = AbelianGroup((2,))
    cls = next(c for c in subgroup_classes(g) if c.order == 2)
    action = coset_action(g, cls)
    # every transversal element moved into the subgroup's own coset
    corrupted = PermutationAction(
        degree=action.degree, perms=action.perms, transversal=(0,) * action.degree
    )
    monkeypatch.setattr(orbits, "coset_action", lambda group, c: corrupted)
    # a fresh cache, so neither the corrupted factors nor cached good ones leak
    fresh = functools.lru_cache(maxsize=None)(orbits._transfer_factors.__wrapped__)
    monkeypatch.setattr(orbits, "_transfer_factors", fresh)
    with pytest.raises(InvariantError, match="not in the subgroup"):
        orbit_type_data(g, a, cls, hom_group(g, a))
    with pytest.raises(InvariantError, match="not in the subgroup"):
        orbits.cocycle_row(g, a, cls, 1)


def test_orbit_data_builds_no_per_coset_table(monkeypatch):
    # the fold subgroups evaluate each basis u on the transfer V(s); only
    # the sampler builds a row of u(h_j(s)) per coset
    def per_coset_row(*args):
        raise AssertionError("orbit_type_data built a per-coset row")

    monkeypatch.setattr(orbits, "cocycle_row", per_coset_row)
    g, a = builtin_group("D4"), AbelianGroup((4,))
    for i, cls in enumerate(subgroup_classes(g)):
        _check_against_reference(
            orbit_type_data(g, a, cls, hom_group(g, a), class_id=i),
            reference_orbit_type_data(g, a, cls, hom_group(g, a), class_id=i),
        )


def test_one_coset_walk_per_class(monkeypatch):
    # the counter's orbit data and the sampler's cocycle rows share each
    # class's transfer factors, so ``sample`` walks the cosets of each class
    # once, not twice
    walks = []

    def counted(group, cls):
        walks.append(cls)
        return coset_action(group, cls)

    monkeypatch.setattr(orbits, "coset_action", counted)
    # groups are cached by value, and a hypothesis test may have drawn this one
    for cache in (orbits._transfer_factors, counter_for, sampling._walk_of):
        cache.cache_clear()
    g, a = group_from_permutations([[1, 0, 2, 3], [0, 1, 3, 2], [2, 3, 0, 1]]), AbelianGroup((2,))
    for seed in range(3):  # these draws build rows in every class
        sampling.sample_hom(g, a, 40, random.Random(seed))
    classes = counter_for(g, a).classes
    assert all(rows for _, _, _, rows, _ in sampling._walk_of(counter_for(g, a)).classes)
    assert len(classes) == 8 and sorted(walks) == sorted(classes)


def _extensions_of_coset_action(group, coeffs, cls):
    """Brute force: all homomorphisms into A wr S_k lying over the coset action."""
    action = coset_action(group, cls)
    k = action.degree
    target = build_wreath_group(coeffs, k)
    candidate_lists = []
    for gi, s in enumerate(group.generators):
        sigma = action.perms[gi]
        order = group.element_order(s)
        # a generator's image must have the generator's order dividing it
        candidate_lists.append(
            [
                (sigma, d)
                for d in itertools.product(range(coeffs.order), repeat=k)
                if fn_power(target.mul, target.identity, (sigma, d), order) == target.identity
            ]
        )
    homs = []
    d = group.order
    for images in itertools.product(*candidate_lists):
        img = [0] * d
        img[0] = target.identity
        for x in group.eval_order[1:]:
            p, gi = group.parent_word[x]
            img[x] = target.mul(img[p], images[gi])
        if all(
            target.mul(img[a], img[b]) == img[group.mul(a, b)]
            for a in range(d)
            for b in range(d)
        ):
            homs.append(tuple(img))
    return target, homs


@pytest.mark.parametrize("name", ["C1", "C2", "C3", "C4", "V4", "S3"])
@pytest.mark.parametrize("coeffs", [AbelianGroup((2,)), AbelianGroup((3,))], ids=str)
def test_orbit_fibers_vs_bruteforce(name, coeffs):
    group = builtin_group(name)
    hg = hom_group(group, coeffs)
    for cls in subgroup_classes(group):
        k = cls.index
        if coeffs.order**k * math.factorial(k) > 10**6 or k > 6:
            continue
        od = orbit_type_data(group, coeffs, cls, hg)
        target, homs = _extensions_of_coset_action(group, coeffs, cls)
        assert len(homs) == od.weight
        fibers = [0] * hg.size
        for img in homs:
            fibers[hg.index_of([target.fold(img[s]) for s in group.generators])] += 1
        # brute-force extension fibers must be uniform on the fold subgroup
        _check_fold(od, fibers)
        assert tuple(fibers) == reference_orbit_type_data(group, coeffs, cls, hg).fiber


def test_orbit_data_json():
    g = builtin_group("C2")
    a = AbelianGroup((2,))
    od = orbit_type_data(g, a, _class_of(g, [0]), hom_group(g, a), class_id=3)
    assert orbit_data_to_json(od) == {
        "classId": 3,
        "k": 2,
        "c": 2,
        "weight": "2",
        "fold": [0],
    }

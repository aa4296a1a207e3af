import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from wreathhom import (
    AbelianGroup,
    GroupSpec,
    GroupTableError,
    SizeCapError,
    UnknownGroupError,
    abelianization,
    build_group,
    builtin_group,
    coset_action,
    full_group_class,
    group_from_permutations,
    group_from_table,
    subgroup_classes,
)
from wreathhom.groups import FiniteGroup, _abelian_decomposition
from oracles import (
    add,
    brute_subgroups,
    compose,
    invariant_factors_from_counts,
    index_sum,
    reference_abelian_decomposition,
    reference_commutator,
    reference_permutation_group,
    reference_subgroup_classes,
    scalar_mul,
    vectors,
    zero,
)
from strategies import invariant_factor_chains, permutation_lists, permutation_lists_6

BUILTINS = ["C1", "C2", "C3", "C4", "V4", "S3", "D4", "Q8"]


def s3_x_c2():
    return group_from_permutations([(1, 0, 2, 3, 4), (1, 2, 0, 3, 4), (0, 1, 2, 4, 3)], name="S3xC2")


def a4():
    return group_from_permutations([(1, 2, 0, 3), (1, 0, 3, 2)], name="A4")


def s4():
    return group_from_permutations([(1, 0, 2, 3), (1, 2, 3, 0)], name="S4")


def a5():
    return group_from_permutations([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], name="A5")


def c2_4():
    return group_from_permutations(
        [tuple(i ^ 1 if i // 2 == k else i for i in range(8)) for k in range(4)], name="C2^4"
    )


def s5_table(seed):
    """S5 as a 120 x 120 table, elements relabelled by the seed with the
    identity kept at 0 (the benchmark's ``newgroup`` input)."""
    perms = sorted(itertools.permutations(range(5)))
    label = list(range(1, 120))
    random.Random(seed).shuffle(label)
    index = {p: ([0] + label)[i] for i, p in enumerate(perms)}
    table = [[0] * 120 for _ in range(120)]
    for a in perms:
        for b in perms:
            table[index[a]][index[b]] = index[compose(a, b)]
    return table


# --- construction ---------------------------------------------------------


def test_cyclic_table():
    g = build_group(GroupSpec("C3", table=((0, 1, 2), (1, 2, 0), (2, 0, 1))))
    assert g.order == 3
    assert g.mul(1, 2) == 0
    assert g.inv(1) == 2


def test_bfs_closure_s3():
    g = group_from_permutations([(1, 0, 2), (1, 2, 0)])
    assert g.order == 6
    # closure must be exactly the six permutations of three points
    reachable = {tuple(range(3))}
    frontier = [tuple(range(3))]
    gens = [(1, 0, 2), (1, 2, 0)]
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = compose(p, q)
                if r not in reachable:
                    reachable.add(r)
                    nxt.append(r)
        frontier = nxt
    assert len(reachable) == 6


def test_missing_inverse_error():
    with pytest.raises(GroupTableError, match="no inverse for element 1"):
        group_from_table([[0, 1], [1, 1]])


def test_missing_identity_error():
    with pytest.raises(GroupTableError, match="identity"):
        group_from_table([[0, 0], [0, 0]])


def test_non_associative_error():
    with pytest.raises(GroupTableError, match="associative"):
        group_from_table([[0, 1, 2], [1, 1, 0], [2, 0, 1]])


def test_repeated_column_entry_is_not_associative():
    # rows are permutations and every element is its own inverse
    with pytest.raises(GroupTableError, match="associative: column 1"):
        group_from_table([[0, 1, 2], [1, 0, 2], [2, 1, 0]])


def test_latin_loop_fails_light_test():
    # Latin, identity 0, two-sided inverses: only Light's test can reject it
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    with pytest.raises(GroupTableError, match="associative at"):
        group_from_table(loop)
    with pytest.raises(GroupTableError, match="associative at"):
        FiniteGroup(loop, generators=range(5))


# Every message the row checks reach through their per-entry scans.
@pytest.mark.parametrize(
    "table, message",
    [
        ([[0, 1], [1, 2]], "table entry 2 in row 1 out of range 0..1"),
        ([[0, 1], [-1, 0]], "table entry -1 in row 1 out of range 0..1"),
        ([[0, 1], [1]], "row 1 has length 1, expected 2"),
        # row 1 holds 0 only at x = 2, and 2 * 1 = 1
        ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], "no inverse for element 1"),
        # row 2's first 0 has 1 * 2 = 2, but its second is a two-sided
        # inverse, so the repeated 0 is what fails
        ([[0, 1, 2], [1, 0, 2], [2, 0, 0]], "table is not associative: row 2 repeats an entry"),
        ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
         "table is not associative at (1,1,2)"),
    ],
)
@pytest.mark.parametrize("build", [group_from_table, FiniteGroup], ids=["group_from_table", "FiniteGroup"])
def test_table_check_messages_are_pinned(build, table, message):
    with pytest.raises(GroupTableError) as info:
        build(table)
    assert str(info.value) == message


@settings(max_examples=25, deadline=None, database=None)
@given(permutation_lists_6)
def test_row_passes_match_per_entry_references(perms):
    # the table by row gathers and [U, U] from generators of U, against the
    # table composed entry by entry and the closure of all |U|^2 commutators
    g = group_from_permutations(perms)
    assert (g.mul_table, g.inv_table, g.eval_order, g.parent_word) == reference_permutation_group(perms)
    for cls in subgroup_classes(g):
        assert abelianization(g, cls).commutator == reference_commutator(g, cls.elements)


def test_relabeled_table_is_the_swapped_table():
    s3 = builtin_group("S3")
    swap = {0: 4, 4: 0}
    relabel = [swap.get(x, x) for x in range(6)]
    table = [[relabel[s3.mul(relabel[a], relabel[b])] for b in range(6)] for a in range(6)]
    assert group_from_table(table, generators=[relabel[g] for g in s3.generators]) == s3


@pytest.mark.parametrize(
    "name, generators",
    [("C1", ()), ("C2", (1,)), ("C3", (1,)), ("C4", (1,)), ("V4", (1, 2))],
)
def test_greedy_generators_pinned(name, generators):
    # sample output depends on the generators, through the stored words
    assert builtin_group(name).generators == generators
    assert FiniteGroup(builtin_group(name).mul_table).generators == generators


def test_greedy_generators_pinned_s5_table():
    assert group_from_table(s5_table(0), name="S5").generators == (5, 6)


def test_identity_relabeled_to_zero():
    g = group_from_table([[1, 0], [0, 1]])
    assert g.mul(0, 1) == 1
    assert g.mul(1, 1) == 0


def test_closure_size_cap():
    # S8, from an 8-cycle and a transposition, has 40320 > 20000 elements
    with pytest.raises(SizeCapError, match="cap"):
        group_from_permutations([(1, 2, 3, 4, 5, 6, 7, 0), (1, 0, 2, 3, 4, 5, 6, 7)])


def test_generators_must_generate():
    from wreathhom.groups import FiniteGroup

    with pytest.raises(GroupTableError, match="generate"):
        FiniteGroup([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]], generators=[1])


def test_group_spec_roundtrip(tmp_path):
    spec = GroupSpec("V4", table=tuple(tuple(i ^ j for j in range(4)) for i in range(4)))
    data = {"name": "V4", "table": [[i ^ j for j in range(4)] for i in range(4)]}
    path = tmp_path / "v4.json"
    path.write_text(__import__("json").dumps(data))
    assert GroupSpec.from_path(path) == spec
    g = build_group(GroupSpec.from_path(path))
    assert g.order == 4

    spec2 = GroupSpec.from_json({"name": "S3", "permGenerators": [[1, 0, 2], [1, 2, 0]]})
    assert spec2 == GroupSpec("S3", perm_generators=((1, 0, 2), (1, 2, 0)))
    g2 = build_group(spec2)
    assert g2.order == 6


def test_group_spec_requires_one_form():
    with pytest.raises(GroupTableError, match="exactly one"):
        GroupSpec.from_json({"name": "bad"})


def test_builtin_orders_and_unknown():
    orders = {"C1": 1, "C2": 2, "C3": 3, "C4": 4, "V4": 4, "S3": 6, "D4": 8, "Q8": 8}
    for name, order in orders.items():
        assert builtin_group(name).order == order
    q8 = builtin_group("Q8")
    # element 1 is -1, Q8's only involution
    assert [x for x in range(1, 8) if q8.mul(x, x) == 0] == [1]
    with pytest.raises(UnknownGroupError):
        builtin_group("E8")


def test_element_orders_q8():
    q8 = builtin_group("Q8")
    assert sorted(q8.element_order(x) for x in range(8)) == [1, 2, 4, 4, 4, 4, 4, 4]


# --- subgroup classes -----------------------------------------------------


def test_subgroup_classes_c2():
    classes = subgroup_classes(builtin_group("C2"))
    assert [(c.elements, c.index, c.centralizer_order) for c in classes] == [
        ((0,), 2, 2),
        ((0, 1), 1, 1),
    ]


def test_subgroup_classes_s3():
    classes = subgroup_classes(builtin_group("S3"))
    assert [c.index for c in classes] == [6, 3, 2, 1]
    assert [c.centralizer_order for c in classes] == [6, 1, 2, 1]
    assert [c.conjugate_count for c in classes] == [1, 3, 1, 1]


def test_subgroup_classes_trivial():
    classes = subgroup_classes(builtin_group("C1"))
    assert len(classes) == 1
    assert classes[0].index == 1 and classes[0].centralizer_order == 1
    assert classes[0].is_full_group


def assert_classes_partition_subgroups(g, classes):
    brute = brute_subgroups(g)
    assert sum(c.conjugate_count for c in classes) == len(brute)
    # every class orbit is inside the brute set, and orbits partition it
    seen = set()
    for c in classes:
        rep = frozenset(c.elements)
        orbit = {
            frozenset(g.mul(g.mul(x, u), g.inv(x)) for u in rep) for x in range(g.order)
        }
        assert orbit <= brute
        assert len(orbit) == c.conjugate_count
        assert not (orbit & seen)
        seen |= orbit
    assert seen == brute


@pytest.mark.parametrize("name", BUILTINS)
def test_subgroup_classes_vs_subset_oracle(name):
    g = builtin_group(name)
    assert_classes_partition_subgroups(g, subgroup_classes(g))


# groups with elements of composite order, which the class worklist does not
# extend by: C6 x C2, C12, and D8, the dihedral group of order 16
COMPOSITE_ORDER_GROUPS = {
    "C6xC2": [(1, 2, 3, 4, 5, 0, 6, 7), (0, 1, 2, 3, 4, 5, 7, 6)],
    "C12": [(*range(1, 12), 0)],
    "D8": [(1, 2, 3, 4, 5, 6, 7, 0), (0, 7, 6, 5, 4, 3, 2, 1)],
}


@pytest.mark.parametrize(
    "group",
    [builtin_group(n) for n in BUILTINS]
    + [s4(), a5(), c2_4(), group_from_table(s5_table(0), name="S5")]
    + [group_from_permutations(perms, name=name) for name, perms in COMPOSITE_ORDER_GROUPS.items()],
    ids=lambda g: g.name,
)
def test_subgroup_classes_vs_pairwise_join_reference(group):
    assert subgroup_classes(group) == reference_subgroup_classes(group)


@settings(max_examples=40, deadline=None, database=None)
@given(permutation_lists)
def test_subgroup_classes_random_permutation_groups(perms):
    g = group_from_permutations(perms)
    classes = subgroup_classes(g)
    assert classes == reference_subgroup_classes(g)
    if g.order <= 10:
        assert_classes_partition_subgroups(g, classes)


@pytest.mark.parametrize("name", BUILTINS)
def test_subgroup_class_structure(name):
    g = builtin_group(name)
    classes = subgroup_classes(g)
    assert sum(1 for c in classes if c.is_full_group) == 1
    assert classes[-1].is_full_group
    sizes = [c.order for c in classes]
    assert sizes == sorted(sizes)
    for c in classes:
        assert c.index * c.order == g.order
        assert c.centralizer_order * c.order == c.normalizer_order
        members = set(c.elements)
        assert all(g.mul(a, b) in members for a in members for b in members)
        assert all(g.inv(a) in members for a in members)


# --- coset actions --------------------------------------------------------


def _action_on_every_element(group, action):
    """Extend the generator permutations to every element along
    ``group.parent_word`` (x = parent * generator, so the generator acts first)."""
    img = [tuple(range(action.degree))] * group.order
    for x in group.eval_order[1:]:
        parent, gi = group.parent_word[x]
        img[x] = compose(img[parent], action.perms[gi])
    return img


def test_coset_action_trivial():
    g = builtin_group("S3")
    action = coset_action(g, full_group_class(g))
    assert action.degree == 1
    assert len(action.perms) == len(g.generators)
    assert all(p == (0,) for p in action.perms)


def test_coset_action_regular_c4():
    g = builtin_group("C4")
    trivial = subgroup_classes(g)[0]
    action = coset_action(g, trivial)
    assert action.degree == 4
    assert g.generators == (1,)
    gen_perm = action.perms[0]
    # the generator must act as a 4-cycle
    seen, j = [], 0
    for _ in range(4):
        seen.append(j)
        j = gen_perm[j]
    assert sorted(seen) == [0, 1, 2, 3] and j == 0


def test_coset_action_s3_natural():
    g = builtin_group("S3")
    c2 = next(c for c in subgroup_classes(g) if c.order == 2)
    action = coset_action(g, c2)
    assert action.degree == 3
    img = _action_on_every_element(g, action)
    stabilizer = [x for x in range(6) if img[x][0] == 0]
    assert len(stabilizer) == 2


@pytest.mark.parametrize("group", [builtin_group(n) for n in BUILTINS] + [s3_x_c2(), a4()])
def test_coset_action_is_homomorphism(group):
    for cls in subgroup_classes(group):
        action = coset_action(group, cls)
        t = action.transversal
        members = set(cls.elements)
        assert t[0] == 0
        assert len(action.perms) == len(group.generators)
        img = _action_on_every_element(group, action)
        # every Cayley edge x -> x s is respected, so the extension is a homomorphism
        for x in range(group.order):
            for gi, s in enumerate(group.generators):
                assert img[group.mul(x, s)] == compose(img[x], action.perms[gi])
        # and it is the action on cosets: x t_j lies in the coset of point img[x][j]
        for x in range(group.order):
            for j in range(action.degree):
                assert group.mul(group.inv(t[img[x][j]]), group.mul(x, t[j])) in members
        # transitivity and point stabilizer of 0
        assert {img[x][0] for x in range(group.order)} == set(range(action.degree))
        assert {x for x in range(group.order) if img[x][0] == 0} == members


# --- abelianization -------------------------------------------------------


def test_abelianization_examples():
    s3 = builtin_group("S3")
    assert abelianization(s3, full_group_class(s3)).group.invariant_factors == (2,)
    c4 = builtin_group("C4")
    assert abelianization(c4, full_group_class(c4)).group.invariant_factors == (4,)
    v4 = builtin_group("V4")
    assert abelianization(v4, full_group_class(v4)).group.invariant_factors == (2, 2)
    d4 = builtin_group("D4")
    assert abelianization(d4, full_group_class(d4)).group.invariant_factors == (2, 2)
    q8 = builtin_group("Q8")
    assert abelianization(q8, full_group_class(q8)).group.invariant_factors == (2, 2)
    assert abelianization(a4(), full_group_class(a4())).group.invariant_factors == (3,)


@pytest.mark.parametrize("group", [builtin_group(n) for n in BUILTINS] + [s3_x_c2()])
def test_abelianization_projection_properties(group):
    for cls in subgroup_classes(group):
        ab = abelianization(group, cls)
        proj = ab.projection
        members = list(cls.elements)
        # surjective homomorphism with kernel the commutator subgroup
        assert set(proj.values()) == set(vectors(ab.group))
        for a in members:
            for b in members:
                assert proj[group.mul(a, b)] == add(ab.group, proj[a], proj[b])
        kernel = {u for u in members if proj[u] == zero(ab.group)}
        assert kernel == set(ab.commutator)
        assert len(members) == ab.group.order * len(ab.commutator)


@pytest.mark.parametrize("group", [builtin_group(n) for n in BUILTINS] + [s3_x_c2()])
def test_abelian_subgroup_invariants_vs_counting_oracle(group):
    for cls in subgroup_classes(group):
        members = list(cls.elements)
        abelian = all(
            group.mul(a, b) == group.mul(b, a) for a in members for b in members
        )
        if not abelian:
            continue
        expected = invariant_factors_from_counts(members, group.mul, 0)
        assert abelianization(group, cls).group.invariant_factors == expected


def cyclic_product(*orders):
    """C_m1 x C_m2 x ... as a permutation group, one disjoint cycle each."""
    starts = list(itertools.accumulate(orders, initial=0))
    gens = [
        tuple(a + (i - a + 1) % m if a <= i < a + m else i for i in range(starts[-1]))
        for a, m in zip(starts, orders)
    ]
    return group_from_permutations(gens, name="x".join(f"C{m}" for m in orders))


def check_decomposition_matches_reference(group):
    # U/[U, U] labelled as abelianization labels it, each coset by its least
    # element; the picks decide every sample byte, so they must be the
    # reference's, and abelianization must read its projection off them
    for cls in subgroup_classes(group):
        ab = abelianization(group, cls)
        rep_of = {u: min(group.mul(u, c) for c in ab.commutator) for u in cls.elements}
        labels = sorted(set(rep_of.values()))

        def qmul(a, b):
            return rep_of[group.mul(a, b)]

        got = _abelian_decomposition(labels, qmul, 0)
        assert got == reference_abelian_decomposition(labels, qmul, 0), cls.elements
        assert ab.group.invariant_factors == got[0]
        assert ab.projection == {u: got[2][rep_of[u]] for u in cls.elements}


@pytest.mark.parametrize(
    "group",
    [builtin_group(n) for n in BUILTINS]
    + [
        s4(),
        group_from_table(s5_table(0), name="S5"),
        group_from_permutations([(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)], name="S6"),
        group_from_permutations([(1, 0, 3, 2, 5, 4, 7, 6), (0, 2, 4, 6, 3, 1, 7, 5)], name="F56"),
        cyclic_product(2, 6, 3),
        cyclic_product(9, 3),
        cyclic_product(5, 10),
        cyclic_product(4, 8),
    ],
    ids=lambda g: g.name,
)
def test_abelian_decomposition_matches_reference_on_class_quotients(group):
    check_decomposition_matches_reference(group)


@settings(max_examples=25, deadline=None, database=None)
@given(permutation_lists_6)
def test_abelian_decomposition_matches_reference_random_permutation_groups(perms):
    check_decomposition_matches_reference(group_from_permutations(perms))


@settings(max_examples=60, deadline=None, database=None)
@given(invariant_factor_chains, st.data())
def test_abelian_decomposition_matches_reference_relabelled_chains(chain, data):
    # ties between elements of one order are broken by label order, so the
    # elements of the chain's group get random labels
    ab = AbelianGroup(chain)
    elements = vectors(ab)
    label = data.draw(st.permutations(range(len(elements))))
    vec = {label[i]: v for i, v in enumerate(elements)}

    def mul(a, b):
        return label[ab.index_of(add(ab, vec[a], vec[b]))]

    labels = range(len(elements))
    got = _abelian_decomposition(labels, mul, label[0])
    assert got == reference_abelian_decomposition(labels, mul, label[0])
    assert got[0] == chain


# --- abelian groups -------------------------------------------------------


def test_abelian_group_validation():
    with pytest.raises(ValueError, match="at least 2"):
        AbelianGroup((1,))
    with pytest.raises(ValueError, match="divide"):
        AbelianGroup((4, 2))
    assert AbelianGroup(()).order == 1
    assert AbelianGroup((2, 4)).order == 8


def test_abelian_group_arithmetic():
    a = AbelianGroup((2, 4))
    assert add(a, (1, 3), (1, 2)) == (0, 1)
    assert scalar_mul(a, -1, (1, 3)) == (1, 1)
    for i, vec in enumerate(vectors(a)):
        assert a.index_of(vec) == i
    # (1, 3) + (1, 2) - 0 and (1, 1) + (0, 2) - (0, 3), as indices
    assert a.add_sub([7, 5], [6, 2], [0, 3]) == [1, 4]
    assert a.total([7, 6, 5]) == 6  # (1, 3) + (1, 2) + (1, 1)
    assert AbelianGroup(()).add_sub([0, 0], [0, 0], [0, 0]) == [0, 0]
    assert AbelianGroup(()).total([0, 0]) == 0


@settings(max_examples=60, deadline=None, database=None)
@given(invariant_factor_chains, st.data())
def test_abelian_group_index_arithmetic_matches_tuple_arithmetic(chain, data):
    # add_sub and total on element indices against sums of their vectors
    a = AbelianGroup(chain)
    indices = st.lists(st.integers(0, a.order - 1), min_size=5, max_size=5)
    xs, ys, zs = (data.draw(indices) for _ in range(3))
    expected = [index_sum(a, (1, x), (1, y), (-1, z)) for x, y, z in zip(xs, ys, zs)]
    assert a.add_sub(xs, ys, zs) == expected
    assert a.add_sub(xs, iter(ys), zs) == expected  # the sampler chains its ys
    assert a.total(xs) == index_sum(a, *((1, x) for x in xs))


# --- records ----------------------------------------------------------------


def test_equal_records_are_one_cache_key():
    from wreathhom.counting import counter_for

    a1, a2 = AbelianGroup((2, 4)), AbelianGroup([2, 4])
    assert a1 is not a2 and a1 == a2 and hash(a1) == hash(a2)
    assert a1 != AbelianGroup((8,)) and a1 != (2, 4)
    g1, g2 = s3_x_c2(), s3_x_c2()
    c1, c2 = full_group_class(g1), full_group_class(g2)
    assert c1 is not c2 and c1 == c2 and hash(c1) == hash(c2)
    assert coset_action(g1, c1) is coset_action(g2, c2)
    first = counter_for(g1, a1)
    hits = counter_for.cache_info().hits
    assert counter_for(g2, a2) is first
    assert counter_for.cache_info().hits == hits + 1


def _records():
    from wreathhom import DistributionTable, builtin_group, delta_distribution, decay_constant, hom_group
    from wreathhom import orbit_type_data, sample_hom

    g, a = builtin_group("S3"), AbelianGroup((2,))
    cls = subgroup_classes(g)[0]
    homs = hom_group(g, a)
    return {
        "AbelianGroup": a,
        "SubgroupClass": cls,
        "PermutationAction": coset_action(g, cls),
        "Abelianization": abelianization(g, cls),
        "GroupSpec": GroupSpec("C1", table=((0,),)),
        "DistributionTable": delta_distribution(g, a, 3),
        "DecayConstant": decay_constant(g, a),
        "OrbitTypeData": orbit_type_data(g, a, cls, homs),
        "WreathHom": sample_hom(g, a, 3, random.Random(0)),
    }


@pytest.mark.parametrize("name", ["AbelianGroup", "SubgroupClass", "PermutationAction", "Abelianization", "GroupSpec",
                                  "DistributionTable", "DecayConstant", "OrbitTypeData", "WreathHom"])
def test_records_are_immutable(name):
    record = _records()[name]
    assert type(record).__name__ == name
    assert isinstance(record, tuple) and record._fields
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record).startswith(f"{name}({field}=")


def test_abelian_group_keeps_its_validation_message():
    with pytest.raises(ValueError) as info:
        AbelianGroup((2, 3))
    assert str(info.value) == "invariant factor 2 does not divide successor 3"

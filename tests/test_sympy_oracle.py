"""Group orders and commutator subgroups checked against sympy, an oracle
that shares no code with ``wreathhom.groups``."""

import pytest
from hypothesis import given, settings

from strategies import permutation_lists_6
from wreathhom import abelianization, builtin_group, full_group_class, group_from_permutations

combinatorics = pytest.importorskip("sympy.combinatorics")

# The generators ``builtin_group`` builds its permutation groups from.
BUILTIN_PERMS = {"S3": [(1, 0, 2), (1, 2, 0)], "D4": [(1, 2, 3, 0), (3, 2, 1, 0)]}


def assert_orders_match_sympy(group, perms):
    reference = combinatorics.PermutationGroup([combinatorics.Permutation(list(p)) for p in perms])
    assert group.order == reference.order()
    commutator = abelianization(group, full_group_class(group)).commutator
    assert len(commutator) == reference.derived_subgroup().order()


@pytest.mark.parametrize("name", BUILTIN_PERMS)
def test_permutation_builtins_match_sympy(name):
    group = builtin_group(name)
    assert group == group_from_permutations(BUILTIN_PERMS[name], name=name)
    assert_orders_match_sympy(group, BUILTIN_PERMS[name])


@pytest.mark.parametrize("name", ["C1", "C2", "C3", "C4", "V4", "S3", "D4", "Q8"])
def test_builtins_in_their_regular_representation_match_sympy(name):
    # g acts on the elements by left multiplication, read from the table
    group = builtin_group(name)
    regular = [[group.mul(g, x) for x in range(group.order)] for g in group.generators or (0,)]
    assert_orders_match_sympy(group, regular)


# S6, the largest group these draws reach, takes about 0.1 s to build; the
# draws are fewer than test_groups.py's on at most 5 points
@settings(max_examples=20, deadline=None, database=None)
@given(permutation_lists_6)
def test_random_permutation_groups_match_sympy(perms):
    assert_orders_match_sympy(group_from_permutations(perms), perms)

"""Per-orbit extension data for one subgroup class.

An orbit of the active permutation action isomorphic to the coset action
on G/U admits |A|^(k-1) * |Hom(U, A)| decorated extensions.  Extension u in
Hom(U, A) folds to u o V, where V is the transfer into the abelianization
of U; that refines the count by fold value, giving the fiber vector
consumed by the exact distribution recurrence.  A homomorphism is fixed by
its values on the generators, so the fibers are read off the transfer V(s)
of each generator s, and the sampler's table of u(h_j(s)) over generators
s and cosets j off the same factors h_j(s).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .groups import (
    AbelianGroup,
    FiniteGroup,
    InvariantError,
    SubgroupClass,
    abelianization,
    coset_action,
)
from .homs import HomGroup, abelian_hom_evaluator, abelian_homs, hom_count_abelian


@lru_cache(maxsize=None)
def _transfer_factors(group: FiniteGroup, cls: SubgroupClass) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """``cocycle[i][j]``: h_j(s) = t_(s.j)^-1 s t_j in the abelianization of
    U, for generator s = ``group.generators[i]``, coset j and the coset
    transversal t; the transfer is V(s) = sum_j h_j(s).  Cached, so the
    counter and the sampler walk each class's cosets once."""
    action = coset_action(group, cls)
    ab = abelianization(group, cls)
    t = action.transversal
    cocycle = []
    for s, perm in zip(group.generators, action.perms):
        row = []
        for j in range(action.degree):
            x = group.mul(group.inv(t[perm[j]]), group.mul(s, t[j]))
            if x not in ab.projection:
                raise InvariantError(f"transfer factor {x} of element {s} is not in the subgroup")
            row.append(ab.projection[x])
        cocycle.append(tuple(row))
    return tuple(cocycle)


@lru_cache(maxsize=None)
def cocycle_table(
    group: FiniteGroup, coeffs: AbelianGroup, cls: SubgroupClass
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """``table[u][i][j]``: the A-element index of u(h_j(s)) for the i-th
    homomorphism u in Hom(U, A) (``abelian_homs`` order), generator
    s = ``group.generators[i]`` and coset j (``_transfer_factors``); the
    sampler decorates each orbit point by point from it."""
    cocycle = _transfer_factors(group, cls)
    distinct = set().union(*cocycle)  # at most |U^ab| vectors, however many (s, j)
    table = []
    for images in abelian_homs(abelianization(group, cls).group, coeffs):
        evaluate = abelian_hom_evaluator(coeffs, images)
        value = {vec: evaluate(vec) for vec in distinct}
        table.append(tuple(tuple(value[vec] for vec in row) for row in cocycle))
    return tuple(table)


class OrbitTypeData(NamedTuple):
    """Extension weight and fold-fiber vector of one subgroup class.

    ``weight`` is |A|^(k-1) * |Hom(U, A)|, the number of decorated
    extensions over a single orbit; ``fiber[psi]`` counts those whose fold
    contribution is the HomGroup element psi.  Fibers always sum to the
    weight.
    """

    class_id: int
    k: int
    c: int
    weight: int
    fiber: tuple[int, ...]


def orbit_type_data(
    group: FiniteGroup,
    coeffs: AbelianGroup,
    cls: SubgroupClass,
    homs: HomGroup,
    class_id: int = 0,
) -> OrbitTypeData:
    """Weight and fiber vector for one class: the transfer V(s) of each
    generator s, summed from its factors, then for each u in Hom(U, A) the
    generator images u(V(s)) of u o V, located inside Hom(G, A)."""
    k = cls.index
    ab = abelianization(group, cls)
    transfer = [tuple(map(sum, zip(*row))) for row in _transfer_factors(group, cls)]
    base = coeffs.order ** (k - 1)
    fiber = [0] * homs.size
    for images in abelian_homs(ab.group, coeffs):
        evaluate = abelian_hom_evaluator(coeffs, images)
        fiber[homs.index_of([evaluate(v) for v in transfer])] += base
    weight = base * hom_count_abelian(ab.group, coeffs)
    if sum(fiber) != weight:
        raise InvariantError(f"orbit fibers of class {class_id} do not sum to its weight")
    return OrbitTypeData(
        class_id=class_id,
        k=k,
        c=cls.centralizer_order,
        weight=weight,
        fiber=tuple(fiber),
    )

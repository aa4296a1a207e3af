"""Per-orbit extension data for one subgroup class.

An orbit of the active permutation action isomorphic to the coset action
on G/U admits |A|^(k-1) * |Hom(U, A)| decorated extensions.  Extension u in
Hom(U, A) folds to u o V, where V is the transfer into the abelianization
of U; u -> u o V is a homomorphism into Hom(G, A), so the extensions fold
uniformly onto its image, the fold subgroup consumed by the exact
distribution recurrence.  A homomorphism is fixed by its values on the
generators, so the fold subgroup is spanned by u(V(s)) over a basis of
Hom(U, A) and generators s, and the sampler's row of u(h_j(s)) over
generators s and cosets j is read off the same factors h_j(s).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .groups import AbelianGroup, FiniteGroup, InvariantError, SubgroupClass, abelianization, coset_action
from .homs import HomGroup, abelian_hom, abelian_hom_basis, abelian_hom_evaluator, hom_count_abelian


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


def cocycle_row(
    group: FiniteGroup, coeffs: AbelianGroup, cls: SubgroupClass, u: int
) -> tuple[tuple[int, ...], ...]:
    """``row[i][j]``: the A-element index of u(h_j(s)) for the u-th
    homomorphism in Hom(U, A) (``abelian_hom`` order), generator
    s = ``group.generators[i]`` and coset j (``_transfer_factors``); the
    sampler decorates an orbit with u point by point from it."""
    evaluate = abelian_hom_evaluator(coeffs, abelian_hom(abelianization(group, cls).group, coeffs, u))
    return tuple(tuple(map(evaluate, row)) for row in _transfer_factors(group, cls))


class OrbitTypeData(NamedTuple):
    """Extension weight and fold subgroup of one subgroup class.

    ``weight`` is |A|^(k-1) * |Hom(U, A)|, the number of decorated
    extensions over a single orbit.  ``fold`` is K, the image of the fold
    map u -> u o V in Hom(G, A) as HomGroup indices: a homomorphism hits
    each element of its image equally often, so weight / |K| extensions
    fold onto each psi in K and none onto any other.
    """

    class_id: int
    k: int
    c: int
    weight: int
    fold: frozenset[int]


def orbit_type_data(
    group: FiniteGroup,
    coeffs: AbelianGroup,
    cls: SubgroupClass,
    homs: HomGroup,
    class_id: int = 0,
) -> OrbitTypeData:
    """Weight and fold subgroup for one class: the transfer V(s) of each
    generator s, summed from its factors, then for each u in a basis of
    Hom(U, A) the generator images u(V(s)) of u o V, located inside
    Hom(G, A); those span the fold subgroup."""
    k = cls.index
    ab = abelianization(group, cls)
    transfer = [tuple(map(sum, zip(*row))) for row in _transfer_factors(group, cls)]
    basis = (abelian_hom_evaluator(coeffs, images) for images in abelian_hom_basis(ab.group, coeffs))
    folds = [homs.index_of([evaluate(v) for v in transfer]) for evaluate in basis]
    return OrbitTypeData(
        class_id=class_id,
        k=k,
        c=cls.centralizer_order,
        weight=coeffs.order ** (k - 1) * hom_count_abelian(ab.group, coeffs),
        fold=frozenset(homs.span({0}, folds)),
    )

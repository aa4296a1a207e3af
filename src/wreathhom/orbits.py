"""Per-orbit extension data for one subgroup class.

An orbit of the active permutation action isomorphic to the coset action
on G/U admits |A|^(k-1) * |Hom(U, A)| decorated extensions.  The transfer
map into the abelianization of U refines that count by the fold value each
extension contributes, giving the fiber vector consumed by the exact
distribution recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .groups import (
    AbelianGroup,
    FiniteGroup,
    InvariantError,
    SubgroupClass,
    abelianization,
    coset_action,
)
from .homs import HomGroup, abelian_homs, evaluate_abelian_hom, hom_count_abelian


@dataclass(frozen=True)
class TransferMap:
    """The transfer homomorphism G -> U/[U,U] built from a coset transversal.

    ``values[g]`` is the mixed-radix vector of the image of g in ``target``;
    the map is independent of the transversal used.
    """

    values: tuple[tuple[int, ...], ...]
    target: AbelianGroup


@lru_cache(maxsize=None)
def transfer_map(group: FiniteGroup, cls: SubgroupClass) -> TransferMap:
    action = coset_action(group, cls)
    return TransferMap(
        values=transfer_values_for_transversal(group, cls, action.transversal),
        target=abelianization(group, cls).group,
    )


def transfer_values_for_transversal(
    group: FiniteGroup, cls: SubgroupClass, transversal: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """Transfer values computed with an explicit transversal.

    ``transversal[j]`` must represent the same coset as the canonical
    transversal's point j.  Exposed so transversal independence can be
    exercised directly.
    """
    action = coset_action(group, cls)
    ab = abelianization(group, cls)
    members = set(cls.elements)
    for j, t in enumerate(transversal):
        if group.mul(group.inv(action.transversal[j]), t) not in members:
            raise ValueError(f"transversal element {t} does not represent coset {j}")
    values = []
    for g in range(group.order):
        acc = ab.group.zero()
        perm = action.perms[g]
        for j in range(action.degree):
            x = group.mul(group.inv(transversal[perm[j]]), group.mul(g, transversal[j]))
            if x not in members:
                raise InvariantError(f"transfer factor {x} of element {g} is not in the subgroup")
            acc = ab.group.add(acc, ab.projection[x])
        values.append(acc)
    return tuple(values)


@dataclass(frozen=True)
class OrbitTypeData:
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
    """Weight and fiber vector for one class: enumerate u in Hom(U, A) and
    locate each composite u o transfer inside Hom(G, A)."""
    k = cls.index
    ab = abelianization(group, cls)
    ver = transfer_map(group, cls)
    base = coeffs.order ** (k - 1)
    fiber = [0] * homs.size
    for images in abelian_homs(ab.group, coeffs):
        values = tuple(
            coeffs.index_of(evaluate_abelian_hom(coeffs, images, ver.values[g]))
            for g in range(group.order)
        )
        fiber[homs.index_of(values)] += base
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


def orbit_data_to_json(data: OrbitTypeData) -> dict:
    """JSON form with big integers as decimal strings."""
    return {
        "classId": data.class_id,
        "k": data.k,
        "c": data.c,
        "weight": str(data.weight),
        "fiber": [str(x) for x in data.fiber],
    }

"""Homomorphisms from a finite group into a finite abelian group.

Counts by the gcd formula on invariant factors, and the full group
Hom(G, A) under pointwise addition, which indexes every distribution
table produced by the counting engine.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .groups import (
    AbelianGroup,
    FiniteGroup,
    InvariantError,
    abelian_index_tables,
    abelianization,
    full_group_class,
)


def hom_count_abelian(source: AbelianGroup, coeffs: AbelianGroup) -> int:
    """|Hom(B, A)| = product of gcd(b_i, a_j) over invariant factors."""
    return math.prod(
        math.gcd(b, a)
        for b in source.invariant_factors
        for a in coeffs.invariant_factors
    )


def abelian_homs(source: AbelianGroup, coeffs: AbelianGroup) -> list[tuple[tuple[int, ...], ...]]:
    """All homomorphisms between abelian groups, as images of the cyclic generators.

    The image of the order-b generator ranges over elements killed by b;
    homomorphisms are listed in lexicographic image order.
    """
    per_factor = []
    for b in source.invariant_factors:
        images = [v for v in coeffs.vectors() if coeffs.scalar_mul(b, v) == coeffs.zero()]
        per_factor.append(images)
    homs = [tuple(combo) for combo in itertools.product(*per_factor)]
    if len(homs) != hom_count_abelian(source, coeffs):
        raise InvariantError("abelian hom enumeration disagrees with the gcd count")
    return homs


def evaluate_abelian_hom(
    coeffs: AbelianGroup, images: Sequence[tuple[int, ...]], vec: Sequence[int]
) -> tuple[int, ...]:
    """Apply a hom given by generator images to a mixed-radix source vector."""
    out = coeffs.zero()
    for c, img in zip(vec, images):
        out = coeffs.add(out, coeffs.scalar_mul(c, img))
    return out


@dataclass(frozen=True)
class AbelianHom:
    """A homomorphism G -> A stored as the full value vector.

    ``values[g]`` is the element index in A of the image of group element g;
    full storage keeps evaluation O(1) inside the counting loops.
    """

    values: tuple[int, ...]

    def __getitem__(self, g: int) -> int:
        return self.values[g]


class HomGroup:
    """Hom(G, A) as an abelian group under pointwise addition.

    Elements are in lexicographic value-vector order, so index 0 is the
    trivial homomorphism.  A homomorphism is fixed by its values on the
    generators, so ``index_of`` and the add table key elements by those.
    """

    def __init__(self, group: FiniteGroup, coeffs: AbelianGroup, homs: Sequence[AbelianHom]):
        self.group = group
        self.coeffs = coeffs
        self.elements = tuple(sorted(homs, key=lambda h: h.values))
        self.size = len(self.elements)
        if self.elements[0].values != (0,) * group.order:
            raise InvariantError("trivial homomorphism missing or not first")
        gen_values = [tuple(h.values[s] for s in group.generators) for h in self.elements]
        self._index = {v: i for i, v in enumerate(gen_values)}
        add_idx, _ = abelian_index_tables(coeffs)
        self.add_table = tuple(
            tuple(self._index[tuple(add_idx[x][y] for x, y in zip(v1, v2))] for v2 in gen_values)
            for v1 in gen_values
        )

    def index_of(self, gen_values: Sequence[int]) -> int:
        """Index of the homomorphism sending ``group.generators[i]`` to the
        A-element index ``gen_values[i]``."""
        return self._index[tuple(gen_values)]

    def __repr__(self) -> str:
        return f"HomGroup({self.group.name} -> {list(self.coeffs.invariant_factors)}, size={self.size})"


@lru_cache(maxsize=None)
def hom_group(group: FiniteGroup, coeffs: AbelianGroup) -> HomGroup:
    """All homomorphisms G -> A, lifted through the abelianization of G."""
    ab = abelianization(group, full_group_class(group))
    homs = []
    for images in abelian_homs(ab.group, coeffs):
        values = tuple(
            coeffs.index_of(evaluate_abelian_hom(coeffs, images, ab.projection[g]))
            for g in range(group.order)
        )
        homs.append(AbelianHom(values))
    if len({h.values for h in homs}) != len(homs):
        raise InvariantError("distinct abelian homs lift to equal maps on G")
    return HomGroup(group, coeffs, homs)


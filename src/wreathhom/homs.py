"""Homomorphisms from a finite group into a finite abelian group.

Counts by the gcd formula on invariant factors, and the full group
Hom(G, A) under pointwise addition, which indexes every distribution
table produced by the counting engine.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .groups import (
    AbelianGroup,
    FiniteGroup,
    InvariantError,
    SizeCapError,
    abelian_index_tables,
    abelianization,
    full_group_class,
)

# The largest h = |Hom(G, A)|.  A fiber query builds the fold lattice in
# O(h |lattice|) additions: ``delta --n 1`` with h = 2048 takes 0.17-0.28 s
# and 17.4 MB (2.3-3.7 s and 48 MB with |A| = 1024 too, mostly A's addition
# table).  The cap was set at 0.9-1.5 s, when the set-up was O(h^2) and
# h = 4096 took 6.5-7.8 s (Python 3.11, 2-vCPU VM).
HOM_GROUP_CAP = 2048


def hom_count_abelian(source: AbelianGroup, coeffs: AbelianGroup) -> int:
    """|Hom(B, A)| = product of gcd(b_i, a_j) over invariant factors."""
    return math.prod(
        math.gcd(b, a)
        for b in source.invariant_factors
        for a in coeffs.invariant_factors
    )


def abelian_hom(source: AbelianGroup, coeffs: AbelianGroup, index: int) -> tuple[tuple[int, ...], ...]:
    """The ``index``-th homomorphism B -> A in lexicographic order of the
    images of B's cyclic generators.  Hom(B, A) is the sum of its gcd cells
    Z/gcd(b_i, a_j): ``index`` is read as mixed-radix digits in those radices,
    last cell fastest, and digit d of cell (i, j) sends generator i to
    d a_j / gcd(b_i, a_j) in factor j of A."""
    images = []
    for b in reversed(source.invariant_factors):
        image = []
        for a in reversed(coeffs.invariant_factors):
            index, digit = divmod(index, g := math.gcd(b, a))
            image.append(digit * (a // g))
        images.append(tuple(reversed(image)))
    return tuple(reversed(images))


def abelian_homs(source: AbelianGroup, coeffs: AbelianGroup) -> list[tuple[tuple[int, ...], ...]]:
    """All homomorphisms between abelian groups, in ``abelian_hom`` order."""
    return [abelian_hom(source, coeffs, i) for i in range(hom_count_abelian(source, coeffs))]


def abelian_hom_basis(source: AbelianGroup, coeffs: AbelianGroup) -> list[tuple[tuple[int, ...], ...]]:
    """Generators of Hom(B, A): ``abelian_hom`` at the place value of each
    gcd cell of order above 1, the homomorphism with digit 1 there alone."""
    radices = [math.gcd(b, a) for b in source.invariant_factors for a in coeffs.invariant_factors]
    return [abelian_hom(source, coeffs, math.prod(radices[c + 1 :])) for c, r in enumerate(radices) if r > 1]


def abelian_hom_evaluator(
    coeffs: AbelianGroup, images: Sequence[tuple[int, ...]]
) -> Callable[[Sequence[int]], int]:
    """The A-element index of sum_i vec_i images_i, for a hom given by the
    images of the cyclic generators, read off the index tables: one lookup
    per coordinate once each image's multiples are listed."""
    add, _ = abelian_index_tables(coeffs)
    rows = []
    for img in images:
        x = coeffs.index_of(img)
        row, y = [0], x
        while y:  # 0, x, 2x, ... up to the order of x
            row.append(y)
            y = add[y][x]
        rows.append(row)

    def value(vec: Sequence[int]) -> int:
        acc = 0
        for c, row in zip(vec, rows):
            acc = add[acc][row[c % len(row)]]
        return acc

    return value


class HomGroup:
    """Hom(G, A) as an abelian group under pointwise addition.

    Each element is its value tuple: entry g is the A-element index of the
    image of group element g.  Elements are in lexicographic order, so
    index 0 is the trivial homomorphism.  A homomorphism is fixed by its
    values on the generators, so ``index_of`` keys elements by those, and
    ``add`` and ``span`` add through it.
    """

    def __init__(self, group: FiniteGroup, coeffs: AbelianGroup, homs: Sequence[tuple[int, ...]]):
        self.group = group
        self.coeffs = coeffs
        self.elements = tuple(sorted(homs))
        self.size = len(self.elements)
        if self.elements[0] != (0,) * group.order:
            raise InvariantError("trivial homomorphism missing or not first")
        self._index = {tuple(v[s] for s in group.generators): i for i, v in enumerate(self.elements)}
        self._gen_values = list(self._index)
        self._add_a, _ = abelian_index_tables(coeffs)

    def index_of(self, gen_values: Sequence[int]) -> int:
        """Index of the homomorphism sending ``group.generators[i]`` to the
        A-element index ``gen_values[i]``."""
        return self._index[tuple(gen_values)]

    def add(self, x: int, y: int) -> int:
        """Index of the pointwise sum of elements x and y."""
        return self._index[tuple(self._add_a[a][b] for a, b in zip(self._gen_values[x], self._gen_values[y]))]

    def span(self, base: Iterable[int], gens: Iterable[int]) -> set[int]:
        """The subgroup generated by the subgroup ``base`` and ``gens``: for
        each g in turn, the cosets of the subgroup so far at g, 2g, ... up
        to the first multiple already in it.  That is |span| additions and
        one membership test per g already inside, not |base| |span| sums."""
        group = set(base)
        for g in gens:
            if g not in group:
                old, x = list(group), g
                while x not in group:
                    group.update(self.add(y, x) for y in old)
                    x = self.add(x, g)
        return group

    def __repr__(self) -> str:
        return f"HomGroup({self.group.name} -> {list(self.coeffs.invariant_factors)}, size={self.size})"


@lru_cache(maxsize=None)
def hom_group(group: FiniteGroup, coeffs: AbelianGroup) -> HomGroup:
    """All homomorphisms G -> A, lifted through the abelianization of G,
    refused before any is listed if there are more than ``HOM_GROUP_CAP``."""
    ab = abelianization(group, full_group_class(group))
    h = hom_count_abelian(ab.group, coeffs)
    if h > HOM_GROUP_CAP:
        raise SizeCapError(f"|Hom(G, A)| = {h} exceeds cap {HOM_GROUP_CAP}")
    homs = set()
    for images in abelian_homs(ab.group, coeffs):
        value = abelian_hom_evaluator(coeffs, images)
        homs.add(tuple(value(ab.projection[g]) for g in range(group.order)))
    if len(homs) != h:
        raise InvariantError("distinct abelian homs lift to equal maps on G")
    return HomGroup(group, coeffs, homs)

"""Homomorphisms from a finite group into a finite abelian group.

Counts by the gcd formula on invariant factors, and the full group
Hom(G, A) under pointwise addition, which indexes every distribution
table produced by the counting engine.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Callable, Iterator, Sequence

from .groups import (
    AbelianGroup,
    FiniteGroup,
    InvariantError,
    SizeCapError,
    abelian_index_tables,
    abelianization,
    full_group_class,
)

# The largest h = |Hom(G, A)|.  A fiber query builds O(h^2) cyclic-quotient
# data: ``delta --n 1`` with h = 2048 took 0.9-1.5 s and 18 MB (3.1-3.5 s
# and 49 MB with |A| = 1024 too), and with h = 4096 6.5-7.8 s when the cap
# was set (Python 3.11, 2-vCPU VM).
HOM_GROUP_CAP = 2048


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
    index 0 is the trivial homomorphism, and ``coords`` holds their
    coordinates in H, the product of the Z/g over g in ``factors``
    (``hom_group``).  A homomorphism is fixed by its values on the
    generators, so ``index_of`` keys elements by those.
    """

    def __init__(self, group: FiniteGroup, coeffs: AbelianGroup, factors: tuple[int, ...],
                 homs: Sequence[tuple[tuple[int, ...], tuple[int, ...]]]):
        self.group = group
        self.coeffs = coeffs
        self.factors = factors
        self.elements, self.coords = zip(*sorted(homs))  # (values, coordinates) per hom
        self.size = len(self.elements)
        if self.elements[0] != (0,) * group.order:
            raise InvariantError("trivial homomorphism missing or not first")
        self._index = {tuple(v[s] for s in group.generators): i for i, v in enumerate(self.elements)}

    def index_of(self, gen_values: Sequence[int]) -> int:
        """Index of the homomorphism sending ``group.generators[i]`` to the
        A-element index ``gen_values[i]``."""
        return self._index[tuple(gen_values)]

    def cyclic_quotients(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """One surjection c: H ->> Z/d per Galois orbit of characters of
        H = Hom(G, A), as (d, (c(psi) for every psi in order)); the trivial
        character comes first, with d = 1.

        In the coordinates x of H = Z/e_1 x ... x Z/e_r (``factors``), a
        character is a vector a, chi(x) = exp(2 pi i sum_i a_i x_i / e_i).
        Its order d is the lcm of the orders of the a_i, and it factors as a
        faithful character of Z/d after c(x) = sum_i (a_i d / e_i) x_i mod d,
        whose coefficients are integers because each a_i has order dividing d.
        Its Galois conjugates u a, for u prime to d, share its kernel and so
        its quotient; one a per orbit is kept.
        """
        factors = self.factors
        grid = list(itertools.product(*(range(e) for e in factors)))
        place = {x: i for i, x in enumerate(grid)}
        order = [place[x] for x in self.coords]
        seen: set[tuple[int, ...]] = set()
        for a in grid:
            if a in seen:
                continue
            d = math.lcm(*(e // math.gcd(x, e) for x, e in zip(a, factors)))
            seen.update(tuple(u * x % e for x, e in zip(a, factors)) for u in range(d) if math.gcd(u, d) == 1)
            values = [0]  # c at each coordinate vector, in ``grid`` order
            for x, e in zip(a, factors):
                step = x * d // e
                values = [(v + step * y) % d for v in values for y in range(e)]
            yield d, tuple(values[i] for i in order)

    def __repr__(self) -> str:
        return f"HomGroup({self.group.name} -> {list(self.coeffs.invariant_factors)}, size={self.size})"


@lru_cache(maxsize=None)
def hom_group(group: FiniteGroup, coeffs: AbelianGroup) -> HomGroup:
    """All homomorphisms G -> A, lifted through the abelianization of G,
    refused before any is listed if there are more than ``HOM_GROUP_CAP``.
    For G^ab = Z/m_1 x ... and A = Z/e_1 x ..., H is the product of the
    Z/g_ij, g_ij = gcd(m_i, e_j) > 1: image i has entry j in Z/e_j equal
    to e_j / g_ij times the coordinate at (i, j)."""
    ab = abelianization(group, full_group_class(group))
    h = hom_count_abelian(ab.group, coeffs)
    if h > HOM_GROUP_CAP:
        raise SizeCapError(f"|Hom(G, A)| = {h} exceeds cap {HOM_GROUP_CAP}")
    cells = [(i, j, g, e // g) for i, m in enumerate(ab.group.invariant_factors)
             for j, e in enumerate(coeffs.invariant_factors) if (g := math.gcd(m, e)) > 1]
    homs = []
    for images in abelian_homs(ab.group, coeffs):
        value = abelian_hom_evaluator(coeffs, images)
        coords = tuple(images[i][j] // step for i, j, _, step in cells)
        homs.append((tuple(value(ab.projection[g]) for g in range(group.order)), coords))
    if len({values for values, _ in homs}) != len(homs):
        raise InvariantError("distinct abelian homs lift to equal maps on G")
    return HomGroup(group, coeffs, tuple(g for _, _, g, _ in cells), homs)

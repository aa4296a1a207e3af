"""Ground truth at desk scale.

Explicit construction of A wr S_n with element decoding and exhaustive
enumeration of homomorphisms by generator images.  Everything here is a
verifier for the counting engine, not a production path.
"""

from __future__ import annotations

import itertools
import math

from .groups import (
    AbelianGroup,
    FiniteGroup,
    SizeCapError,
    _fn_power,
    abelian_index_tables,
)
from .homs import hom_group
from .counting import DistributionTable

WREATH_ORDER_CAP = 10**6
TUPLE_CAP = 10**8


class ExplicitWreath:
    """A wr S_n with elements encoded as integers.

    An element (sigma; a_1..a_n) has index ``rank(sigma) * |A|^n + packed
    decorations``; permutations are ranked lexicographically so index 0 is
    the identity.  Multiplication permutes the left factor's decorations by
    the right factor's permutation.
    """

    def __init__(self, coeffs: AbelianGroup, degree: int):
        a = coeffs.order
        order = a**degree * math.factorial(degree)
        if order > WREATH_ORDER_CAP:
            raise SizeCapError(
                f"wreath product order {order} = {a}^{degree} * {degree}! exceeds cap {WREATH_ORDER_CAP}"
            )
        self.coeffs = coeffs
        self.degree = degree
        self.order = order
        self.identity = 0
        self._a = a
        self._decor_size = a**degree
        self.perms = tuple(sorted(itertools.permutations(range(degree))))
        self._perm_rank = {p: r for r, p in enumerate(self.perms)}
        self._add, self._neg = abelian_index_tables(coeffs)
        self._decoded: list = [None] * order

    def decode(self, e: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(permutation, decoration indices) of element e."""
        cached = self._decoded[e]
        if cached is None:
            q, r = divmod(e, self._decor_size)
            decor = []
            for _ in range(self.degree):
                r, digit = divmod(r, self._a)
                decor.append(digit)
            cached = (self.perms[q], tuple(reversed(decor)))
            self._decoded[e] = cached
        return cached

    def encode(self, perm, decor) -> int:
        r = 0
        for digit in decor:
            r = r * self._a + digit
        return self._perm_rank[tuple(perm)] * self._decor_size + r

    def mul(self, x: int, y: int) -> int:
        p1, d1 = self.decode(x)
        p2, d2 = self.decode(y)
        add = self._add
        perm = tuple(p1[i] for i in p2)
        decor = tuple(add[d1[p2[i]]][d2[i]] for i in range(self.degree))
        return self.encode(perm, decor)

    def inv(self, x: int) -> int:
        p, d = self.decode(x)
        pinv = [0] * self.degree
        for i, j in enumerate(p):
            pinv[j] = i
        decor = tuple(self._neg[d[pinv[i]]] for i in range(self.degree))
        return self.encode(pinv, decor)

    def active(self, e: int) -> tuple[int, ...]:
        """Projection to the symmetric group."""
        return self.decode(e)[0]

    def fold(self, e: int) -> int:
        """Sum of decorations, as an element index of A."""
        acc = 0
        add = self._add
        for digit in self.decode(e)[1]:
            acc = add[acc][digit]
        return acc

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"ExplicitWreath({list(self.coeffs.invariant_factors)} wr S_{self.degree}, order={self.order})"


def build_wreath_group(coeffs: AbelianGroup, degree: int) -> ExplicitWreath:
    return ExplicitWreath(coeffs, degree)


def enumerate_homs(group: FiniteGroup, target) -> list[tuple[int, ...]]:
    """All homomorphisms from ``group`` into a mul-capable target, as full maps.

    Every tuple of generator images, pruned by element order, is pushed to
    a full map and accepted by its Cayley edges (``FiniteGroup.hom_images``).
    """
    gens = group.generators
    if target.order ** len(gens) > TUPLE_CAP:
        raise SizeCapError(
            f"search space {target.order}^{len(gens)} exceeds cap {TUPLE_CAP}"
        )
    mul, e = target.mul, target.identity
    candidates = []
    for g in gens:
        o = group.element_order(g)
        candidates.append([t for t in range(target.order) if _fn_power(mul, e, t, o) == e])
    homs: list[tuple[int, ...]] = []
    for images in itertools.product(*candidates):
        img = group.hom_images(mul, e, images)
        if img is not None:
            homs.append(tuple(img))
    return homs


def oracle_delta(
    group: FiniteGroup, coeffs: AbelianGroup, target: ExplicitWreath, homs: list
) -> DistributionTable:
    """Exact fold-value distribution of the enumerated ``homs`` into ``target``."""
    return DistributionTable(n=target.degree, fiber_counts=_fold_fibers(group, coeffs, target, homs))


def _fold_fibers(group: FiniteGroup, coeffs: AbelianGroup, target: ExplicitWreath, homs) -> tuple[int, ...]:
    """How many of ``homs`` have each fold value, in HomGroup order."""
    hg = hom_group(group, coeffs)
    fibers = [0] * hg.size
    for img in homs:
        fibers[hg.index_of([target.fold(img[s]) for s in group.generators])] += 1
    return tuple(fibers)


def fixed_point_strata_uniform(
    group: FiniteGroup, coeffs: AbelianGroup, target: ExplicitWreath, homs: list
) -> bool:
    """Whether every fixed-point stratum has exactly equal fold fibers.

    Homomorphisms are stratified by their active part; a stratum counts as
    fixed-point if some point is fixed by every generator image.  Within
    such a stratum the fold values must hit each element of Hom(G, A)
    equally often.
    """
    strata: dict[tuple, list] = {}
    for img in homs:
        key = tuple(target.active(img[g]) for g in group.generators)
        strata.setdefault(key, []).append(img)
    for key, members in strata.items():
        has_fixed = any(all(p[i] == i for p in key) for i in range(target.degree))
        if not has_fixed:
            continue
        if len(set(_fold_fibers(group, coeffs, target, members))) != 1:
            return False
    return True


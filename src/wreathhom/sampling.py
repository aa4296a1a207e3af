"""Exactly uniform random homomorphisms into A wr S_n.

Backward sampling on the counting recurrence picks an orbit-type multiset
with its exact stratum probability; orbits are then placed by a uniform
shuffle-and-cut and decorated through the per-orbit extension
parametrization.  All randomness flows through an injected Random
instance and integer draws, so results are exactly uniform and
reproducible per seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .counting import counter_for
from .groups import AbelianGroup, FiniteGroup, InvariantError, abelian_index_tables, coset_action
from .orbits import cocycle_table


@dataclass(frozen=True)
class WreathHom:
    """A homomorphism G -> A wr S_n stored as generator images.

    Per generator: a permutation of 0..n-1 and a length-n vector of
    A-element indices.  The full map on G is derived on demand.
    """

    n: int
    perms: tuple[tuple[int, ...], ...]
    decors: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {
            "perm": [list(p) for p in self.perms],
            "decor": [list(d) for d in self.decors],
        }


@dataclass(frozen=True)
class _ClassAssembly:
    """Precomputed per-class data for decorating one orbit."""

    k: int
    # gen_points[gen][j]: the coset point that generator gen sends j to
    gen_points: tuple[tuple[int, ...], ...]
    # u_eval[u][gen][j]: A-index of u applied to the coset cocycle at (gen, j)
    u_eval: tuple[tuple[tuple[int, ...], ...], ...]


@lru_cache(maxsize=None)
def _assemblies(group: FiniteGroup, coeffs: AbelianGroup) -> tuple[_ClassAssembly, ...]:
    counter = counter_for(group, coeffs)
    out = []
    for cls in counter.classes:
        action = coset_action(group, cls)
        out.append(
            _ClassAssembly(k=action.degree, gen_points=action.perms, u_eval=cocycle_table(group, coeffs, cls))
        )
    return tuple(out)


def sample_orbit_type(
    group: FiniteGroup, coeffs: AbelianGroup, n: int, rng: random.Random
) -> tuple[int, ...]:
    """Orbit-type multiset (m_1..m_l) with its exact stratum probability.

    Backward walk on the counting table: at size s, class i is chosen with
    probability k_i (s-1)_(k_i-1) (w_i / c_i) t_(s-k_i) / t_s, realized by
    one integer draw over the counter's common denominator.  The draw comes
    first; the class weights are then computed in class order only until
    the draw falls below one.  The counter checks once per s that the
    weights sum to the count.
    """
    counter = counter_for(group, coeffs)
    counter.check_strata(n)
    table = counter.walk_totals
    m = [0] * len(counter.classes)
    s = n
    while s > 0:
        r = rng.randrange(table[s] * counter.scale)
        for i, w in enumerate(counter.stratum_weights(s)):
            if r < w:
                m[i] += 1
                s -= counter.orbit_data[i].k
                break
            r -= w
        else:
            raise InvariantError(f"stratum walk chose no class at n={s}")
    return tuple(m)


def sample_hom(
    group: FiniteGroup, coeffs: AbelianGroup, n: int, rng: random.Random
) -> WreathHom:
    """One uniform draw from Hom(G, A wr S_n).

    Samples a stratum, shuffles points into typed orbit blocks, then per
    orbit draws u in Hom(U, A) and free decorations x and assembles the
    coordinates x[g.j] + u(cocycle) - x[j].
    """
    m = sample_orbit_type(group, coeffs, n, rng)
    assemblies = _assemblies(group, coeffs)
    add, neg = abelian_index_tables(coeffs)
    a_order = coeffs.order
    num_gens = len(group.generators)
    perms = [list(range(n)) for _ in range(num_gens)]
    decors = [[0] * n for _ in range(num_gens)]
    points = list(range(n))
    rng.shuffle(points)
    pos = 0
    for ci, count in enumerate(m):
        asm = assemblies[ci]
        for _ in range(count):
            block = points[pos : pos + asm.k]
            pos += asm.k
            u_idx = rng.randrange(len(asm.u_eval))
            u_tab = asm.u_eval[u_idx]
            xs = [0] + [rng.randrange(a_order) for _ in range(asm.k - 1)]
            for gi in range(num_gens):
                act = asm.gen_points[gi]
                u_gen = u_tab[gi]
                for j in range(asm.k):
                    p = block[j]
                    perms[gi][p] = block[act[j]]
                    decors[gi][p] = add[add[xs[act[j]]][u_gen[j]]][neg[xs[j]]]
    return WreathHom(
        n=n,
        perms=tuple(tuple(p) for p in perms),
        decors=tuple(tuple(d) for d in decors),
    )


def wreath_ops(coeffs: AbelianGroup):
    """(mul, fold) on elements of A wr S_n held as (permutation, decorations)
    pairs, with decorations as A-element indices, the format of ``WreathHom``.

    ``mul`` permutes the left factor's decorations by the right factor's
    permutation; ``fold`` sums the decorations, a homomorphism onto A.
    """
    add, _ = abelian_index_tables(coeffs)

    def mul(x, y):
        p1, d1 = x
        p2, d2 = y
        return tuple([p1[i] for i in p2]), tuple([add[d1[i]][b] for i, b in zip(p2, d2)])

    def fold(x) -> int:
        acc = 0
        for digit in x[1]:
            acc = add[acc][digit]
        return acc

    return mul, fold


def _hom_images(group: FiniteGroup, coeffs: AbelianGroup, hom: WreathHom):
    mul, _ = wreath_ops(coeffs)
    identity = (tuple(range(hom.n)), (0,) * hom.n)
    return group.hom_images(mul, identity, list(zip(hom.perms, hom.decors)))


def full_images(group: FiniteGroup, coeffs: AbelianGroup, hom: WreathHom) -> list:
    """Image of every group element, pushed along the stored generator words;
    ValueError if the generator images do not define a homomorphism."""
    imgs = _hom_images(group, coeffs, hom)
    if imgs is None:
        raise ValueError("generator images do not define a homomorphism")
    return imgs


def verify_wreath_hom(group: FiniteGroup, coeffs: AbelianGroup, hom: WreathHom) -> bool:
    """Check the generator images satisfy every relation of the group, by
    the Cayley edges of ``FiniteGroup.hom_images``."""
    return _hom_images(group, coeffs, hom) is not None


def fold_values(group: FiniteGroup, coeffs: AbelianGroup, hom: WreathHom) -> tuple[int, ...]:
    """Fold (decoration sum) of every element's image, as A-element indices."""
    _, fold = wreath_ops(coeffs)
    return tuple(fold(x) for x in full_images(group, coeffs, hom))

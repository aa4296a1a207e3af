"""Finite groups as element-indexed multiplication tables.

Construction (explicit tables or permutation generators), subgroup
conjugacy classes, coset actions, and abelianizations.  Elements are the
integers 0..order-1 with 0 the identity; every derived structure is
immutable and cached per group.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import lru_cache, reduce
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence

GROUP_SIZE_CAP = 20000
# The largest |A|.  No query builds a table of A: at this size (1024, 2,512
# or 32,32) ``count --group C2 --n 0`` takes 0.065 s and 15.7 MB, as with
# |A| = 1 (Python 3.11, 2-vCPU VM).  ``WreathHom.to_json`` relies on the cap.
COEFF_ORDER_CAP = 1024


class GroupTableError(ValueError):
    """Input data does not describe a valid finite group."""


class UnknownGroupError(ValueError):
    """Requested builtin group name is not in the library."""


class SizeCapError(RuntimeError):
    """A computation would exceed its configured size cap."""


class InvariantError(RuntimeError):
    """An exact identity the algorithms guarantee failed to hold."""


def gather(idx: Sequence[int]):
    """seq -> tuple(seq[i] for i in idx); ``itemgetter`` alone would return a
    bare item for one index and refuse none."""
    return itemgetter(*idx) if len(idx) > 1 else lambda seq: tuple(seq[i] for i in idx)


class FiniteGroup:
    """A finite group on elements 0..order-1, identity 0, given by tables.

    ``eval_order`` and ``parent_word`` record one factorization of every
    element into generators, discovered by breadth-first closure: element
    ``x = parent * generators[gen_idx]``.  Walking ``eval_order`` therefore
    lets a caller push any map of the generators forward to all elements.
    Without ``generators`` a small generating set is picked greedily.  The
    table is validated here, once, whatever built it.
    """

    identity = 0

    def __init__(
        self,
        mul_table: Sequence[Sequence[int]],
        generators: Optional[Sequence[int]] = None,
        name: str = "G",
        _checked_rows: bool = False,  # the builders' rows, already converted and shape-checked
    ) -> None:
        self.name = str(name)
        self.mul_table = rows = mul_table if _checked_rows else _table_rows(mul_table)
        self.order = len(rows)
        _validate_identity(rows)
        self.inv_table = _inverse_table(rows)
        if generators is None:
            generators = _greedy_generators(self, range(self.order))
        self.generators = tuple(dict.fromkeys(int(g) for g in generators))
        for g in self.generators:
            if not 0 <= g < self.order:
                raise GroupTableError(f"generator {g} out of range")
        self.eval_order, self.parent_word = _generator_words(rows, self.generators)
        _validate_associativity(rows, self.generators)
        self._hash = hash((rows, self.generators))

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        return self.inv_table[a]

    def element_order(self, a: int) -> int:
        """The least k with a^k = 0; a table not yet validated may have none."""
        x = a
        for order in range(1, self.order + 1):
            if x == 0:
                return order
            x = self.mul_table[x][a]
        raise GroupTableError(f"powers of element {a} never reach the identity")

    def subgroup_closure(self, seed: Iterable[int]) -> frozenset[int]:
        """Subgroup generated by ``seed``: the trivial subgroup extended by
        each element of the seed not yet inside (``_extension``)."""
        elems = frozenset({0})
        for g in seed:
            if g not in elems:
                elems = _extension(self.mul_table, tuple(elems), g)
        return elems

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.mul_table == other.mul_table and self.generators == other.generators

    def __hash__(self) -> int:
        return self._hash


def _table_rows(table: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The table as tuples of ints, each row checked by its length, min and max."""
    rows = tuple(tuple(map(int, row)) for row in table)
    d = len(rows)
    if d == 0:
        raise GroupTableError("empty multiplication table")
    for i, row in enumerate(rows):
        if len(row) != d:
            raise GroupTableError(f"row {i} has length {len(row)}, expected {d}")
        if min(row) < 0 or max(row) >= d:
            x = next(x for x in row if not 0 <= x < d)
            raise GroupTableError(f"table entry {x} in row {i} out of range 0..{d - 1}")
    return rows


def _validate_identity(table: tuple[tuple[int, ...], ...]) -> None:
    identity = tuple(range(len(table)))
    if table[0] != identity or next(zip(*table)) != identity:
        raise GroupTableError("element 0 is not an identity")


def _inverse_table(table: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """inv[a], the first x with a x = 0, which must also have x a = 0: in a
    group row a holds 0 once."""
    inv = []
    for a, row in enumerate(table):
        b = row.index(0) if 0 in row else None
        if b is None or table[b][a]:
            raise GroupTableError(f"no inverse for element {a}")
        inv.append(b)
    return tuple(inv)


def _validate_associativity(table: tuple[tuple[int, ...], ...], generators: tuple[int, ...]) -> None:
    """Light's test: (x s) y == x (s y) for every generator s and all x, y,
    as row x s against row x gathered by row s.

    The s that pass are closed under products, and the BFS has shown that the
    generators reach every element, so passing for them suffices.  With the
    identity at 0 and two-sided inverses the table is then a group.
    """
    for s in generators:
        row_s = table[s]
        by_row_s = gather(row_s)
        for x, row_x in enumerate(table):
            row_xs = table[row_x[s]]
            if row_xs != by_row_s(row_x):
                y = next(y for y, sy in enumerate(row_s) if row_xs[y] != row_x[sy])
                raise GroupTableError(f"table is not associative at ({x},{s},{y})")


def _generator_words(
    table: tuple[tuple[int, ...], ...], generators: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """BFS factorizations: eval_order + (parent, generator index) per element."""
    d = len(table)
    parent: list[Optional[tuple[int, int]]] = [None] * d
    order = [0]
    seen = {0}
    for x in order:  # order grows as the BFS finds elements
        for gi, g in enumerate(generators):
            y = table[x][g]
            if y not in seen:
                seen.add(y)
                parent[y] = (x, gi)
                order.append(y)
    if len(order) != d:
        raise GroupTableError(
            f"generators {list(generators)} generate only {len(order)} of {d} elements"
        )
    filled = tuple(p if p is not None else (-1, -1) for p in parent)
    return tuple(order), filled


# ---------------------------------------------------------------------------
# construction


class GroupSpec(NamedTuple):
    """Input description of a finite group: a full table or permutation generators."""

    name: str
    table: Optional[tuple[tuple[int, ...], ...]] = None
    perm_generators: Optional[tuple[tuple[int, ...], ...]] = None

    @staticmethod
    def from_json(data) -> "GroupSpec":
        if not isinstance(data, dict):
            raise GroupTableError("group spec must be a JSON object")
        name = data.get("name", "G")
        if not isinstance(name, str):
            raise GroupTableError("group spec 'name' must be a string")
        table = data.get("table")
        perms = data.get("permGenerators")
        if (table is None) == (perms is None):
            raise GroupTableError("group spec needs exactly one of 'table' or 'permGenerators'")
        if table is not None:
            return GroupSpec(name, table=_int_rows("table", table))
        return GroupSpec(name, perm_generators=_int_rows("permGenerators", perms))

    @staticmethod
    def from_path(path: str | Path) -> "GroupSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return GroupSpec.from_json(json.load(fh))


def _int_rows(key: str, rows) -> tuple[tuple[int, ...], ...]:
    """A spec field that must be a JSON list of lists of integers: no
    booleans, floats, strings or nulls, which int() would coerce."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise GroupTableError(f"'{key}' must be a list of lists of integers")
    for row in rows:
        for x in row:
            if type(x) is not int:
                raise GroupTableError(f"'{key}' entry {json.dumps(x)} is not an integer")
    return tuple(tuple(row) for row in rows)


def build_group(spec: GroupSpec) -> FiniteGroup:
    """Construct a validated FiniteGroup from a GroupSpec."""
    if (spec.table is None) == (spec.perm_generators is None):
        raise GroupTableError("group spec needs exactly one of 'table' or 'permGenerators'")
    if spec.table is not None:
        return group_from_table(spec.table, name=spec.name)
    return group_from_permutations(spec.perm_generators, name=spec.name)


def group_from_table(
    table: Sequence[Sequence[int]],
    name: str = "G",
    generators: Optional[Sequence[int]] = None,
) -> FiniteGroup:
    """Build a group from an explicit table, relabeling so the identity is 0.

    ``FiniteGroup`` validates it, checking associativity in O(d^2 |S|).
    """
    rows = _table_rows(table)
    if len(rows) > GROUP_SIZE_CAP:
        raise SizeCapError(f"table has {len(rows)} elements, exceeding cap {GROUP_SIZE_CAP}")
    d = len(rows)
    identity = tuple(range(d))
    ident = next((e for e in range(d) if rows[e] == identity and tuple(row[e] for row in rows) == identity), None)
    if ident is None:
        raise GroupTableError("no identity element in table")
    if ident != 0:
        rows = _relabel_table(rows, ident)
        if generators is not None:
            swap = {0: ident, ident: 0}
            generators = [swap.get(g, g) for g in generators]
    return FiniteGroup(rows, generators=generators, name=name, _checked_rows=True)


def _relabel_table(rows: tuple[tuple[int, ...], ...], ident: int) -> tuple[tuple[int, ...], ...]:
    """The table relabelled by the swap r of 0 and ident: row a is row r(a)
    gathered by r, then mapped through r."""
    relabel = list(range(len(rows)))
    relabel[0], relabel[ident] = ident, 0
    gather = itemgetter(*relabel)  # ident != 0, so at least two labels
    return tuple(tuple(map(relabel.__getitem__, gather(rows[r]))) for r in relabel)


def _greedy_generators(group: FiniteGroup, elements: Sequence[int]) -> list[int]:
    """Small generating set of the subgroup ``elements``: adjoin maximal-order missing elements."""
    gens: list[int] = []
    closure = frozenset({0})
    by_order = sorted(elements, key=lambda a: (-group.element_order(a), a))
    while len(closure) < len(elements):
        cand = next(a for a in by_order if a not in closure)
        gens.append(cand)
        closure = group.subgroup_closure(gens)
    return gens


def group_from_permutations(
    perm_generators: Sequence[Sequence[int]],
    name: str = "G",
) -> FiniteGroup:
    """Build a group by BFS closure of permutation generators on 0..m-1.  Row
    x = x' p (BFS parent x') is row x' gathered by y -> p y: (x' p) y = x' (p y)."""
    gens = [tuple(int(x) for x in p) for p in perm_generators]
    if not gens:
        raise GroupTableError("need at least one permutation generator")
    m = len(gens[0])
    for p in gens:
        if len(p) != m or sorted(p) != list(range(m)):
            raise GroupTableError(f"invalid permutation generator {list(p)}")
    elems = [tuple(range(m))]
    index: dict[tuple[int, ...], int] = {elems[0]: 0}
    parents = [(0, 0)]  # (BFS parent, generator index) per element; the identity's is unused
    for x, base in enumerate(elems):  # elems grows as the BFS finds elements
        for gi, p in enumerate(gens):
            prod = tuple(map(base.__getitem__, p))
            if prod not in index:
                if len(elems) >= GROUP_SIZE_CAP:
                    raise SizeCapError(f"closure exceeded size cap {GROUP_SIZE_CAP}")
                index[prod] = len(elems)
                elems.append(prod)
                parents.append((x, gi))
    # y -> p y per generator p, as a row gather (the trivial group calls none)
    gathers = [itemgetter(*(index[tuple(map(p.__getitem__, y))] for y in elems)) for p in gens]
    rows = [tuple(range(len(elems)))]
    for parent, gi in parents[1:]:
        rows.append(gathers[gi](rows[parent]))
    gen_indices = [index[p] for p in gens]
    return FiniteGroup(tuple(rows), generators=gen_indices, name=name, _checked_rows=True)


# ---------------------------------------------------------------------------
# builtin library


def _cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _quaternion_table() -> list[list[int]]:
    # elements 2u+s: unit u in (1,i,j,k), sign s (0 -> +, 1 -> -), so element 1 is -1
    unit_mul = {
        (0, 0): (0, 0), (0, 1): (1, 0), (0, 2): (2, 0), (0, 3): (3, 0),
        (1, 0): (1, 0), (1, 1): (0, 1), (1, 2): (3, 0), (1, 3): (2, 1),
        (2, 0): (2, 0), (2, 1): (3, 1), (2, 2): (0, 1), (2, 3): (1, 0),
        (3, 0): (3, 0), (3, 1): (2, 0), (3, 2): (1, 1), (3, 3): (0, 1),
    }
    table = [[0] * 8 for _ in range(8)]
    for u1, s1, u2, s2 in itertools.product(range(4), range(2), range(4), range(2)):
        u, s = unit_mul[(u1, u2)]
        table[2 * u1 + s1][2 * u2 + s2] = 2 * u + ((s1 + s2 + s) % 2)
    return table


_BUILTIN_GROUPS = {
    "C1": lambda: group_from_table([[0]], name="C1"),
    "C2": lambda: group_from_table(_cyclic_table(2), name="C2"),
    "C3": lambda: group_from_table(_cyclic_table(3), name="C3"),
    "C4": lambda: group_from_table(_cyclic_table(4), name="C4"),
    "V4": lambda: group_from_table([[i ^ j for j in range(4)] for i in range(4)], name="V4"),
    "S3": lambda: group_from_permutations([(1, 0, 2), (1, 2, 0)], name="S3"),
    "D4": lambda: group_from_permutations([(1, 2, 3, 0), (3, 2, 1, 0)], name="D4"),
    "Q8": lambda: group_from_table(_quaternion_table(), name="Q8", generators=[2, 4]),
}
BUILTIN_GROUP_NAMES = tuple(_BUILTIN_GROUPS)


@lru_cache(maxsize=None)
def builtin_group(name: str) -> FiniteGroup:
    """The builtin group of that name, in any case: one of ``BUILTIN_GROUP_NAMES``."""
    build = _BUILTIN_GROUPS.get(name.strip().upper())
    if build is None:
        raise UnknownGroupError(f"unknown builtin group {name!r}; known: {', '.join(BUILTIN_GROUP_NAMES)}")
    return build()


# ---------------------------------------------------------------------------
# abelian groups by invariant factors


class _AbelianGroupFields(NamedTuple):
    invariant_factors: tuple[int, ...]


class AbelianGroup(_AbelianGroupFields):
    """Finite abelian group as a chain of invariant factors e1 | e2 | ... | es.

    Elements are mixed-radix vectors, addressed big-endian so that
    lexicographic order on vectors equals numeric order on indices
    (``index_of``).  The rest of the package holds elements as indices,
    and ``add_sub`` and ``total`` add them digit by digit, with no table.
    The empty chain is the trivial group.
    """

    __slots__ = ()

    def __new__(cls, invariant_factors: Iterable[int]) -> AbelianGroup:
        fs = tuple(int(e) for e in invariant_factors)
        for e in fs:
            if e < 2:
                raise ValueError(f"invariant factor {e} must be at least 2")
        for a, b in zip(fs, fs[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factor {a} does not divide successor {b}")
        return super().__new__(cls, fs)

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    def index_of(self, x: Sequence[int]) -> int:
        idx = 0
        for a, e in zip(x, self.invariant_factors):
            idx = idx * e + (a % e)
        return idx

    def add_sub(self, xs: Sequence[int], ys: Iterable[int], zs: Sequence[int]) -> list[int]:
        """The element indices of x + y - z, entry by entry, for equally long
        lists of element indices (ys may be any iterable).  The last digit
        is (x + y - z) % e, for the last invariant factor e; each digit
        before it, with place value v, is x // v + y // v - z // v modulo
        its factor: one pass per factor, and for a cyclic A one pass."""
        *high, e = self.invariant_factors or (1,)
        if e == 2:  # A = C2^r: the digits are bits, and one exclusive or adds them all
            return [x ^ y ^ z for x, y, z in zip(xs, ys, zs)]
        if high:  # the passes below read ys again
            ys = list(ys)
        out, v = [(x + y - z) % e for x, y, z in zip(xs, ys, zs)], e
        for e in reversed(high):
            out = [o + (x // v + y // v - z // v) % e * v for o, x, y, z in zip(out, xs, ys, zs)]
            v *= e
        return out

    def total(self, xs: Sequence[int]) -> int:
        """The element index of the sum of the elements xs, digit by digit
        as in ``add_sub``."""
        *high, e = self.invariant_factors or (1,)
        out, v = sum(xs) % e, e
        for e in reversed(high):
            out += sum([x // v for x in xs]) % e * v
            v *= e
        return out


def check_coeff_order(coeffs: AbelianGroup) -> None:
    """Refuse an A past ``COEFF_ORDER_CAP``."""
    if coeffs.order > COEFF_ORDER_CAP:
        raise SizeCapError(f"|A| = {coeffs.order} exceeds cap {COEFF_ORDER_CAP}")


# ---------------------------------------------------------------------------
# subgroup conjugacy classes


class SubgroupClass(NamedTuple):
    """One conjugacy class of subgroups, held by its canonical representative."""

    elements: tuple[int, ...]
    index: int
    normalizer_order: int
    centralizer_order: int
    conjugate_count: int
    is_full_group: bool

    @property
    def order(self) -> int:
        return len(self.elements)


def _conjugation_orbit(conjugations: list[tuple[int, ...]], subgroup: frozenset[int]) -> set[frozenset[int]]:
    """The conjugates of ``subgroup``: its closure under the conjugation
    maps u -> s u s^-1 of the generators s, each a tuple indexed by u."""
    orbit, todo = {subgroup}, [subgroup]
    while todo:
        conjugate = todo.pop()
        for conj in conjugations:
            image = frozenset(map(conj.__getitem__, conjugate))
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return orbit


@lru_cache(maxsize=None)
def subgroup_classes(group: FiniteGroup) -> tuple[SubgroupClass, ...]:
    """All subgroups up to conjugacy, ordered by size with the full group last.

    Cyclic extension over class representatives: from the trivial subgroup,
    each new class's representative R is extended by elements g of prime
    power order, which generate every subgroup, one g for all the double
    cosets R g^j R, j prime to ord(g), outside R: <R, g^j> = <R, g>, and
    <R, x> is the same for every x in R g^j R.  Extension commutes with
    conjugation, so every class is reached.  Each class's orbit is computed
    once; orbit-stabilizer gives |N(U)|.
    """
    table = group.mul_table
    cyclic_generators = _prime_power_cyclic_generators(table)
    conjugations = [tuple(table[y][group.inv(s)] for y in table[s]) for s in group.generators]
    seen: set[frozenset[int]] = set()
    classes: list[SubgroupClass] = []
    todo = {frozenset({0})}
    while todo:
        subgroup = todo.pop()
        if subgroup in seen:
            continue
        orbit = _conjugation_orbit(conjugations, subgroup)
        seen |= orbit
        rep = min(orbit, key=sorted)
        normalizer = group.order // len(orbit)
        classes.append(
            SubgroupClass(
                elements=tuple(sorted(rep)),
                index=group.order // len(rep),
                normalizer_order=normalizer,
                centralizer_order=normalizer // len(rep),
                conjugate_count=len(orbit),
                is_full_group=len(rep) == group.order,
            )
        )
        members = tuple(rep)
        covered = set(members)  # a union of left cosets y R
        for g, generators in cyclic_generators.items():
            if g in covered:
                continue
            todo.add(_extension(table, members, g))
            for x in generators:
                if x not in covered:  # R x R, left coset by left coset
                    for r in members:
                        y = table[r][x]
                        if y not in covered:
                            row = table[y]
                            covered.update([row[q] for q in members])
    classes.sort(key=lambda c: (c.order, c.elements))
    return tuple(classes)


def _extension(table: tuple[tuple[int, ...], ...], members: tuple[int, ...], g: int) -> frozenset[int]:
    """<R, g> for the subgroup R with these members: the union of the left
    cosets y R that closing R under right multiplication by g reaches, since
    a union of left cosets is closed under R.  That is 2 |<R, g>| products,
    not |<R, g>| (|R| + 1) as closing under every element of R and g."""
    elems, todo = set(members), list(members)
    while todo:
        y = table[todo.pop()][g]
        if y not in elems:
            row = table[y]
            coset = [row[r] for r in members]
            elems.update(coset)
            todo += coset
    return frozenset(elems)


def _prime_power_cyclic_generators(table: tuple[tuple[int, ...], ...]) -> dict[int, tuple[int, ...]]:
    """For each element g of prime power order p^a, in label order, the
    generators g^j (j prime to p) of its cyclic group <g>."""
    out: dict[int, tuple[int, ...]] = {}
    for g in range(1, len(table)):
        powers = [0, g]  # g^0, g^1, ... up to g^(o-1)
        while (x := table[powers[-1]][g]) != 0:
            powers.append(x)
        o = len(powers)
        p = next(q for q in range(2, o + 1) if o % q == 0)
        if pow(p, o, o) == 0:  # o divides a power of its least prime p: o = p^a
            out[g] = tuple(x for j, x in enumerate(powers) if j % p)
    return out


def full_group_class(group: FiniteGroup) -> SubgroupClass:
    """The class record for U = G itself, without enumerating all subgroups."""
    return SubgroupClass(
        elements=tuple(range(group.order)),
        index=1,
        normalizer_order=group.order,
        centralizer_order=1,
        conjugate_count=1,
        is_full_group=True,
    )


# ---------------------------------------------------------------------------
# coset actions


class PermutationAction(NamedTuple):
    """Transitive action of a group on the cosets of a subgroup.

    ``perms[i][j]`` is the image of point j under the generator
    ``group.generators[i]``; the generators fix the action on every element.
    Point j corresponds to the coset ``transversal[j] * U``, with point 0
    the subgroup itself.
    """

    degree: int
    perms: tuple[tuple[int, ...], ...]
    transversal: tuple[int, ...]


@lru_cache(maxsize=None)
def coset_action(group: FiniteGroup, cls: SubgroupClass) -> PermutationAction:
    """Left action of the group on cosets of the class representative."""
    subgroup = cls.elements
    point_of: dict[int, int] = {}
    transversal: list[int] = []

    def add_coset(rep: int) -> None:
        j = len(transversal)
        transversal.append(rep)
        for u in subgroup:
            point_of[group.mul(rep, u)] = j

    add_coset(0)
    for t in transversal:  # transversal grows as cosets are found
        for g in group.generators:
            x = group.mul(g, t)
            if x not in point_of:
                add_coset(x)
    k = len(transversal)
    if k * len(subgroup) != group.order:
        raise GroupTableError("coset enumeration failed; input is not a subgroup")
    perms = tuple(tuple(point_of[group.mul(s, t)] for t in transversal) for s in group.generators)
    return PermutationAction(degree=k, perms=perms, transversal=tuple(transversal))


# ---------------------------------------------------------------------------
# abelianization


class Abelianization(NamedTuple):
    """Quotient U/[U,U] in invariant-factor form plus the projection map.

    ``projection`` sends each element of U to its mixed-radix vector in
    ``group``; it is a surjective homomorphism with kernel ``commutator``.
    """

    group: AbelianGroup
    projection: dict[int, tuple[int, ...]]
    commutator: frozenset[int]


@lru_cache(maxsize=None)
def abelianization(group: FiniteGroup, cls: SubgroupClass) -> Abelianization:
    """U/[U, U], with [U, U] the closure of the |U| |S| commutators [a, s],
    a in U, s in generators S of U.  It is normal, as [a, s]^b = [a b, s]
    [b, s]^-1, and holds each [x, y z] = [x, z] [x, y]^z, so it is [U, U]."""
    subgroup = cls.elements
    table, inv = group.mul_table, group.inv_table
    gens = _greedy_generators(group, subgroup)
    commutator = group.subgroup_closure(table[table[inv[a]][inv[s]]][table[a][s]] for a in subgroup for s in gens)
    # quotient cosets, represented by their minimal element
    rep_of: dict[int, int] = {}
    reps: list[int] = []
    for u in subgroup:
        if u in rep_of:
            continue
        coset = sorted(group.mul(u, c) for c in commutator)
        r = coset[0]
        reps.append(r)
        for x in coset:
            rep_of[x] = r
    reps.sort()

    def qmul(a: int, b: int) -> int:
        return rep_of[group.mul(a, b)]

    factors, _, vec_of = _abelian_decomposition(reps, qmul, rep_of[0])
    projection = {u: vec_of[rep_of[u]] for u in subgroup}
    return Abelianization(group=AbelianGroup(factors), projection=projection, commutator=commutator)


def _abelian_decomposition(
    labels: Sequence[int], mul, identity: int
) -> tuple[tuple[int, ...], tuple[int, ...], dict[int, tuple[int, ...]]]:
    """Invariant factors, generators, and coordinates of a small abelian group.

    Each element's powers x^0 .. x^(o-1) are listed once; its order, the
    test x^(o/p) in span, each span and the coordinates are read off them.
    For each prime p of the order, greedy peeling: repeatedly take the first
    element in label order of largest p-power order whose cyclic group
    meets the span trivially.  The j-th picks of all primes multiply into
    the j-th generator.  The coordinate map is built by full enumeration,
    which doubles as a bijectivity check of the decomposition.
    """
    powers: dict[int, list[int]] = {}
    for x in labels:
        run, y = [identity], x
        while y != identity:
            run.append(y)
            y = mul(y, x)
        powers[x] = run
    n = len(labels)
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
    per_prime = []
    for p in primes:
        # the elements of p-power order, the identity among them
        component = [x for x in labels if all(len(powers[x]) % q for q in primes if q != p)]
        picked: list[int] = []
        span = {identity}
        while len(span) < len(component):
            free = (x for x in component if powers[x][len(powers[x]) // p] not in span)
            best = max(free, key=lambda x: len(powers[x]), default=None)
            if best is None:
                raise InvariantError("abelian decomposition stalled")
            picked.append(best)
            span = {mul(s, t) for s in span for t in powers[best]}
        per_prime.append(picked)
    gens_desc = [reduce(mul, picks, identity) for picks in itertools.zip_longest(*per_prime, fillvalue=identity)]
    gens = tuple(reversed(gens_desc))
    vec_of: dict[int, tuple[int, ...]] = {identity: ()}
    for g in gens:
        vec_of = {mul(x, t): v + (c,) for x, v in vec_of.items() for c, t in enumerate(powers[g])}
    if len(vec_of) != n:
        raise InvariantError("invariant-factor coordinates are not a bijection")
    return tuple(len(powers[g]) for g in gens), gens, vec_of

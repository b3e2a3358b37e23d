"""Parameterized group families, subgroup lattices of soluble groups, and a
sampler of faithful permutation representations.

Family syntax (used by the CLI): ``C12``, ``Q8``, ``D8``, ``SD16``, ``E27``,
and ``x``-joined products such as ``Q16xC3`` or ``C2xC2``.  The family kinds
live in one table, `_KINDS`, keyed by prefix: the orders each kind accepts,
the degree and generators of its realization, and its ``catalog --list``
line.  Every family, atom or product, is realized as one chain built from its
atoms' generators placed side by side.
"""

from __future__ import annotations

import re
from functools import reduce
from math import prod
from operator import and_
from typing import Callable, NamedTuple

from .actions import CosetAction, coset_action
from .errors import GuardExceeded, InternalDefect, PreconditionError
from .group import (
    INDEX_GUARD,
    PermGroup,
    SubgroupHandle,
    is_prime,
    mask_indices,
)
from .perm import Permutation, direct_sum, from_cycles, identity

# The lattice is computed on the element index, so it shares its guard.
LATTICE_GUARD = INDEX_GUARD

FAMILY_EXAMPLES = ("C12", "C2xC2", "D8", "SD16", "Q8", "Q16xC3", "E27", "Q8xC2", "C2xQ8xC3")


def _cube_root(n: int) -> int:
    """The integer cube root of n >= 0, rounded down: Newton's method on
    ints from a start above the root, so no float overflows."""
    x = 1 << -(-n.bit_length() // 3)
    while x:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y
    return 0


# ---------------------------------------------------------------------------
# atom generators, by order

def _cyclic(n: int) -> tuple[Permutation, ...]:
    return (from_cycles(n, [tuple(range(n))]),) if n > 1 else ()


def _dihedral(order: int) -> tuple[Permutation, ...]:
    n = order // 2
    return from_cycles(n, [tuple(range(n))]), Permutation(tuple((n - i) % n for i in range(n)))


def _semidihedral(order: int) -> tuple[Permutation, ...]:
    m = order // 2
    twist = m // 2 - 1
    return from_cycles(m, [tuple(range(m))]), Permutation(tuple((twist * i) % m for i in range(m)))


def _quaternion(order: int) -> tuple[Permutation, ...]:
    # Right-regular action on elements written as a^i * b^eps.
    m = order // 2
    half = order // 4

    def point(i: int, eps: int) -> int:
        return i + eps * m

    a_images = [0] * order
    b_images = [0] * order
    for i in range(m):
        a_images[point(i, 0)] = point((i + 1) % m, 0)
        a_images[point(i, 1)] = point((i - 1) % m, 1)
        b_images[point(i, 0)] = point(i, 1)
        b_images[point(i, 1)] = point((i + half) % m, 0)
    return Permutation(tuple(a_images)), Permutation(tuple(b_images))


def _extraspecial(order: int) -> tuple[Permutation, ...]:
    # Coset action of the order-p^3, exponent-p group on a noncentral order-p
    # subgroup: points are pairs (x, z), the minimal faithful degree p^2.
    # p is tested prime here, not at parsing, so that a caller can refuse
    # the degree p^2 before trial division runs.
    p = _cube_root(order)
    if p < 3 or not is_prime(p):
        raise PreconditionError("extraspecial parameter must be an odd prime")

    def point(x: int, z: int) -> int:
        return x * p + z

    a_images = [0] * (p * p)
    b_images = [0] * (p * p)
    for x in range(p):
        for z in range(p):
            a_images[point(x, z)] = point((x + 1) % p, z)
            b_images[point(x, z)] = point(x, (z + x) % p)
    return Permutation(tuple(a_images)), Permutation(tuple(b_images))


class _Kind(NamedTuple):
    accepts: Callable[[int], bool]  # the orders the kind has
    refusal: str  # the precondition message for any other order
    degree: Callable[[int], int]  # of the realization, known before it is built
    generators: Callable[[int], tuple[Permutation, ...]]
    listing: str  # its `catalog --list` line


# In `catalog --list` order.  C1 is realized on one point, C<n> and Q<n>
# regularly.
_KINDS = {
    "C": _Kind(lambda n: n >= 1, "cyclic order must be positive", lambda n: n, _cyclic, "C<n>: cyclic of order n"),
    "D": _Kind(lambda n: n >= 6 and n % 2 == 0, "dihedral order must be an even number >= 6",
               lambda n: n // 2, _dihedral, "D<2n>: dihedral of order 2n (n >= 3)"),
    "SD": _Kind(lambda n: n >= 16 and not n & (n - 1), "semidihedral order must be a power of two >= 16",
                lambda n: n // 2, _semidihedral, "SD<2^n>: semidihedral of order 2^n (n >= 4)"),
    "Q": _Kind(lambda n: n >= 8 and not n & (n - 1), "generalized quaternion order must be a power of two >= 8",
               lambda n: n, _quaternion, "Q<2^n>: generalized quaternion of order 2^n (n >= 3)"),
    "E": _Kind(lambda n: _cube_root(n) ** 3 == n, "extraspecial orders must be p^3 for an odd prime p",
               lambda n: _cube_root(n) ** 2, _extraspecial, "E<p^3>: extraspecial of order p^3 and exponent p (p odd)"),
}
_ATOM_RE = re.compile(rf"^({'|'.join(_KINDS)})(\d+)$")


class FamilySpec:
    """One group family instance; products hold their atoms in order."""

    __slots__ = ("kind", "order", "parts")

    def __init__(self, kind: str, order: int, parts: tuple[FamilySpec, ...] = ()) -> None:
        self.kind = kind  # a prefix of `_KINDS`, or "product"
        self.order, self.parts = order, parts

    @property
    def name(self) -> str:
        if self.kind == "product":
            return "x".join(part.name for part in self.parts)
        return f"{self.kind}{self.order}"

    @property
    def degree(self) -> int:
        """Degree of the default realization (`realize`), known before it is built."""
        if self.kind == "product":
            return sum(part.degree for part in self.parts)
        return _KINDS[self.kind].degree(self.order)


def parse_family(text: str) -> FamilySpec:
    """Parse the textual family syntax, e.g. ``Q16xC3``."""
    atoms = []
    for token in text.strip().split("x"):
        m = _ATOM_RE.match(token.strip())
        if not m:
            raise PreconditionError(f"unrecognized family token {token!r}")
        prefix, digits = m.groups()
        try:
            order = int(digits)
        except ValueError:  # more digits than int() converts
            raise PreconditionError(f"family token {prefix}{digits[:10]}... has an order of {len(digits)} digits") from None
        kind = _KINDS[prefix]
        if not kind.accepts(order):
            raise PreconditionError(kind.refusal)
        atoms.append(FamilySpec(prefix, order))
    if len(atoms) == 1:
        return atoms[0]
    return FamilySpec("product", prod(atom.order for atom in atoms), tuple(atoms))


# ---------------------------------------------------------------------------
# realizations

def realize(spec: FamilySpec) -> PermGroup:
    """Default faithful realization of a family: one chain, built with the
    order the family's definition fixes, so it stops sifting there; tests
    check each realized order independently.

    A product acts on the disjoint union of its atoms' points: each atom's
    generators, in atom order, act on its own block and fix the others.
    """
    atoms = spec.parts or (spec,)
    blocks = [_KINDS[atom.kind].generators(atom.order) for atom in atoms]
    for atom, block in zip(atoms, blocks):
        for g in block:
            if g.degree != atom.degree:
                raise InternalDefect(f"realized {atom.name} in {spec.name} with degree {g.degree}, expected {atom.degree}")
    fixed = [identity(atom.degree) for atom in atoms]
    gens = tuple(direct_sum(fixed[:k] + [g] + fixed[k + 1:]) for k, block in enumerate(blocks) for g in block)
    return PermGroup(spec.degree, gens, _order=spec.order)


def realize_name(text: str) -> PermGroup:
    return realize(parse_family(text))


# ---------------------------------------------------------------------------
# subgroup lattice

def subgroup_lattice(group: PermGroup) -> list[SubgroupHandle]:
    """Every subgroup of a soluble group, found by cyclic extension on the
    group's element index.

    Subgroups are bitmasks over the element index.  Round by round from the
    trivial subgroup, each subgroup A new in the round before is extended by
    one x from each right coset Ax that normalizes A and whose first power in
    A is x^p with p prime: A<x> is the union of the cosets Ax^i, i < p
    (Neubüser's cyclic extension).  Every subgroup U > 1 of a soluble group
    has a normal subgroup of prime index, so all are reached, and the whole
    group is reached exactly when it is soluble.

    Each handle carries its mask, its core's mask and its class key, and
    builds its group only when read.  A conjugacy class is the orbit of a
    mask under the strong generators' conjugation maps, walked once for all
    its members; the core is the orbit's AND, and the key its least mask.
    The list is sorted by order and then by canonical element list, which is
    the order of element indices.
    """
    if group.order > LATTICE_GUARD:
        raise GuardExceeded(f"group order {group.order} exceeds the lattice guard ({LATTICE_GUARD})")
    table = group._element_index()
    cols, inverse = table.cols, table.inverse
    gens_of: dict[int, tuple[int, ...]] = {1: ()}  # bit 0 alone: the trivial subgroup
    worklist = [1]
    while worklist:
        fresh = []
        for a in worklist:
            members = mask_indices(a)
            gens = gens_of[a]
            seen = a  # the cosets Ax tried so far
            for x in range(group.order):
                if seen >> x & 1:
                    continue
                col_x = cols[x]
                seen |= sum(1 << col_x[y] for y in members)
                x_inverse = inverse[x]
                if not all(a >> col_x[cols[g][x_inverse]] & 1 for g in gens):
                    continue  # some x^-1*g*x lies outside A
                powers = [x]
                while not a >> powers[-1] & 1:
                    powers.append(col_x[powers[-1]])
                if not is_prime(len(powers)):
                    continue
                joined = a
                for t in powers[:-1]:
                    col_t = cols[t]
                    joined |= sum(1 << col_t[y] for y in members)
                if joined not in gens_of:
                    gens_of[joined] = gens + (x,)
                    fresh.append(joined)
        worklist = fresh
    if (1 << group.order) - 1 not in gens_of:
        raise PreconditionError(f"the subgroup lattice needs a soluble group; this group of order {group.order} is not soluble")

    # h -> index(s^-1 * h * s) for each strong generator s: cols[g][x] is x*g.
    gen_maps = []
    for s in group.strong_generators:
        s_index = table.position[s.images]
        col_s, s_inverse = cols[s_index], inverse[s_index]
        gen_maps.append([col_s[col_h[s_inverse]] for col_h in cols])
    classes: dict[int, tuple[int, int]] = {}  # mask -> (core mask, class key)
    for mask in gens_of:
        if mask in classes:
            continue
        orbit = [mask]
        for member in orbit:
            indices = mask_indices(member)
            for conj in gen_maps:
                image = sum(1 << conj[i] for i in indices)
                if image not in orbit:
                    orbit.append(image)
        classes.update(dict.fromkeys(orbit, (reduce(and_, orbit), min(orbit))))
    ordered = sorted(gens_of, key=lambda m: (m.bit_count(), mask_indices(m)))
    return [SubgroupHandle(group, mask, *classes[mask]) for mask in ordered]


# ---------------------------------------------------------------------------
# faithful representation sampler

class RepresentationEntry:
    __slots__ = ("subgroups", "action", "degree")

    def __init__(self, subgroups: tuple[PermGroup, ...], action: PermGroup, degree: int) -> None:
        self.subgroups, self.action, self.degree = subgroups, action, degree


def faithful_representations(group: PermGroup, max_degree: int) -> tuple[RepresentationEntry, ...]:
    """All transitive faithful coset actions plus all 2-part intransitive ones.

    Transitive entries use core-free subgroups of index <= max_degree; 2-part
    entries pair subgroups whose cores intersect trivially with total index
    <= max_degree.  Conjugate subgroups give isomorphic actions, so a class
    enters by its first handle in the lattice: one entry per multiset of
    subgroup conjugacy classes.
    """
    first_of_class: dict[int, SubgroupHandle] = {}
    for handle in subgroup_lattice(group):
        first_of_class.setdefault(handle.class_key, handle)
    reps = list(first_of_class.values())
    entries: list[RepresentationEntry] = []
    actions: dict[int, CosetAction] = {}

    def action_on(handle: SubgroupHandle) -> CosetAction:
        # Built at most once per subgroup.
        if handle.mask not in actions:
            actions[handle.mask] = coset_action(group, handle.group)
        return actions[handle.mask]

    for i, h1 in enumerate(reps):
        index1 = group.order // h1.mask.bit_count()
        if index1 > max_degree:
            continue
        if h1.core_mask == 1:
            action = action_on(h1).image
            entries.append(RepresentationEntry((h1.group,), action, action.degree))
        for h2 in reps[i:]:
            index2 = group.order // h2.mask.bit_count()
            if index1 + index2 > max_degree:
                continue
            if index1 == 1 and index2 == 1:
                continue  # two copies of the one-point action say nothing
            if h1.core_mask & h2.core_mask != 1:
                continue  # the cores share more than the identity (index 0)
            ca1, ca2 = action_on(h1), action_on(h2)
            degree = ca1.image.degree + ca2.image.degree
            generators = tuple(direct_sum([ca1.embed(g), ca2.embed(g)]) for g in group.strong_generators)
            action = PermGroup(degree, generators)
            entries.append(RepresentationEntry((h1.group, h2.group), action, degree))

    entries.sort(key=lambda e: (e.degree, len(e.subgroups), tuple(g.order for g in e.subgroups)))
    for entry in entries:
        if entry.action.order != group.order:
            raise InternalDefect("sampled representation is not faithful")
    return tuple(entries)


__all__ = [
    "FAMILY_EXAMPLES",
    "FamilySpec",
    "RepresentationEntry",
    "faithful_representations",
    "parse_family",
    "realize",
    "realize_name",
    "subgroup_lattice",
]

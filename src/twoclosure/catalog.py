"""Parameterized group families, subgroup lattices, and a sampler of faithful
permutation representations.

Family syntax (used by the CLI): ``C12``, ``Q8``, ``D8``, ``SD16``, ``E27``,
and ``x``-joined products such as ``Q16xC3`` or ``C2xC2``.
"""

from __future__ import annotations

import re
from typing import Callable

from .actions import CosetAction, coset_action, disjoint_union_action
from .errors import GuardExceeded, InternalDefect, PreconditionError
from .group import (
    INDEX_GUARD,
    PermGroup,
    SubgroupHandle,
    is_prime,
    mask_indices,
    prime_factorization,
)
from .perm import Permutation, from_cycles

# The lattice is computed on the element index, so it shares its guard.
LATTICE_GUARD = INDEX_GUARD


class FamilySpec:
    """One group family instance; products hold their factor specs in order."""

    __slots__ = ("kind", "order", "parts")

    def __init__(self, kind: str, order: int, parts: tuple[FamilySpec, ...] = ()) -> None:
        self.kind = kind  # cyclic | dihedral | semidihedral | quaternion | extraspecial | product
        self.order, self.parts = order, parts

    @property
    def name(self) -> str:
        if self.kind == "product":
            return "x".join(part.name for part in self.parts)
        prefix = {
            "cyclic": "C",
            "dihedral": "D",
            "semidihedral": "SD",
            "quaternion": "Q",
            "extraspecial": "E",
        }[self.kind]
        return f"{prefix}{self.order}"

    @property
    def degree(self) -> int:
        """Degree of the default realization (`realize`), known before it is built."""
        if self.kind == "product":
            return sum(part.degree for part in self.parts)
        if self.kind in ("dihedral", "semidihedral"):
            return self.order // 2
        if self.kind == "extraspecial":
            return round(self.order ** (1 / 3)) ** 2
        return self.order  # cyclic (C1 on one point) and quaternion: regular


def cyclic(n: int) -> FamilySpec:
    if n < 1:
        raise PreconditionError("cyclic order must be positive")
    return FamilySpec("cyclic", n)


def abelian(p: int, exponents) -> FamilySpec:
    """Abelian p-group as a product of cyclic p-power factors."""
    return product([cyclic(p**k) for k in exponents])


def dihedral(order: int) -> FamilySpec:
    if order < 6 or order % 2:
        raise PreconditionError("dihedral order must be an even number >= 6")
    return FamilySpec("dihedral", order)


def semidihedral(order: int) -> FamilySpec:
    if order < 16 or order & (order - 1):
        raise PreconditionError("semidihedral order must be a power of two >= 16")
    return FamilySpec("semidihedral", order)


def generalized_quaternion(order: int) -> FamilySpec:
    if order < 8 or order & (order - 1):
        raise PreconditionError("generalized quaternion order must be a power of two >= 8")
    return FamilySpec("quaternion", order)


def extraspecial_exponent_p(p: int) -> FamilySpec:
    if p < 3 or not is_prime(p):
        raise PreconditionError("extraspecial parameter must be an odd prime")
    return FamilySpec("extraspecial", p**3)


def product(parts) -> FamilySpec:
    parts = tuple(parts)
    if not parts:
        raise PreconditionError("a product needs at least one factor")
    if len(parts) == 1:
        return parts[0]
    order = 1
    flat: list[FamilySpec] = []
    for part in parts:
        order *= part.order
        if part.kind == "product":
            flat.extend(part.parts)
        else:
            flat.append(part)
    return FamilySpec("product", order, tuple(flat))


_ATOM_RE = re.compile(r"^(SD|C|D|Q|E)(\d+)$")


def parse_family(text: str) -> FamilySpec:
    """Parse the textual family syntax, e.g. ``Q16xC3``."""
    parts = []
    for token in text.strip().split("x"):
        m = _ATOM_RE.match(token.strip())
        if not m:
            raise PreconditionError(f"unrecognized family token {token!r}")
        prefix, number = m.group(1), int(m.group(2))
        if prefix == "C":
            parts.append(cyclic(number))
        elif prefix == "D":
            parts.append(dihedral(number))
        elif prefix == "SD":
            parts.append(semidihedral(number))
        elif prefix == "Q":
            parts.append(generalized_quaternion(number))
        else:
            factors = prime_factorization(number)
            if len(factors) != 1 or next(iter(factors.values())) != 3:
                raise PreconditionError("extraspecial orders must be p^3 for an odd prime p")
            parts.append(extraspecial_exponent_p(next(iter(factors))))
    return product(parts)


def family_syntax_examples() -> list[str]:
    return ["C12", "C2xC2", "D8", "SD16", "Q8", "Q16xC3", "E27", "Q8xC2", "C2xQ8xC3"]


# ---------------------------------------------------------------------------
# realizations

# An atom's chain is built with the order its family's definition fixes, so
# it stops sifting there; tests check each realized order independently.

def _realize_cyclic(n: int) -> PermGroup:
    if n == 1:
        return PermGroup(1, ())
    return PermGroup(n, (from_cycles(n, [tuple(range(n))]),), _order=n)


def _realize_dihedral(order: int) -> PermGroup:
    n = order // 2
    rotation = from_cycles(n, [tuple(range(n))])
    reflection = Permutation(tuple((n - i) % n for i in range(n)))
    return PermGroup(n, (rotation, reflection), _order=order)


def _realize_semidihedral(order: int) -> PermGroup:
    m = order // 2
    twist = m // 2 - 1
    rotation = from_cycles(m, [tuple(range(m))])
    reflection = Permutation(tuple((twist * i) % m for i in range(m)))
    return PermGroup(m, (rotation, reflection), _order=order)


def _realize_quaternion(order: int) -> PermGroup:
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
    return PermGroup(order, (Permutation(tuple(a_images)), Permutation(tuple(b_images))), _order=order)


def _realize_extraspecial(p: int) -> PermGroup:
    # Coset action of the order-p^3, exponent-p group on a noncentral order-p
    # subgroup: points are pairs (x, z), the minimal faithful degree p^2.
    def point(x: int, z: int) -> int:
        return x * p + z

    a_images = [0] * (p * p)
    b_images = [0] * (p * p)
    for x in range(p):
        for z in range(p):
            a_images[point(x, z)] = point((x + 1) % p, z)
            b_images[point(x, z)] = point(x, (z + x) % p)
    return PermGroup(p * p, (Permutation(tuple(a_images)), Permutation(tuple(b_images))), _order=p**3)


def realize(spec: FamilySpec) -> PermGroup:
    """Default faithful realization of a family, with its order verified."""
    if spec.kind == "cyclic":
        group = _realize_cyclic(spec.order)
    elif spec.kind == "dihedral":
        group = _realize_dihedral(spec.order)
    elif spec.kind == "semidihedral":
        group = _realize_semidihedral(spec.order)
    elif spec.kind == "quaternion":
        group = _realize_quaternion(spec.order)
    elif spec.kind == "extraspecial":
        group = _realize_extraspecial(round(spec.order ** (1 / 3)))
    elif spec.kind == "product":
        group = disjoint_union_action([realize(part) for part in spec.parts]).group
    else:
        raise PreconditionError(f"unknown family kind {spec.kind!r}")
    if group.order != spec.order or group.degree != spec.degree:
        raise InternalDefect(
            f"realized {spec.name} with order {group.order} and degree {group.degree},"
            f" expected {spec.order} and {spec.degree}"
        )
    return group


def realize_name(text: str) -> PermGroup:
    return realize(parse_family(text))


# ---------------------------------------------------------------------------
# subgroup lattice

def subgroup_lattice(group: PermGroup) -> list[SubgroupHandle]:
    """Every subgroup, found by cyclic extension on the group's element index.

    Subgroups are bitmasks over the element index.  The first round holds the
    cyclic subgroups; each later round joins every subgroup new in the round
    before with each cyclic subgroup it does not contain (Neubüser's cyclic
    extension), until a round finds nothing new.  Every subgroup is generated
    by cyclic subgroups, so all are reached.  A join extends the known
    subgroup's mask by the new generator under the right-regular table.

    Each handle carries its mask and its core's mask, and builds its group
    only when read.  The core is the largest subset of the subgroup that the
    strong generators conjugate into itself: K <- K & K^s until no generator
    s removes an element.  The list is sorted by order and then by canonical
    element list, which is the order of element indices.
    """
    if group.order > LATTICE_GUARD:
        raise GuardExceeded(f"group order {group.order} exceeds the lattice guard ({LATTICE_GUARD})")
    table = group._element_index()
    gens_of: dict[int, tuple[int, ...]] = {1: ()}  # bit 0 alone: the trivial subgroup
    for x in range(1, group.order):  # <x>: the trivial subgroup extended by x
        gens_of.setdefault(table.extend(1, (0,), (), x), (x,))
    cyclic = [(mask, gens[0]) for mask, gens in gens_of.items() if gens]
    worklist = [mask for mask, _ in cyclic]
    while worklist:
        fresh = []
        for a in worklist:
            members = mask_indices(a)
            gens = gens_of[a]
            for c, x in cyclic:
                if a & c == c:
                    continue
                joined = table.extend(a, members, gens, x)
                if joined not in gens_of:
                    gens_of[joined] = gens + (x,)
                    fresh.append(joined)
        worklist = fresh

    conjugations = table.conjugations()
    gen_maps = [conjugations[table.position[s.images]] for s in group.strong_generators]
    handles = []
    for mask in sorted(gens_of, key=lambda m: (m.bit_count(), mask_indices(m))):
        core_mask, stable = mask, False
        while not stable:
            stable = True
            for conj in gen_maps:
                kept = core_mask & sum(1 << conj[i] for i in mask_indices(core_mask))
                if kept != core_mask:
                    core_mask, stable = kept, False
        handles.append(SubgroupHandle(group, mask, core_mask))
    return handles


# ---------------------------------------------------------------------------
# faithful representation sampler

class RepresentationEntry:
    __slots__ = ("subgroups", "action", "degree")

    def __init__(self, subgroups: tuple[PermGroup, ...], action: PermGroup, degree: int) -> None:
        self.subgroups, self.action, self.degree = subgroups, action, degree


class RepresentationSample:
    __slots__ = ("group", "max_degree", "entries")

    def __init__(self, group: PermGroup, max_degree: int, entries: tuple[RepresentationEntry, ...]) -> None:
        self.group, self.max_degree, self.entries = group, max_degree, entries


def _conjugacy_key(conjugates: Callable[[int], list[int]], masks: tuple[int, ...]) -> tuple[int, ...]:
    """Least simultaneous conjugate of a set of subgroup masks, as a sorted tuple;
    `conjugates(mask)` lists a mask's conjugates in element index order.

    Two sets of subgroups get the same key exactly when one element conjugates
    the first onto the second.
    """
    return min(tuple(sorted(same_g)) for same_g in zip(*map(conjugates, masks)))


def faithful_representations(group: PermGroup, max_degree: int) -> RepresentationSample:
    """All transitive faithful coset actions plus all 2-part intransitive ones.

    Transitive entries use core-free subgroups of index <= max_degree; 2-part
    entries pair subgroups whose cores intersect trivially with total index
    <= max_degree.  Entries are deduplicated up to conjugacy of the subgroup
    sets.
    """
    lattice = subgroup_lattice(group)
    table = group._element_index()
    entries: list[RepresentationEntry] = []
    actions: dict[int, CosetAction] = {}
    conjugates_of: dict[int, list[int]] = {}

    def conjugates(mask: int) -> list[int]:
        if mask not in conjugates_of:
            conjugates_of[mask] = table.conjugates(mask)
        return conjugates_of[mask]

    def action_on(mask: int, subgroup: PermGroup) -> CosetAction:
        # Built at most once per subgroup.
        if mask not in actions:
            actions[mask] = coset_action(group, subgroup)
        return actions[mask]

    seen_single = set()
    for handle in lattice:
        index = group.order // handle.mask.bit_count()
        if handle.core_mask != 1 or index > max_degree:
            continue
        canon = _conjugacy_key(conjugates, (handle.mask,))
        if canon in seen_single:
            continue
        seen_single.add(canon)
        action = action_on(handle.mask, handle.group).image
        entries.append(RepresentationEntry((handle.group,), action, action.degree))

    seen_pairs = set()
    for i, h1 in enumerate(lattice):
        index1 = group.order // h1.mask.bit_count()
        if index1 > max_degree:
            continue
        for h2 in lattice[i:]:
            index2 = group.order // h2.mask.bit_count()
            if index1 + index2 > max_degree:
                continue
            if index1 == 1 and index2 == 1:
                continue  # two copies of the one-point action say nothing
            if h1.core_mask & h2.core_mask != 1:
                continue  # the cores share more than the identity (index 0)
            canon = _conjugacy_key(conjugates, (h1.mask, h2.mask))
            if canon in seen_pairs:
                continue
            seen_pairs.add(canon)
            ca1, ca2 = action_on(h1.mask, h1.group), action_on(h2.mask, h2.group)
            degree = ca1.image.degree + ca2.image.degree

            def splice(x: Permutation) -> Permutation:
                left = ca1.embed(x)
                right = ca2.embed(x)
                images = list(left.images) + [ca1.image.degree + j for j in right.images]
                return Permutation(tuple(images))

            action = PermGroup(degree, tuple(splice(g) for g in group.strong_generators))
            if action.order != group.order:
                raise InternalDefect("sampled 2-part representation is not faithful")
            entries.append(RepresentationEntry((h1.group, h2.group), action, degree))

    entries.sort(key=lambda e: (e.degree, len(e.subgroups), tuple(g.order for g in e.subgroups)))
    for entry in entries:
        if entry.action.order != group.order:
            raise InternalDefect("sampled representation is not faithful")
    return RepresentationSample(group, max_degree, tuple(entries))


__all__ = [
    "FamilySpec",
    "RepresentationEntry",
    "RepresentationSample",
    "abelian",
    "cyclic",
    "dihedral",
    "extraspecial_exponent_p",
    "faithful_representations",
    "family_syntax_examples",
    "generalized_quaternion",
    "parse_family",
    "product",
    "realize",
    "realize_name",
    "semidihedral",
    "subgroup_lattice",
]

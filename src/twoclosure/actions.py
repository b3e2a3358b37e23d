"""Faithful-action builders: coset actions, disjoint unions, a coprime
direct-factor check, block quotients, and the universal embedding of a group into the
wreath-style action on Delta x G/N built from a faithful action of a normal
subgroup N.

Each builder fixes its 0-based point order by construction:
- a coset action numbers the cosets by their sorted least representatives;
- a disjoint union places part k at points offsets[k] .. offsets[k] + degree - 1;
- a block quotient numbers the blocks in the normal subgroup's orbit order;
- the universal embedding is coset-major: point (u, delta) is u*|Delta| + delta.
"""

from __future__ import annotations

from math import gcd
from typing import Mapping

from .errors import GuardExceeded, InternalDefect, PreconditionError
from .group import (
    ENUMERATION_GUARD,
    PermGroup,
    as_subgroup,
    core,
    is_normal,
)
from .perm import Permutation, identity

# ---------------------------------------------------------------------------
# coset actions

class CosetAction:
    """Right-multiplication action of a group on the right cosets of a subgroup."""

    __slots__ = ("image", "kernel", "representatives", "point_of_element")

    def __init__(
        self, image: PermGroup, kernel: PermGroup,
        representatives: tuple[Permutation, ...], point_of_element: Mapping[Permutation, int],
    ) -> None:
        self.image, self.kernel = image, kernel
        self.representatives, self.point_of_element = representatives, point_of_element

    def embed(self, x: Permutation) -> Permutation:
        """Image of a group element as a permutation of the coset points."""
        return _coset_permutation(x, self.representatives, self.point_of_element)


def _coset_permutation(
    x: Permutation, representatives: tuple[Permutation, ...], point_of: Mapping[Permutation, int]
) -> Permutation:
    return Permutation(tuple(point_of[rep * x] for rep in representatives))


def coset_action(group: PermGroup, subgroup: PermGroup) -> CosetAction:
    """Action on right cosets; the kernel equals the core of the subgroup.

    Each coset is represented by its lexicographically least permutation, and
    the points follow the sorted representatives.
    """
    as_subgroup(group, subgroup)
    if group.order > ENUMERATION_GUARD:
        raise GuardExceeded("group too large for coset enumeration")
    sub_elements = subgroup.elements()
    rep_of: dict[Permutation, Permutation] = {}
    for e in group.elements():
        if e in rep_of:
            continue
        coset = [h * e for h in sub_elements]
        rep = min(coset)
        for c in coset:
            rep_of[c] = rep
    representatives = tuple(sorted(set(rep_of.values())))
    rep_index = {rep: i for i, rep in enumerate(representatives)}
    point_of = {e: rep_index[rep] for e, rep in rep_of.items()}
    image = PermGroup(
        len(representatives),
        tuple(_coset_permutation(g, representatives, point_of) for g in group.strong_generators),
    )
    # The kernel fixes the coset H, so it lies in H; both lists are sorted.
    kernel_elements = tuple(
        e for e in sub_elements if all(point_of[rep * e] == i for i, rep in enumerate(representatives))
    )
    kernel = PermGroup(group.degree, kernel_elements, _order=len(kernel_elements))
    expected = core(group, subgroup)
    if not kernel.same_group(expected):
        raise InternalDefect("coset action kernel disagrees with the subgroup core")
    if group.order != image.order * kernel.order:
        raise InternalDefect("coset action order bookkeeping failed")
    return CosetAction(image, kernel, representatives, point_of)


# ---------------------------------------------------------------------------
# disjoint unions

class DisjointUnionAction:
    __slots__ = ("group", "embedded", "offsets")

    def __init__(self, group: PermGroup, embedded: tuple[PermGroup, ...], offsets: tuple[int, ...]) -> None:
        self.group, self.embedded, self.offsets = group, embedded, offsets

    def embed(self, part: int, g: Permutation) -> Permutation:
        """A permutation of part `part` as an element moving only that part's points."""
        return _shifted(g, self.offsets[part], self.group.degree)


def _shifted(g: Permutation, offset: int, degree: int) -> Permutation:
    images = list(range(degree))
    for i, j in enumerate(g.images):
        images[offset + i] = offset + j
    return Permutation(tuple(images))


def disjoint_union_action(parts: list[PermGroup] | tuple[PermGroup, ...]) -> DisjointUnionAction:
    """External direct product acting on the disjoint union of the part sets."""
    if not parts:
        raise PreconditionError("disjoint union needs at least one part")
    offsets = []
    total = 0
    for part in parts:
        offsets.append(total)
        total += part.degree

    gens = []
    embedded = []
    for part, off in zip(parts, offsets):
        gens.extend(_shifted(g, off, total) for g in part.generators)
        embedded.append(PermGroup(total, [_shifted(g, off, total) for g in part.strong_generators], _order=part.order))
    group = PermGroup(total, tuple(gens))
    expected = 1
    for part in parts:
        expected *= part.order
    if group.order != expected:
        raise InternalDefect("disjoint union order is not the product of part orders")
    return DisjointUnionAction(group, tuple(embedded), tuple(offsets))


# ---------------------------------------------------------------------------
# coprime direct factors

def coprime_direct_factors(
    group: PermGroup,
    h_part: PermGroup,
    k_part: PermGroup,
) -> tuple[PermGroup, PermGroup]:
    """Validate that the group is the internal direct product H x K of two
    subgroups of coprime orders; returns (H, K).  Coprime orders meet only
    in the identity (Lagrange), so the intersection needs no check."""
    h_group = as_subgroup(group, h_part)
    k_group = as_subgroup(group, k_part)
    if gcd(h_group.order, k_group.order) != 1:
        raise PreconditionError("the factors must have coprime orders")
    if h_group.order * k_group.order != group.order:
        raise PreconditionError("the factor orders do not multiply to the group order")
    for a in h_group.strong_generators:
        for b in k_group.strong_generators:
            if a * b != b * a:
                raise PreconditionError("the factors do not commute elementwise")
    return h_group, k_group


# ---------------------------------------------------------------------------
# block quotients

class QuotientAction:
    """Action of a group on the orbits of a normal subgroup."""

    __slots__ = ("image", "kernel", "block_of", "blocks")

    def __init__(
        self, image: PermGroup, kernel: PermGroup, block_of: tuple[int, ...], blocks: tuple[tuple[int, ...], ...],
    ) -> None:
        self.image, self.kernel, self.block_of, self.blocks = image, kernel, block_of, blocks

    def embed(self, x: Permutation) -> Permutation:
        return _block_permutation(x, self.blocks, self.block_of)


def _block_permutation(
    x: Permutation, blocks: tuple[tuple[int, ...], ...], block_of: tuple[int, ...]
) -> Permutation:
    images = []
    for block in blocks:
        target = {block_of[x.images[p]] for p in block}
        if len(target) != 1:
            raise InternalDefect("element does not permute the blocks")
        images.append(target.pop())
    return Permutation(tuple(images))


def quotient_action(group: PermGroup, subgroup: PermGroup) -> QuotientAction:
    """Action on the orbit blocks of a normal subgroup, with its exact kernel."""
    if not is_normal(group, subgroup):
        raise PreconditionError("subgroup is not normal, blocks would not be preserved")
    blocks = subgroup.orbits()
    block_of_list = [0] * group.degree
    for bi, block in enumerate(blocks):
        for p in block:
            block_of_list[p] = bi
    block_of = tuple(block_of_list)
    image = PermGroup(
        len(blocks),
        tuple(_block_permutation(g, blocks, block_of) for g in group.strong_generators),
    )
    if group.order > ENUMERATION_GUARD:
        raise GuardExceeded("group too large to compute the block action kernel")
    kernel_elements = tuple(
        e
        for e in group.elements()
        if all(block_of[e.images[p]] == block_of[p] for p in range(group.degree))
    )
    kernel = PermGroup(group.degree, kernel_elements, _order=len(kernel_elements))
    return QuotientAction(image, kernel, block_of, blocks)


# ---------------------------------------------------------------------------
# universal embedding on Delta x G/N

class ActionHom:
    """A faithful action of a group on a fresh point set, element by element."""

    __slots__ = ("source", "degree", "mapping")

    def __init__(self, source: PermGroup, degree: int, mapping: Mapping[Permutation, Permutation]) -> None:
        self.source, self.degree, self.mapping = source, degree, mapping

    def of(self, x: Permutation) -> Permutation:
        return self.mapping[x]


def action_hom(source: PermGroup, degree: int, mapping: Mapping[Permutation, Permutation]) -> ActionHom:
    """Validate and wrap a faithful homomorphism into Sym(degree)."""
    elements = source.elements()
    if set(mapping) != set(elements):
        raise PreconditionError("action must be defined on exactly the group elements")
    for x, px in mapping.items():
        if px.degree != degree:
            raise PreconditionError("action image degree mismatch")
    # Every element is a positive word in the strong generators: phi(1) = 1
    # and phi(x*s) = phi(x)*phi(s) for every x and generator s suffice.
    if not mapping[elements[0]].is_identity() or any(
        mapping[x] * mapping[s] != mapping[x * s] for x in elements for s in source.strong_generators
    ):
        raise PreconditionError("mapping is not a homomorphism")
    if len(set(mapping.values())) != len(elements):
        raise PreconditionError("action is not faithful")
    return ActionHom(source, degree, dict(mapping))


class EmbeddedAction:
    """A group acting on Delta x G/N, with the transversal, coset map and
    cocycle behind the action.

    The transversal is found by a breadth-first scan of the coset graph in
    canonical generator order, so the representative of the trivial coset is
    the identity and the whole structure is reproducible.
    """

    __slots__ = ("image", "act", "transversal", "coset_of", "quotient_order")

    def __init__(
        self,
        act: ActionHom,
        transversal: tuple[Permutation, ...],
        coset_of: dict[Permutation, int],
        generators: tuple[Permutation, ...],
    ) -> None:
        self.act, self.transversal, self.coset_of = act, transversal, coset_of
        self.quotient_order = len(transversal)
        self.image = PermGroup(act.degree * self.quotient_order, tuple(self.embed(g) for g in generators))

    def _step(self, x: Permutation, u: int) -> tuple[int, Permutation]:
        """(v, t_u * x * t_v^{-1}) for v the coset of t_u * x; the cocycle lands in N."""
        e = self.transversal[u] * x
        v = self.coset_of[e]
        f = e * self.transversal[v].inverse()
        if f not in self.act.mapping:
            raise InternalDefect("cocycle value escaped the normal subgroup")
        return v, f

    def cocycle(self, x: Permutation, u: int) -> Permutation:
        """t_u * x * t_v^{-1} where v is the coset of t_u * x; lands in N."""
        return self._step(x, u)[1]

    def embed(self, x: Permutation) -> Permutation:
        """The action of x on Delta x G/N: (delta, u) -> (delta^cocycle(x, u), v),
        where v is the coset of t_u * x."""
        d = self.act.degree
        images: list[int] = []
        for u in range(self.quotient_order):
            v, f = self._step(x, u)
            images.extend(v * d + i for i in self.act.mapping[f].images)
        return Permutation(tuple(images))


def universal_embedding(
    group: PermGroup,
    normal: PermGroup,
    act: ActionHom,
) -> EmbeddedAction:
    """Faithful action of a group on Delta x G/N from a faithful N-action.

    Points are ordered coset-major: index(u, delta) = u*|Delta| + delta.
    When N is central, every element of N moves only the Delta coordinate.
    """
    n_group = as_subgroup(group, normal)
    if group.order > ENUMERATION_GUARD:
        raise GuardExceeded("group too large for the embedding construction")
    if not is_normal(group, n_group):
        raise PreconditionError("subgroup is not normal")
    if not act.source.same_group(n_group):
        raise PreconditionError("the inner action is not an action of the normal subgroup")

    n_elements = n_group.elements()
    transversal: list[Permutation] = [identity(group.degree)]
    coset_of: dict[Permutation, int] = {x: 0 for x in n_elements}
    head = 0
    while head < len(transversal):
        t = transversal[head]
        head += 1
        for s in group.strong_generators:
            e = t * s
            if e not in coset_of:
                transversal.append(e)
                u = len(transversal) - 1
                for x in n_elements:
                    coset_of[x * e] = u
    if len(coset_of) != group.order:
        raise InternalDefect("coset scan did not cover the group")
    embedded = EmbeddedAction(act, tuple(transversal), coset_of, group.strong_generators)
    if embedded.image.order != group.order:
        raise InternalDefect("embedded action is not faithful")
    return embedded

"""Faithful-action builders: coset actions, disjoint unions, a coprime
direct-factor check, block quotients, and the universal embedding of a group into the
wreath-style action on Delta x G/N built from a faithful action of a normal
subgroup N.

Each builder fixes its 0-based point order by construction:
- a coset action numbers the cosets by their sorted least representatives;
- a disjoint union places its parts side by side in order, as `direct_sum` does;
- a block quotient numbers the blocks in the normal subgroup's orbit order;
- the universal embedding is coset-major: point (u, delta) is u*|Delta| + delta.

Each hypothesis is checked once: a coset action's subgroup by `as_subgroup`, a
normal subgroup by `is_normal`, and an embedding's inner action by `action_hom`.
No builder constructs its kernel, whose order is |G|/|image|.
"""

from __future__ import annotations

from math import gcd, prod
from typing import Mapping

from .errors import GuardExceeded, InternalDefect, PreconditionError
from .group import ENUMERATION_GUARD, PermGroup, as_subgroup, is_normal
from .perm import Permutation, direct_sum, identity

# ---------------------------------------------------------------------------
# coset actions

class CosetAction:
    """Right-multiplication action on the cosets of a subgroup; its kernel, of order |G|/|image|, is not built."""

    __slots__ = ("image", "representatives", "point_of_element")

    def __init__(
        self, image: PermGroup, representatives: tuple[Permutation, ...], point_of_element: Mapping[Permutation, int],
    ) -> None:
        self.image, self.representatives, self.point_of_element = image, representatives, point_of_element

    def embed(self, x: Permutation) -> Permutation:
        """Image of a group element as a permutation of the coset points."""
        return _coset_permutation(x, self.representatives, self.point_of_element)


def _coset_permutation(
    x: Permutation, representatives: tuple[Permutation, ...], point_of: Mapping[Permutation, int]
) -> Permutation:
    return Permutation(tuple(point_of[rep * x] for rep in representatives))


def coset_action(group: PermGroup, subgroup: PermGroup) -> CosetAction:
    """Action on right cosets of a subgroup checked by `as_subgroup`.

    Each coset is represented by its lexicographically least permutation, and
    the points follow the sorted representatives.  The action is faithful
    exactly when image.order == group.order, since the kernel, the subgroup's
    core, has order |G|/|image|.
    """
    as_subgroup(group, subgroup)
    elements = group.elements()  # refuses a group above the enumeration guard
    sub_elements = subgroup.elements()
    rep_of: dict[Permutation, Permutation] = {}
    for e in elements:
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
    return CosetAction(image, representatives, point_of)


# ---------------------------------------------------------------------------
# disjoint unions

class DisjointUnionAction:
    __slots__ = ("group", "embedded")

    def __init__(self, group: PermGroup, embedded: tuple[PermGroup, ...]) -> None:
        self.group, self.embedded = group, embedded


def disjoint_union_action(parts: list[PermGroup] | tuple[PermGroup, ...]) -> DisjointUnionAction:
    """External direct product acting on the disjoint union of the part sets."""
    if not parts:
        raise PreconditionError("disjoint union needs at least one part")
    fixed = [identity(part.degree) for part in parts]

    def placed(k: int, g: Permutation) -> Permutation:
        return direct_sum(fixed[:k] + [g] + fixed[k + 1:])

    total = sum(part.degree for part in parts)
    gens = [placed(k, g) for k, part in enumerate(parts) for g in part.generators]
    embedded = tuple(
        PermGroup(total, [placed(k, g) for g in part.strong_generators], _order=part.order)
        for k, part in enumerate(parts)
    )
    group = PermGroup(total, tuple(gens), _order=prod(part.order for part in parts))
    return DisjointUnionAction(group, embedded)


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
    """Action on the orbits of a normal subgroup; its kernel, of order |G|/|image|, is not built."""

    __slots__ = ("image", "block_of", "blocks")

    def __init__(self, image: PermGroup, block_of: tuple[int, ...], blocks: tuple[tuple[int, ...], ...]) -> None:
        self.image, self.block_of, self.blocks = image, block_of, blocks

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
    """Action on the orbit blocks of a normal subgroup.  No element of the
    group is listed, so it has no order limit."""
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
    return QuotientAction(image, block_of, blocks)


# ---------------------------------------------------------------------------
# universal embedding on Delta x G/N

def action_hom(source: PermGroup, degree: int, images: Mapping[Permutation, Permutation]) -> dict[Permutation, Permutation]:
    """Extend images of elements generating `source` to a faithful
    homomorphism into Sym(degree); returns it on every element as a dict.

    A breadth-first scan from the identity sets phi(x*s) = phi(x)*phi(s) for
    every reached x and every key s, in |source|*|images| products.  Every
    element is a positive word in the keys, so a map that no product
    contradicts is a homomorphism.
    """
    if source.order > ENUMERATION_GUARD:
        raise GuardExceeded(f"group order {source.order} exceeds the enumeration guard ({ENUMERATION_GUARD})")
    for s, ps in images.items():
        if not source.contains(s):
            raise PreconditionError("action is given on an element outside the group")
        if ps.degree != degree:
            raise PreconditionError("action image degree mismatch")
    mapping = {identity(source.degree): identity(degree)}
    queue = list(mapping)
    for x in queue:
        px = mapping[x]
        for s, ps in images.items():
            y, py = x * s, px * ps
            known = mapping.get(y)
            if known is None:
                mapping[y] = py
                queue.append(y)
            elif known != py:
                raise PreconditionError("mapping is not a homomorphism")
    if len(mapping) != source.order:
        raise PreconditionError("the elements given do not generate the group")
    if len(set(mapping.values())) != len(mapping):
        raise PreconditionError("action is not faithful")
    return mapping


class EmbeddedAction:
    """A group acting on Delta x G/N, with the inner action of N on Delta
    (`mapping`, of degree `degree`) and the transversal, coset map and
    cocycle behind the action.

    The transversal is found by a breadth-first scan of the coset graph in
    canonical generator order, so the representative of the trivial coset is
    the identity and the whole structure is reproducible.
    """

    __slots__ = ("image", "mapping", "degree", "transversal", "coset_of", "quotient_order")

    def __init__(
        self,
        mapping: dict[Permutation, Permutation],
        degree: int,
        transversal: tuple[Permutation, ...],
        coset_of: dict[Permutation, int],
        generators: tuple[Permutation, ...],
    ) -> None:
        self.mapping, self.degree, self.transversal, self.coset_of = mapping, degree, transversal, coset_of
        self.quotient_order = len(transversal)
        self.image = PermGroup(degree * self.quotient_order, tuple(self.embed(g) for g in generators))

    def _step(self, x: Permutation, u: int) -> tuple[int, Permutation]:
        """(v, t_u * x * t_v^{-1}) for v the coset of t_u * x; the cocycle lands in N."""
        e = self.transversal[u] * x
        v = self.coset_of[e]
        f = e * self.transversal[v].inverse()
        if f not in self.mapping:
            raise InternalDefect("cocycle value escaped the normal subgroup")
        return v, f

    def embed(self, x: Permutation) -> Permutation:
        """The action of x on Delta x G/N: (delta, u) -> (delta^f, v), where v
        is the coset of t_u * x and f = t_u * x * t_v^{-1} is the cocycle."""
        d = self.degree
        images: list[int] = []
        for u in range(self.quotient_order):
            v, f = self._step(x, u)
            images.extend(v * d + i for i in self.mapping[f].images)
        return Permutation(tuple(images))


def universal_embedding(
    group: PermGroup,
    normal: PermGroup,
    degree: int,
    images: Mapping[Permutation, Permutation],
) -> EmbeddedAction:
    """Faithful action of a group on Delta x G/N from a faithful action of N
    on Delta = {0..degree-1}, given by the images of elements generating N
    and extended by `action_hom`.

    Points are ordered coset-major: index(u, delta) = u*|Delta| + delta.
    When N is central, every element of N moves only the Delta coordinate.
    """
    if group.order > ENUMERATION_GUARD:
        raise GuardExceeded(f"group order {group.order} exceeds the enumeration guard ({ENUMERATION_GUARD})")
    if not is_normal(group, normal):
        raise PreconditionError("subgroup is not normal")
    inner = action_hom(normal, degree, images)

    transversal: list[Permutation] = [identity(group.degree)]
    coset_of: dict[Permutation, int] = {x: 0 for x in inner}
    head = 0
    while head < len(transversal):
        t = transversal[head]
        head += 1
        for s in group.strong_generators:
            e = t * s
            if e not in coset_of:
                transversal.append(e)
                u = len(transversal) - 1
                for x in inner:
                    coset_of[x * e] = u
    if len(coset_of) != group.order:
        raise InternalDefect("coset scan did not cover the group")
    embedded = EmbeddedAction(inner, degree, tuple(transversal), coset_of, group.strong_generators)
    if embedded.image.order != group.order:
        raise InternalDefect("embedded action is not faithful")
    return embedded

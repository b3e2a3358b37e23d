"""Faithful-action builders: coset actions, disjoint unions, a coprime
direct-factor check, block quotients, and the universal embedding of a group into the
wreath-style action on Delta x G/N built from a faithful action of a normal
subgroup N.

Every construction returns an ActionSpace recording where each point came
from, so built actions stay auditable.
"""

from __future__ import annotations

from math import gcd
from typing import Mapping

from .errors import GuardExceeded, InternalDefect, PreconditionError
from .group import (
    ENUMERATION_GUARD,
    PermGroup,
    SubgroupHandle,
    as_subgroup,
    core,
    intersection_elements,
    is_normal,
)
from .perm import Permutation, identity

# Label vocabulary (all nested tuples, hashable):
#   ("raw", i)                      a bare point
#   ("part", k, inner)              point `inner` of the k-th part of a union
#   ("coset", tag, rep)             right coset tag*rep by its representative
#   ("pair", inner, coset_label)    point of a product Delta x K
#   ("block", points)               a block, as its sorted 1-based point tuple
#   ("cell", k, i)                  point i of the k-th fresh cell of a witness


class ActionSpace:
    """A labeled point set; the label order defines the 0-based point order."""

    __slots__ = ("labels", "_index")

    def __init__(self, labels: tuple[object, ...]) -> None:
        self.labels = labels
        self._index = {label: i for i, label in enumerate(labels)}
        if len(self._index) != len(labels):
            raise PreconditionError("duplicate labels in action space")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: object) -> int:
        return self._index[label]

    def describe(self, point: int) -> str:
        return describe_label(self.labels[point])


def raw_space(n: int) -> ActionSpace:
    return ActionSpace(tuple(("raw", i) for i in range(n)))


def describe_label(label: object) -> str:
    kind = label[0]
    if kind == "raw":
        return str(label[1] + 1)
    if kind == "part":
        return f"{label[1] + 1}:{describe_label(label[2])}"
    if kind == "coset":
        return f"{label[1]}{label[2].cycle_string()}"
    if kind == "pair":
        return f"({describe_label(label[1])},{describe_label(label[2])})"
    if kind == "block":
        return "{" + ",".join(str(p + 1) for p in label[1]) + "}"
    if kind == "cell":
        return f"c{label[1] + 1}.{label[2] + 1}"
    return repr(label)


# ---------------------------------------------------------------------------
# coset actions

class CosetAction:
    """Right-multiplication action of a group on the right cosets of a subgroup."""

    __slots__ = ("source", "image", "space", "kernel", "representatives", "point_of_element")

    def __init__(
        self, source: PermGroup, image: PermGroup, space: ActionSpace, kernel: PermGroup,
        representatives: tuple[Permutation, ...], point_of_element: Mapping[Permutation, int],
    ) -> None:
        self.source, self.image, self.space, self.kernel = source, image, space, kernel
        self.representatives, self.point_of_element = representatives, point_of_element

    def embed(self, x: Permutation) -> Permutation:
        """Image of a group element as a permutation of the coset points."""
        return _coset_permutation(x, self.representatives, self.point_of_element)


def _coset_permutation(
    x: Permutation, representatives: tuple[Permutation, ...], point_of: Mapping[Permutation, int]
) -> Permutation:
    return Permutation(tuple(point_of[rep * x] for rep in representatives))


def coset_action(group: PermGroup, subgroup: PermGroup | SubgroupHandle, tag: str = "H") -> CosetAction:
    """Action on right cosets; the kernel equals the core of the subgroup.

    Coset labels use the lexicographically least permutation in each coset as
    its canonical representative.
    """
    handle = as_subgroup(group, subgroup)
    if group.order > ENUMERATION_GUARD:
        raise GuardExceeded("group too large for coset enumeration")
    sub_elements = handle.group.elements()
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
    space = ActionSpace(tuple(("coset", tag, rep) for rep in representatives))
    image = PermGroup(
        len(representatives),
        tuple(_coset_permutation(g, representatives, point_of) for g in group.strong_generators),
    )
    # The kernel fixes the coset H, so it lies in H; both lists are sorted.
    kernel_elements = tuple(
        e for e in sub_elements if all(point_of[rep * e] == i for i, rep in enumerate(representatives))
    )
    kernel = PermGroup(group.degree, kernel_elements, _order=len(kernel_elements))
    expected = core(group, handle)
    if not kernel.same_group(expected):
        raise InternalDefect("coset action kernel disagrees with the subgroup core")
    if group.order != image.order * kernel.order:
        raise InternalDefect("coset action order bookkeeping failed")
    return CosetAction(group, image, space, kernel, representatives, point_of)


# ---------------------------------------------------------------------------
# disjoint unions

class DisjointUnionAction:
    __slots__ = ("group", "space", "embedded", "offsets")

    def __init__(
        self, group: PermGroup, space: ActionSpace, embedded: tuple[PermGroup, ...], offsets: tuple[int, ...]
    ) -> None:
        self.group, self.space, self.embedded, self.offsets = group, space, embedded, offsets

    def embed(self, part: int, g: Permutation) -> Permutation:
        """A permutation of part `part` as an element moving only that part's points."""
        return _shifted(g, self.offsets[part], self.group.degree)


def _shifted(g: Permutation, offset: int, degree: int) -> Permutation:
    images = list(range(degree))
    for i, j in enumerate(g.images):
        images[offset + i] = offset + j
    return Permutation(tuple(images))


def disjoint_union_action(
    parts: list[PermGroup] | tuple[PermGroup, ...],
    spaces: list[ActionSpace] | None = None,
) -> DisjointUnionAction:
    """External direct product acting on the disjoint union of the part sets."""
    if not parts:
        raise PreconditionError("disjoint union needs at least one part")
    offsets = []
    total = 0
    labels: list[object] = []
    for k, part in enumerate(parts):
        offsets.append(total)
        inner = spaces[k].labels if spaces else [("raw", i) for i in range(part.degree)]
        if len(inner) != part.degree:
            raise PreconditionError("part space size disagrees with part degree")
        labels.extend(("part", k, lab) for lab in inner)
        total += part.degree
    space = ActionSpace(tuple(labels))

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
    return DisjointUnionAction(group, space, tuple(embedded), tuple(offsets))


# ---------------------------------------------------------------------------
# coprime direct factors

def coprime_direct_factors(
    group: PermGroup,
    h_part: PermGroup | SubgroupHandle,
    k_part: PermGroup | SubgroupHandle,
) -> tuple[PermGroup, PermGroup]:
    """Validate that the group is the internal direct product H x K of two
    subgroups of coprime orders; returns (H, K)."""
    h_group = as_subgroup(group, h_part).group
    k_group = as_subgroup(group, k_part).group
    if gcd(h_group.order, k_group.order) != 1:
        raise PreconditionError("the factors must have coprime orders")
    if h_group.order * k_group.order != group.order:
        raise PreconditionError("the factor orders do not multiply to the group order")
    if len(intersection_elements(h_group, k_group)) != 1:
        raise PreconditionError("the factors intersect nontrivially")
    for a in h_group.strong_generators:
        for b in k_group.strong_generators:
            if a * b != b * a:
                raise PreconditionError("the factors do not commute elementwise")
    return h_group, k_group


# ---------------------------------------------------------------------------
# block quotients

class QuotientAction:
    """Action of a group on the orbits of a normal subgroup."""

    __slots__ = ("source", "image", "space", "kernel", "block_of", "blocks")

    def __init__(
        self, source: PermGroup, image: PermGroup, space: ActionSpace, kernel: PermGroup,
        block_of: tuple[int, ...], blocks: tuple[tuple[int, ...], ...],
    ) -> None:
        self.source, self.image, self.space, self.kernel = source, image, space, kernel
        self.block_of, self.blocks = block_of, blocks

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


def quotient_action(group: PermGroup, subgroup: PermGroup | SubgroupHandle) -> QuotientAction:
    """Action on the orbit blocks of a normal subgroup, with its exact kernel."""
    handle = as_subgroup(group, subgroup)
    if not is_normal(group, handle):
        raise PreconditionError("subgroup is not normal, blocks would not be preserved")
    blocks = handle.group.orbits()
    block_of_list = [0] * group.degree
    for bi, block in enumerate(blocks):
        for p in block:
            block_of_list[p] = bi
    block_of = tuple(block_of_list)
    space = ActionSpace(tuple(("block", block) for block in blocks))
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
    return QuotientAction(group, image, space, kernel, block_of, blocks)


# ---------------------------------------------------------------------------
# universal embedding on Delta x G/N

class ActionHom:
    """A faithful action of a group on a fresh point set, element by element."""

    __slots__ = ("source", "degree", "mapping", "space")

    def __init__(
        self, source: PermGroup, degree: int, mapping: Mapping[Permutation, Permutation], space: ActionSpace | None = None
    ) -> None:
        self.source, self.degree, self.mapping, self.space = source, degree, mapping, space

    def of(self, x: Permutation) -> Permutation:
        return self.mapping[x]


def action_hom(
    source: PermGroup,
    degree: int,
    mapping: Mapping[Permutation, Permutation],
    space: ActionSpace | None = None,
) -> ActionHom:
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
    if space is not None and space.size != degree:
        raise PreconditionError("action space size disagrees with the degree")
    return ActionHom(source, degree, dict(mapping), space)


class EmbeddingData:
    """Transversal, coset map and cocycle data behind a universal embedding.

    The transversal is found by a breadth-first scan of the coset graph in
    canonical generator order, so the representative of the trivial coset is
    the identity and the whole structure is reproducible.
    """

    def __init__(
        self,
        group: PermGroup,
        normal: PermGroup,
        act: ActionHom,
        transversal: tuple[Permutation, ...],
        coset_of: dict[Permutation, int],
    ) -> None:
        self.group = group
        self.normal = normal
        self.act = act
        self.transversal = transversal
        self.coset_of = coset_of
        self.quotient_order = len(transversal)
        self.inner_degree = act.degree

    def quotient_of(self, x: Permutation) -> int:
        return self.coset_of[x]

    def cocycle(self, x: Permutation, u: int) -> Permutation:
        """t_u * x * t_v^{-1} where v is the coset of t_u * x; lands in N."""
        e = self.transversal[u] * x
        v = self.coset_of[e]
        f = e * self.transversal[v].inverse()
        if f not in self.act.mapping:
            raise InternalDefect("cocycle value escaped the normal subgroup")
        return f

    def embed(self, x: Permutation) -> Permutation:
        """The action of x on Delta x K: (d, u) -> (d^{cocycle(x,u)}, u*psi(x))."""
        d = self.inner_degree
        images = [0] * (d * self.quotient_order)
        for u in range(self.quotient_order):
            e = self.transversal[u] * x
            v = self.coset_of[e]
            f_delta = self.act.mapping[e * self.transversal[v].inverse()]
            base = u * d
            tbase = v * d
            for delta in range(d):
                images[base + delta] = tbase + f_delta.images[delta]
        return Permutation(tuple(images))


class EmbeddedAction:
    __slots__ = ("image", "space", "data")

    def __init__(self, image: PermGroup, space: ActionSpace, data: EmbeddingData) -> None:
        self.image, self.space, self.data = image, space, data


def universal_embedding(
    group: PermGroup,
    normal: PermGroup | SubgroupHandle,
    act: ActionHom,
    tag: str = "N",
) -> EmbeddedAction:
    """Faithful action of a group on Delta x G/N from a faithful N-action.

    Points are ordered coset-major: index(u, delta) = u*|Delta| + delta.
    When N is central, every element of N moves only the Delta coordinate.
    """
    handle = as_subgroup(group, normal)
    n_group = handle.group
    if group.order > ENUMERATION_GUARD:
        raise GuardExceeded("group too large for the embedding construction")
    if not is_normal(group, handle):
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
    data = EmbeddingData(group, n_group, act, tuple(transversal), coset_of)

    inner_labels = act.space.labels if act.space is not None else tuple(("raw", d) for d in range(act.degree))
    labels = []
    for u, rep in enumerate(transversal):
        coset_label = ("coset", tag, rep)
        labels.extend(("pair", inner, coset_label) for inner in inner_labels)
    space = ActionSpace(tuple(labels))

    image = PermGroup(
        act.degree * len(transversal),
        tuple(data.embed(g) for g in group.strong_generators),
    )
    if image.order != group.order:
        raise InternalDefect("embedded action is not faithful")
    return EmbeddedAction(image, space, data)

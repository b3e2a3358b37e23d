"""Orbital partitions and the 2-closure engine.

The orbital partition of G colors every ordered pair of points by its G-orbit.
The 2-closure of G is the full automorphism group of that coloring: every
permutation that maps each color class to itself.  Membership in the closure
is decided definitionally pair by pair at any degree; computing the closure as
a group runs a backtracking search over point images and is guarded by degree.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter

from .errors import GuardExceeded, InternalDefect, PreconditionError
from .group import PermGroup, _Chain
from .perm import Permutation, identity

CLOSURE_DEGREE_GUARD = 32


class OrbitalPartition:
    """Coloring of ordered point pairs by the orbits of a group.

    Color ids are assigned in order of first appearance scanning pairs
    lexicographically, so equal partitions have equal color tables, and each
    class representative is the least pair of its class.
    """

    def __init__(self, degree: int, colors: tuple[int, ...], representatives: tuple[tuple[int, int], ...]) -> None:
        self.degree, self.colors, self.representatives = degree, colors, representatives
        self.rank = len(representatives)


def orbital_partition(group: PermGroup) -> OrbitalPartition:
    """The group's orbital partition, built once and cached on the group.

    The colors depend on the group alone, so the pair search runs over the
    shorter of its two generating sets: a group built from an element list
    carries every element as a generator.
    """
    if group._partition is not None:
        return group._partition
    n = group.degree
    gens = [g.images for g in min(group.strong_generators, group.generators, key=len)]
    colors = [-1] * (n * n)
    representatives = []
    for seed in range(n * n):
        if colors[seed] >= 0:
            continue
        color = len(representatives)
        colors[seed] = color
        representatives.append(divmod(seed, n))
        stack = [seed]
        while stack:
            a, b = divmod(stack.pop(), n)
            for g in gens:
                image = g[a] * n + g[b]
                if colors[image] < 0:
                    colors[image] = color
                    stack.append(image)
    group._partition = OrbitalPartition(n, tuple(colors), tuple(representatives))
    return group._partition


def two_equivalent(a: PermGroup, b: PermGroup) -> bool:
    """True iff both groups induce the same partition of ordered pairs."""
    if a.degree != b.degree:
        raise PreconditionError("degree mismatch")
    return orbital_partition(a).colors == orbital_partition(b).colors


def is_in_two_closure(theta: Permutation, partition: OrbitalPartition) -> bool:
    """Definitional membership: theta preserves every pair color.

    Row theta(a) of the color table, read at the columns theta(0..n-1), must
    equal row a: whole rows are compared, stopping at the first that differs.
    """
    n = partition.degree
    if theta.degree != n:
        raise PreconditionError("degree mismatch")
    if n < 2:
        return True  # the identity is the only permutation
    colors = partition.colors
    read = itemgetter(*theta.images)
    for a, u in enumerate(theta.images):
        if read(colors[u * n:u * n + n]) != colors[a * n:a * n + n]:
            return False
    return True


def _transporters(partition: OrbitalPartition, generators: tuple[Permutation, ...]) -> tuple[list[int], list[Permutation]]:
    """Per flat pair, an index into a list of distinct transporter elements,
    each mapping its class representative to the pair.

    A breadth-first search from each class representative, first in first
    out and over the generators in order, reaches every pair of the class
    along a shortest generator word; a pair's transporter is its parent's
    times the generator that reached it.  Products are memoized on (parent
    element, generator) and interned by image tuple, so the table costs at
    most |distinct transporters| x |generators| products.
    """
    n = partition.degree
    gens = [(gi, g, g.images) for gi, g in enumerate(generators)]
    elements = [identity(n)]
    interned = {elements[0].images: 0}
    products = [[-1] * len(gens)]  # per element, the index of its product with each generator
    index = [-1] * (n * n)
    for rep in partition.representatives:
        seed = rep[0] * n + rep[1]
        index[seed] = 0
        queue = deque([seed])
        while queue:
            flat = queue.popleft()
            a, b = divmod(flat, n)
            current = index[flat]
            for gi, g, images in gens:
                image = images[a] * n + images[b]
                if index[image] >= 0:
                    continue
                found = products[current][gi]
                if found < 0:
                    h = elements[current] * g
                    found = products[current][gi] = interned.setdefault(h.images, len(elements))
                    if found == len(elements):
                        elements.append(h)
                        products.append([-1] * len(gens))
                index[image] = found
                queue.append(image)
    return index, elements


class MembershipEvidence:
    """Group elements witnessing closure membership of one permutation, in the
    transporter table's layout.

    `elements` lists distinct group elements, at most |G| of them.
    `assignments` has one entry per ordered pair, at flat index a*n + b: the
    position in `elements` of the element that moves (a, b) as the
    permutation does.
    """

    __slots__ = ("elements", "assignments")

    def __init__(self, elements: list[Permutation], assignments: list[int]) -> None:
        self.elements, self.assignments = elements, assignments


def membership_evidence(theta: Permutation, group: PermGroup) -> MembershipEvidence:
    """For every ordered pair, an element of the group moving it exactly as
    theta does.

    The element for (a,b) is transporter(a,b)^-1 * transporter(theta(a),theta(b)),
    with transporters walked over the group's strong generators.  It is
    computed once per pair of transporter-table indices and interned by
    image tuple, so the n² pairs share at most |G| distinct elements.
    """
    n = group.degree
    if theta.degree != n:
        raise PreconditionError("degree mismatch")
    partition = orbital_partition(group)
    colors = partition.colors
    index, transporters = _transporters(partition, group.strong_generators)
    img = theta.images
    inverses: dict[int, Permutation] = {}
    by_indices: dict[tuple[int, int], int] = {}
    interned: dict[tuple[int, ...], int] = {}
    elements: list[Permutation] = []
    assignments = [0] * (n * n)
    for source in range(n * n):
        a, b = divmod(source, n)
        target = img[a] * n + img[b]
        if colors[source] != colors[target]:
            raise PreconditionError("pairs lie in different color classes")
        key = (index[source], index[target])
        position = by_indices.get(key)
        if position is None:
            inverse = inverses.get(key[0])
            if inverse is None:
                inverse = inverses[key[0]] = transporters[key[0]].inverse()
            g = inverse * transporters[key[1]]
            position = by_indices[key] = interned.setdefault(g.images, len(elements))
            if position == len(elements):
                elements.append(g)
        assignments[source] = position
    return MembershipEvidence(elements, assignments)


def _extend_from(
    colors: tuple[int, ...], n: int, images: list[int], used: list[bool], pos: int, candidates: range | tuple[int, ...],
) -> bool:
    """Depth-first search for a coloring automorphism that keeps images[:pos]
    and sends pos to one of `candidates`; True once images of pos..n-1 are
    found, else `images` and `used` are left as they were.

    A candidate must be unused, have pos's diagonal color, and send every
    already-decided pair (j, pos) to a pair of the same color.  Candidates are
    tried in increasing order, so the first extension found is the
    lexicographically least.
    """
    if pos == n:
        return True
    diagonal = colors[pos * n + pos]
    for v in candidates:
        if used[v] or colors[v * n + v] != diagonal:
            continue
        for j in range(pos):
            if colors[j * n + pos] != colors[images[j] * n + v]:
                break
        else:
            images[pos] = v
            used[v] = True
            if _extend_from(colors, n, images, used, pos + 1, range(n)):
                return True
            used[v] = False
    images[pos] = pos
    return False


def _closure_generators(partition: OrbitalPartition, chain: _Chain) -> list[Permutation]:
    """Generators that extend a group's chain to the full automorphism group
    of the pair coloring; each one found is added to `chain`.

    Works down the fixed base n-1, ..., 0: at each level the pointwise
    stabilizer below is already complete, so one successful search per new
    orbit point, fixing 0..level-1 and sending level to it, yields a
    generating set level by level.  A basic orbit of a complete chain depends
    only on the group, so the generators found do not depend on how the chain
    was built.

    The coloring must be an orbital partition.  Then the points of one
    diagonal color form one orbit, so they share their row and column color
    multisets and the diagonal color is the only class test needed; and
    color(b, a) is a function of color(a, b), since orbitals come in paired
    classes, so one orientation of each decided pair is enough.
    """
    n = partition.degree
    colors = partition.colors
    found: list[Permutation] = []
    for level in range(n - 2, -1, -1):
        # A failed search restores both lists, so only a success renews them.
        images, used = list(range(n)), [p < level for p in range(n)]
        for target in range(level + 1, n):
            if target in chain.levels[level].orbit:
                continue
            if _extend_from(colors, n, images, used, level, (target,)):
                theta = Permutation(tuple(images))
                chain.add(theta)
                found.append(theta)
                images, used = list(range(n)), [p < level for p in range(n)]
    return found


def two_closure(group: PermGroup) -> PermGroup:
    """The largest group with the same orbits on ordered pairs, as a PermGroup."""
    if group.degree > CLOSURE_DEGREE_GUARD:
        raise GuardExceeded(
            f"degree {group.degree} exceeds the closure search guard "
            f"({CLOSURE_DEGREE_GUARD}); definitional membership is still available"
        )
    partition = orbital_partition(group)
    # When the group's chain is the state after adding its generators,
    # adding the found generators to a copy builds exactly the chain of
    # PermGroup(degree, group.generators + found).
    chain = group._chain.copy()
    found = _closure_generators(partition, chain)
    closure = PermGroup._from_chain(group.generators + tuple(found), chain)
    for g in group.generators:
        if not closure.contains(g):
            raise InternalDefect("closure lost a generator of the input group")
    return closure


def _missing_generator(group: PermGroup, closure: PermGroup) -> Permutation | None:
    """The first canonical strong generator of the closure outside the group,
    or None when the closure equals the group."""
    if closure.order == group.order:
        return None
    for g in closure.strong_generators:
        if not group.contains(g):
            return g
    raise InternalDefect("closure is larger but no missing strong generator was found")

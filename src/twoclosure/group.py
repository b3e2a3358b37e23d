"""Finite permutation groups backed by a deterministic stabilizer chain.

The chain uses the fixed base 0, 1, ..., degree-1 (base points in increasing
point order), so identical generator input always yields an identical chain,
membership is decided by sifting alone, and the pointwise stabilizer of
0..l-1 can be read off level l directly.

A level whose |orbit| * degree exceeds LEVEL_BUDGET ints keeps its orbit as a
Schreier vector (`_VectorOrbit`), chosen before any tuple is stored; the
chain is the same either way.
"""

from __future__ import annotations

from collections import deque
from itertools import groupby
from math import inf, isqrt, lcm

from .errors import GuardExceeded, InternalDefect, PreconditionError
from .perm import Permutation, _trusted, identity

ENUMERATION_GUARD = 20000
# Largest order whose element index keeps a full right-regular table (N² ints).
INDEX_GUARD = 256
# Most ints a level keeps as explicit inverse tuples (|orbit| * degree).
LEVEL_BUDGET = 1 << 16
# Cache value of a property not yet computed, where None is a computed answer.
_UNKNOWN = object()


class _Level:
    """One level of the chain: its strong generators, the image tuple of each
    one's inverse, and, per orbit point p, the image tuple of the inverse of
    p's transversal element u_p.  The orbit is a plain dict when its tuples
    fit LEVEL_BUDGET, else a `_VectorOrbit` with the same keys and lookups."""

    __slots__ = ("gens", "inverses", "orbit")

    def __init__(self, base: int, ident: tuple[int, ...]) -> None:
        # Lists are made on the first deposit; most levels never get one.
        self.gens: list[Permutation] | tuple[()] = ()
        self.inverses: list[tuple[int, ...]] | tuple[()] = ()
        self.orbit: dict[int, tuple[int, ...]] = {base: ident}


class _VectorOrbit(dict):
    """A level's orbit kept as a Schreier vector.

    Keys are the orbit points in BFS order, as in a plain orbit, so
    iteration, `len` and `in` are unchanged.  A value is u_p^-1's image tuple
    where one is stored and None elsewhere.  `[]` and `get` walk the BFS tree
    from p to its nearest stored ancestor and apply each run of one
    generator label as a power.  Since u_q = u_p * s along the same tree,
    the tuple equals the one the explicit BFS stores.

    Stored are the base point, each point requested so far, and checkpoints:
    the candidates, points at every k-th BFS depth (k = ceil(|orbit| *
    degree / LEVEL_BUDGET)), except a candidate whose path back to its
    nearest stored ancestor is one run of one label with no edge of another
    label leaving it.  A walk crosses at most k + 1 runs, and a level of one
    label, such as one long cycle, stores its base alone.  Once the walks
    outnumber the candidates, every point is stored, each from its parent in
    BFS order, as the explicit BFS does; on a level of one label every walk
    is a single power, so it never switches.
    """

    __slots__ = ("tree", "steps", "walks_left")

    def __init__(self, base: int, points: tuple[int, ...], tree: dict[int, tuple[int, int]], inverses: list[tuple[int, ...]]) -> None:
        super().__init__({base: points})
        self.update(dict.fromkeys(tree))
        self.tree, self.steps = tree, inverses
        depth = {base: 0}
        for q, (p, _) in tree.items():
            depth[q] = depth[p] + 1
        k = -(-len(self) * len(points) // LEVEL_BUDGET)
        candidates = [q for q in tree if depth[q] % k == 0]
        # Points with a tree edge of another label than the one that found them.
        forks = {p for p, i in tree.values() if p != base and tree[p][1] != i}
        for q in candidates:  # BFS order: stored ancestors are placed first
            p, i = tree[q]
            while dict.__getitem__(self, p) is None and tree[p][1] == i:
                p = tree[p][0]
            if q in forks or dict.__getitem__(self, p) is None:  # else one power reaches q
                self[q] = self._walk(q)
        self.walks_left = len(candidates) if len({i for _, i in tree.values()}) > 1 else inf

    def _walk(self, q: int) -> tuple[int, ...]:
        """u_q^-1 = s_m^-1 ... s_1^-1 * u_a^-1 for the tree path a, s_1, ..., s_m
        from the nearest stored ancestor a down to q."""
        labels = []
        inv = None
        while inv is None:
            q, i = self.tree[q]
            labels.append(i)
            inv = dict.__getitem__(self, q)
        for i, run in groupby(reversed(labels)):
            inv = tuple(map(inv.__getitem__, _power(self.steps[i], sum(1 for _ in run))))
        return inv

    def __getitem__(self, q: int) -> tuple[int, ...]:
        inv = dict.__getitem__(self, q)
        if inv is None:
            inv = self[q] = self._walk(q)
            self.walks_left -= 1
            if self.walks_left < 0:  # in steady use: store every point, parents first
                for x, (p, i) in self.tree.items():
                    if dict.__getitem__(self, x) is None:
                        self[x] = tuple(map(dict.__getitem__(self, p).__getitem__, self.steps[i]))
        return inv

    def get(self, q: int, default: tuple[int, ...] | None = None) -> tuple[int, ...] | None:
        return self[q] if q in self else default


def _orbit_tree(base: int, gens: list[tuple[int, ...]]) -> dict[int, tuple[int, int]]:
    """The BFS tree of base's orbit, found over int images alone: each point
    but the base maps to (p, index of s) for the edge that found it first,
    in BFS order."""
    tree: dict[int, tuple[int, int]] = {}
    queue = deque([base])
    while queue:
        p = queue.popleft()
        for i, s in enumerate(gens):
            q = s[p]
            if q not in tree and q != base:
                tree[q] = (p, i)
                queue.append(q)
    return tree


def _power(images: tuple[int, ...], r: int) -> tuple[int, ...]:
    """The r-th power (r >= 1) of an image tuple, by repeated squaring."""
    out = None
    while True:
        if r & 1:
            out = images if out is None else tuple(map(out.__getitem__, images))
        r >>= 1
        if not r:
            return out
        images = tuple(map(images.__getitem__, images))


def _inverse(images: tuple[int, ...], points: tuple[int, ...]) -> tuple[int, ...]:
    """Inverse of an image tuple, with its ints taken from `points` (the
    identity's), so no new int objects are made for points above 256."""
    inv = list(points)
    for i, j in zip(points, images):
        inv[j] = i
    return tuple(inv)


class _Chain:
    """Mutable stabilizer chain; PermGroup freezes one after construction.

    Sifting and Schreier generators work on raw image tuples; only deposited
    residues become Permutations.

    Given the order of its group as `target`, a chain stops sifting Schreier
    generators once it reaches that order.  Each stored orbit is an orbit of
    a subgroup of its level's group, so the orbit sizes multiply to at most
    the order generated so far: reaching |G| means every level is complete,
    so every Schreier generator left would sift to the identity.
    """

    def __init__(self, degree: int, target: int | None = None) -> None:
        self.degree = degree
        self.target = target
        self.ident = identity(degree)
        self.levels = [_Level(b, self.ident.images) for b in range(degree)]

    def copy(self) -> _Chain:
        """An independent chain in the same state, without a target order.
        Each level's lists are copied; its orbit dict is shared, which is safe
        because `_rebuild_orbit` replaces orbit dicts, and the only writes
        into one, a `_VectorOrbit`'s stored tuples, are the values of its
        own BFS tree that every holder would compute."""
        out = object.__new__(_Chain)
        out.degree = self.degree
        out.target = None
        out.ident = self.ident
        out.levels = []
        for lv in self.levels:
            level = object.__new__(_Level)
            level.gens = lv.gens[:]
            level.inverses = lv.inverses[:]
            level.orbit = lv.orbit
            out.levels.append(level)
        return out

    def strong_generators(self) -> list[Permutation]:
        return [g for lv in self.levels for g in lv.gens]

    def _sift(self, h: tuple[int, ...], start: int) -> tuple[tuple[int, ...], int]:
        """Sift image tuple h through levels >= start: h * u_p^-1 at each level
        that moves its base point to p.  Returns (residue, stop level)."""
        levels = self.levels
        for l in range(start, self.degree):
            p = h[l]
            if p == l:
                continue
            inv = levels[l].orbit.get(p)
            if inv is None:
                return h, l
            h = tuple(map(inv.__getitem__, h))
        return h, self.degree

    def strip(self, g: Permutation) -> tuple[Permutation, int]:
        """Sift g through the whole chain; returns (residue, stop level)."""
        residue, level = self._sift(g.images, 0)
        return _trusted(residue), level

    def contains(self, g: Permutation) -> bool:
        return self._sift(g.images, 0)[0] == self.ident.images

    def order(self) -> int:
        n = 1
        for lv in self.levels:
            n *= len(lv.orbit)
        return n

    def add(self, g: Permutation) -> bool:
        """Add one generator and restore chain completeness. True if new."""
        residue, level = self._sift(g.images, 0)
        if residue == self.ident.images:
            return False
        self._deposit(level, residue)
        self._sweep(level)
        return True

    def _deposit(self, level: int, residue: tuple[int, ...]) -> None:
        lv = self.levels[level]
        if not lv.gens:
            lv.gens, lv.inverses = [], []
        lv.gens.append(_trusted(residue))
        lv.inverses.append(_inverse(residue, self.ident.images))

    def _rebuild_orbit(
        self, level: int, gens: list[tuple[int, ...]], inverses: list[tuple[int, ...]]
    ) -> tuple[dict[int, tuple[int, ...]], dict[int, tuple[int, int]]]:
        """Breadth-first orbit of the level's base point.

        u_q = u_p * s for q = p^s, stored as u_q^-1 = s^-1 * u_p^-1, whose
        images are u_p^-1 read along s^-1.  Also returns the BFS tree (a
        Schreier vector): each point q but the base maps to (p, index of s)
        for the edge that found it first.  The tree is found over ints first,
        so an orbit whose tuples would outgrow LEVEL_BUDGET ints becomes a
        `_VectorOrbit` before any is stored.
        """
        points = self.ident.images
        tree = _orbit_tree(level, gens)
        if len(tree) >= LEVEL_BUDGET // len(points):
            orbit = _VectorOrbit(level, points, tree, inverses)
        else:
            orbit = {level: points}
            for q, (p, i) in tree.items():  # BFS order: parents first
                orbit[q] = tuple(map(orbit[p].__getitem__, inverses[i]))
        self.levels[level].orbit = orbit
        return orbit, tree

    def _check_level(self, level: int) -> int | None:
        """Rebuild the level orbit, sift its Schreier generators.

        Called only when every deeper level is complete, so a Schreier
        generator that lies in the next stabilizer by construction cannot
        fail and is not sifted.  On a BFS-tree edge it is the identity and is
        not even formed, and u_beta is inverted only for points with an edge
        off the tree.  Returns the level where a missing residue was
        deposited, or None if the level verified clean or the chain has
        reached its target order.
        """
        own = len(self.levels[level].gens)
        if not own:
            # Deeper generators fix the base point: the orbit stays {level}.
            return None
        upper = self.levels[level:]
        gens = [s.images for lv in upper for s in lv.gens]
        orbit, tree = self._rebuild_orbit(level, gens, [t for lv in upper for t in lv.inverses])
        if self.target is not None and self.order() == self.target:
            return None
        points = self.ident.images
        for beta in sorted(orbit):
            u_beta = None
            # At the base point (first in sorted order) a deeper generator's
            # Schreier generator is itself, already in the next stabilizer.
            for i, s in enumerate(gens if beta != level else gens[:own]):
                target = s[beta]
                if tree.get(target) == (beta, i):
                    continue  # u_beta * s is u_target itself
                if u_beta is None:
                    u_beta = _inverse(orbit[beta], points)
                # u_beta * s * u_target^-1.
                inv_target = orbit[target]
                schreier = tuple(map(inv_target.__getitem__, map(s.__getitem__, u_beta)))
                if schreier == points:
                    continue
                residue, stop = self._sift(schreier, level + 1)
                if residue != points:
                    self._deposit(stop, residue)
                    return stop
        return None

    def _sweep(self, start: int) -> None:
        # Verify levels from `start` up to the root, re-descending whenever a
        # new strong generator lands deeper in the chain.
        i = start
        while i >= 0:
            deposited = self._check_level(i)
            i = deposited if deposited is not None else i - 1

    def elements(self) -> list[tuple[int, ...]]:
        """Image tuples of all elements: one transversal element per level,
        deepest level first.  Each transversal element is inverted back from
        its stored inverse only while its products are formed."""
        points = self.ident.images
        elems = [points]
        for level in range(self.degree - 1, -1, -1):
            orbit = self.levels[level].orbit
            if len(orbit) == 1:
                continue
            out = []
            for p in sorted(orbit):
                u = _inverse(orbit[p], points)
                out.extend([tuple(map(u.__getitem__, h)) for h in elems])
            elems = out
        return elems


def mask_indices(mask: int) -> tuple[int, ...]:
    """The set bits of a subset mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class _ElementIndex:
    """A small group's elements as indices 0..N-1 in canonical order.

    Index 0 is the identity.  `cols[g][x]` is the index of x*g, so the columns
    form the full right-regular table.  Subsets of the group are int masks with
    bit i standing for element i; since indices follow the canonical order,
    increasing indices list a subset's elements in sorted order.
    """

    __slots__ = ("elements", "position", "cols", "_conjugations")

    def __init__(self, elements: tuple[Permutation, ...], strong_generators: tuple[Permutation, ...]) -> None:
        self.elements = elements
        self.position = {g.images: i for i, g in enumerate(elements)}
        n = len(elements)
        gen_cols = [
            [self.position[tuple(s.images[p] for p in g.images)] for g in elements]
            for s in strong_generators
        ]
        # col(g*s) is col(g) followed by col(s): a BFS from the identity fills
        # every column with int lookups alone.
        cols: list[list[int] | None] = [None] * n
        cols[0] = list(range(n))
        queue = deque([0])
        while queue:
            g = queue.popleft()
            for col_s in gen_cols:
                h = col_s[g]
                if cols[h] is None:
                    cols[h] = [col_s[x] for x in cols[g]]
                    queue.append(h)
        self.cols: list[list[int]] = cols
        self._conjugations: list[list[int]] | None = None

    def elements_of(self, mask: int) -> tuple[Permutation, ...]:
        return tuple(self.elements[i] for i in mask_indices(mask))

    def extend(self, mask: int, members: tuple[int, ...], gens: tuple[int, ...], x: int) -> int:
        """Mask of the subgroup generated by a subgroup S and the element x.

        S is given by its mask, its element indices and its generators.  The
        join is a union of right cosets S*t, so generators are applied to
        coset representatives only: when t*g is new, its whole coset
        S*(t*g) joins the mask and t*g becomes a representative.  Starting
        from S itself (representative: the identity), each coset is added
        once.
        """
        cols = self.cols
        gen_cols = [cols[g] for g in gens]
        gen_cols.append(cols[x])
        reps = [0]
        for t in reps:
            for col in gen_cols:
                z = col[t]
                if not mask >> z & 1:
                    col_z = cols[z]
                    for y in members:
                        mask |= 1 << col_z[y]
                    reps.append(z)
        return mask

    def conjugations(self) -> list[list[int]]:
        """For each element g, the map on indices h -> index(g^-1 * h * g);
        built on first use."""
        if self._conjugations is None:
            cols = self.cols
            out = []
            for col_g in cols:
                g_inverse = col_g.index(0)
                out.append([col_g[col_h[g_inverse]] for col_h in cols])
            self._conjugations = out
        return self._conjugations

    def conjugates(self, mask: int) -> list[int]:
        """The masks g^-1 * S * g of a subset S, one per element g in index order."""
        members = mask_indices(mask)
        return [sum(1 << conj[i] for i in members) for conj in self.conjugations()]


class PermGroup:
    """Immutable permutation group of fixed degree given by generators."""

    def __init__(
        self, degree: int, generators: tuple[Permutation, ...] | list[Permutation], *, _order: int | None = None
    ) -> None:
        # `_order`: the order, where a theorem or the construction fixes it.
        # The chain is the same; a group of another order is a defect.
        if degree < 0:
            raise PreconditionError("degree must be non-negative")
        gens = tuple(generators)
        for g in gens:
            if g.degree != degree:
                raise PreconditionError("degree mismatch among generators")
        chain = _Chain(degree, _order)
        for g in gens:
            chain.add(g)
        if _order is not None and chain.order() != _order:
            raise InternalDefect(f"generated group has order {chain.order()}, not the known order {_order}")
        self._init(gens, chain)

    @classmethod
    def _from_chain(cls, generators: tuple[Permutation, ...], chain: _Chain) -> PermGroup:
        """Wrap a complete chain, which must be the one that adding
        `generators` in order to an empty chain builds."""
        group = cls.__new__(cls)
        group._init(generators, chain)
        return group

    def _init(self, generators: tuple[Permutation, ...], chain: _Chain) -> None:
        self.degree = chain.degree
        self.generators = generators
        self._chain = chain
        self.order: int = chain.order()
        self._strong: tuple[Permutation, ...] | None = None
        self._elements: tuple[Permutation, ...] | None = None
        self._center: PermGroup | None = None
        self._is_cyclic: bool | None = None
        self._sylows: dict[int, PermGroup] | None | object = _UNKNOWN
        self._index: _ElementIndex | None = None
        self._partition = None  # orbital.OrbitalPartition, cached by orbital_partition

    @property
    def strong_generators(self) -> tuple[Permutation, ...]:
        """Strong generating set, sorted lexicographically by image sequence."""
        if self._strong is None:
            self._strong = tuple(sorted(self._chain.strong_generators()))
        return self._strong

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            raise PreconditionError("degree mismatch")
        return self._chain.contains(g)

    def sift(self, g: Permutation) -> Permutation:
        if g.degree != self.degree:
            raise PreconditionError("degree mismatch")
        return self._chain.strip(g)[0]

    def elements(self) -> tuple[Permutation, ...]:
        """All elements in canonical (lexicographic) order; guarded."""
        if self._elements is None:
            if self.order > ENUMERATION_GUARD:
                raise GuardExceeded(f"group order {self.order} exceeds the enumeration guard")
            elems = self._chain.elements()
            if len(elems) != self.order:
                raise InternalDefect("element enumeration disagrees with chain order")
            elems.sort()
            self._elements = tuple(map(_trusted, elems))
        return self._elements

    def _element_index(self) -> _ElementIndex:
        """The group's elements as indices 0..N-1 in canonical order; guarded."""
        if self._index is None:
            if self.order > INDEX_GUARD:
                raise GuardExceeded(f"group order {self.order} exceeds the element index guard ({INDEX_GUARD})")
            self._index = _ElementIndex(self.elements(), self.strong_generators)
        return self._index

    def is_abelian(self) -> bool:
        sgens = self.strong_generators
        return all(a * b == b * a for i, a in enumerate(sgens) for b in sgens[i + 1:])

    def orbit(self, point: int) -> tuple[int, ...]:
        if not 0 <= point < self.degree:
            raise PreconditionError("point out of range")
        return tuple(sorted([point, *_orbit_tree(point, [s.images for s in self.strong_generators])]))

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        seen: set[int] = set()
        out = []
        for p in range(self.degree):
            if p not in seen:
                orb = self.orbit(p)
                seen.update(orb)
                out.append(orb)
        return tuple(out)

    def point_stabilizer(self, point: int) -> PermGroup:
        """Stabilizer of a point, via Schreier generators of its orbit."""
        if not 0 <= point < self.degree:
            raise PreconditionError("point out of range")
        sgens = self.strong_generators
        transversal = {point: self._chain.ident}
        for q, (p, i) in _orbit_tree(point, [s.images for s in sgens]).items():  # BFS order: parents first
            transversal[q] = transversal[p] * sgens[i]
        gens = []
        seen = set()
        for p in sorted(transversal):
            up = transversal[p]
            for s in sgens:
                sg = up * s * transversal[s.images[p]].inverse()
                if not sg.is_identity() and sg not in seen:
                    seen.add(sg)
                    gens.append(sg)
        return PermGroup(self.degree, gens, _order=self.order // len(transversal))

    def conjugated_by(self, x: Permutation) -> PermGroup:
        if x.degree != self.degree:
            raise PreconditionError("degree mismatch")
        return PermGroup(self.degree, [g.conjugated_by(x) for g in self.generators], _order=self.order)

    def is_subgroup_of(self, other: PermGroup) -> bool:
        if other.degree != self.degree:
            raise PreconditionError("degree mismatch")
        return all(other.contains(g) for g in self.strong_generators)

    def same_group(self, other: PermGroup) -> bool:
        return (
            self.degree == other.degree
            and self.order == other.order
            and self.is_subgroup_of(other)
        )

    def __repr__(self) -> str:
        gens = ",".join(g.cycle_string() for g in self.generators[:4])
        more = ",..." if len(self.generators) > 4 else ""
        return f"PermGroup(degree={self.degree}, order={self.order}, <{gens}{more}>)"


class SubgroupHandle:
    """One entry of a subgroup lattice: the masks of the subgroup and of its
    core over the parent's element index.  `group` is built from the mask
    on first access."""

    __slots__ = ("parent", "_group", "mask", "core_mask")

    def __init__(self, parent: PermGroup, mask: int, core_mask: int) -> None:
        self.parent, self._group, self.mask, self.core_mask = parent, None, mask, core_mask

    @property
    def group(self) -> PermGroup:
        if self._group is None:
            mask = self.mask
            elements = self.parent._element_index().elements_of(mask)
            self._group = PermGroup(self.parent.degree, elements, _order=mask.bit_count())
        return self._group

    @property
    def normal(self) -> bool:
        """Normality in the parent: the core is the whole subgroup."""
        return self.core_mask == self.mask


def as_subgroup(parent: PermGroup, subgroup: PermGroup) -> PermGroup:
    """Validate that every generator of the subgroup lies in the parent, and
    return the subgroup."""
    if subgroup.degree != parent.degree:
        raise PreconditionError("degree mismatch between subgroup and parent")
    if not subgroup.is_subgroup_of(parent):
        raise PreconditionError("not a subgroup: a generator fails membership in the parent")
    return subgroup


def center(group: PermGroup) -> PermGroup:
    """The center; an abelian group is its own center, with no element listed."""
    if group._center is None and group.is_abelian():
        group._center = group
    if group._center is None:
        sgens = group.strong_generators
        zs = tuple(g for g in group.elements() if all(g * s == s * g for s in sgens))
        group._center = PermGroup(group.degree, zs, _order=len(zs))
    return group._center


def centralizer(group: PermGroup, subgroup: PermGroup) -> PermGroup:
    hgens = as_subgroup(group, subgroup).strong_generators
    cs = tuple(g for g in group.elements() if all(g * s == s * g for s in hgens))
    return PermGroup(group.degree, cs, _order=len(cs))


def core(group: PermGroup, subgroup: PermGroup) -> PermGroup:
    """Largest normal subgroup of `group` inside `subgroup`.

    Fixpoint of "closed under conjugation by the generators" starting from the
    subgroup's element set.  A finite set that conjugation by s maps into
    itself is mapped onto itself, so the inverses need no test.
    """
    as_subgroup(group, subgroup)
    group.elements()  # refuses a group above the enumeration guard
    keep = set(subgroup.elements())
    while True:
        drop = {h for h in keep if any(h.conjugated_by(s) not in keep for s in group.strong_generators)}
        if not drop:
            break
        keep -= drop
    return PermGroup(group.degree, sorted(keep), _order=len(keep))


def is_normal(group: PermGroup, subgroup: PermGroup) -> bool:
    as_subgroup(group, subgroup)
    return all(
        subgroup.contains(h.conjugated_by(s))
        for s in group.strong_generators
        for h in subgroup.strong_generators
    )


def prime_factorization(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d <= isqrt(n):
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factorization(n) == {n: 1}


def sylow_decomposition(group: PermGroup) -> dict[int, PermGroup] | None:
    """The Sylow subgroups of a nilpotent group, one per prime of its order,
    or None when the group is not nilpotent.

    A group of prime-power order is nilpotent and its own Sylow subgroup.
    Otherwise H_p is generated by the p-parts of the strong generators: the
    p-part g^(o/p^k) of an element of order o generates the p-part of its
    cyclic subgroup.  The group is nilpotent exactly when p-parts of
    different primes commute and each |H_p| is the full p-power of |G|; the
    H_p are then its Sylow subgroups.  No element is listed.
    """
    if group._sylows is _UNKNOWN:
        factors = prime_factorization(group.order)
        primes = sorted(factors)
        if len(primes) <= 1:
            sylows = {p: group for p in primes}
        else:
            parts: dict[int, list[Permutation]] = {p: [] for p in primes}
            for g in group.strong_generators:
                o = g.order()
                for p, k in prime_factorization(o).items():
                    parts[p].append(g ** (o // p**k))
            sylows = None
            if all(
                a * b == b * a
                for i, p in enumerate(primes)
                for q in primes[i + 1:]
                for a in parts[p]
                for b in parts[q]
            ):
                candidates = {p: PermGroup(group.degree, parts[p]) for p in primes}
                if all(h.order == p ** factors[p] for p, h in candidates.items()):
                    sylows = candidates
        group._sylows = sylows
    return group._sylows


def is_nilpotent(group: PermGroup) -> bool:
    """Nilpotency decided from the generators alone (see `sylow_decomposition`)."""
    return sylow_decomposition(group) is not None


def is_cyclic(group: PermGroup) -> bool:
    """An abelian group is cyclic iff its exponent, the lcm of its
    generators' orders, is its order."""
    if group._is_cyclic is None:
        group._is_cyclic = group.is_abelian() and lcm(*(g.order() for g in group.strong_generators)) == group.order
    return group._is_cyclic


def intersection_elements(a: PermGroup, b: PermGroup) -> tuple[Permutation, ...]:
    """Element set of the intersection of two groups on the same points."""
    if a.degree != b.degree:
        raise PreconditionError("degree mismatch")
    small, large = (a, b) if a.order <= b.order else (b, a)
    return tuple(g for g in small.elements() if large.contains(g))

"""Independent brute-force oracles used to pin expected values, a block
reference for side-by-side constructions, the representation sampler's
earlier deduplication by simultaneous conjugacy, and a probe of the modules
a fresh interpreter loads.

Every oracle works by element enumeration, or by a plain search over given
generators, never through the stabilizer chain or the closure search it
checks.  The sampler reference takes only the subgroup list from the
lattice, whose completeness the catalog tests check by brute force.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from collections import deque
from functools import reduce
from operator import and_
from pathlib import Path

import twoclosure
from twoclosure.group import PermGroup
from twoclosure.perm import Permutation, identity


def shifted(g: Permutation, offset: int, degree: int) -> Permutation:
    """g moved onto points offset .. offset + g.degree - 1 of a larger
    degree, every other point fixed: the reference for `perm.direct_sum`."""
    images = list(range(degree))
    for i, j in enumerate(g.images):
        images[offset + i] = offset + j
    return Permutation(tuple(images))


def on_block(part: PermGroup, offset: int, degree: int) -> PermGroup:
    """`part` moved by `shifted` onto its block of a disjoint union of
    `degree` points, with its known order."""
    return PermGroup(degree, [shifted(g, offset, degree) for g in part.strong_generators], _order=part.order)


def mulclose(degree: int, gens) -> set[Permutation]:
    """Closure of a generating set under products, by plain BFS."""
    gens = [g for g in gens if not g.is_identity()]
    closed = {identity(degree)}
    frontier = list(closed)
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in closed:
                    closed.add(y)
                    fresh.append(y)
        frontier = fresh
    return closed


def brute_coset_numbering(group: PermGroup, subgroup: PermGroup) -> tuple[list[Permutation], dict[Permutation, int]]:
    """Each right coset He as a set, represented by its least element, with
    points numbered by the sorted representatives: the reference for
    `actions.coset_action`.  Returns (representatives, point of each element)."""
    sub = mulclose(group.degree, subgroup.generators)
    cosets = {frozenset(h * e for h in sub) for e in mulclose(group.degree, group.generators)}
    representatives = sorted(min(coset) for coset in cosets)
    point = {rep: i for i, rep in enumerate(representatives)}
    return representatives, {e: point[min(coset)] for coset in cosets for e in coset}


def conjugate_masks(group: PermGroup, mask: int) -> list[int]:
    """The masks x^-1 * S * x of a subset S of the group, one per element x in
    `group.elements()` order, with bit i standing for the i-th element: the
    reference for the lattice's class orbits and core masks."""
    elements = group.elements()
    position = {g: i for i, g in enumerate(elements)}
    members = [g for i, g in enumerate(elements) if mask >> i & 1]
    return [sum(1 << position[h.conjugated_by(x)] for h in members) for x in elements]


def simultaneous_conjugacy_sample(group: PermGroup, max_degree: int) -> list[tuple[int, ...]]:
    """The subgroup masks of each entry `catalog.faithful_representations`
    kept when it deduplicated subgroup sets by simultaneous conjugacy: a
    set is dropped when one element conjugates an earlier set onto it.  The
    filters are the sampler's, with cores taken as the AND of all conjugates;
    the order is the order of discovery, before the sampler's sort."""
    from twoclosure.catalog import subgroup_lattice

    masks = [handle.mask for handle in subgroup_lattice(group)]
    conjugates = {mask: conjugate_masks(group, mask) for mask in masks}
    cores = {mask: reduce(and_, conjugates[mask]) for mask in masks}

    def least_simultaneous_conjugate(subgroups: tuple[int, ...]) -> tuple[int, ...]:
        return min(tuple(sorted(same_x)) for same_x in zip(*(conjugates[m] for m in subgroups)))

    kept: list[tuple[int, ...]] = []
    seen = set()
    for mask in masks:
        if cores[mask] != 1 or group.order // mask.bit_count() > max_degree:
            continue
        canon = least_simultaneous_conjugate((mask,))
        if canon not in seen:
            seen.add(canon)
            kept.append((mask,))
    for i, m1 in enumerate(masks):
        index1 = group.order // m1.bit_count()
        for m2 in masks[i:]:
            index2 = group.order // m2.bit_count()
            if index1 + index2 > max_degree or index1 == index2 == 1 or cores[m1] & cores[m2] != 1:
                continue
            canon = least_simultaneous_conjugate((m1, m2))
            if canon not in seen:
                seen.add(canon)
                kept.append((m1, m2))
    return kept


def pair_orbit_map(degree: int, elements) -> dict[tuple[int, int], frozenset]:
    """Orbit of every ordered pair under an explicit element list."""
    out = {}
    for a in range(degree):
        for b in range(degree):
            out[(a, b)] = frozenset((g.images[a], g.images[b]) for g in elements)
    return out


def brute_two_closure(degree: int, elements) -> set[Permutation]:
    """All of Sym(degree) filtered by the definitional pair condition."""
    orbits = pair_orbit_map(degree, elements)
    out = set()
    for images in itertools.permutations(range(degree)):
        theta = Permutation(images)
        if all(
            (images[a], images[b]) in orbits[(a, b)]
            for a in range(degree)
            for b in range(degree)
        ):
            out.add(theta)
    return out


def brute_abelian_basis(group: PermGroup) -> list[Permutation]:
    """Walk the elements of an abelian group in (-order, element) order and
    keep g when <g> meets the span of the kept elements only in the
    identity: the reference for `witnesses.abelian_basis`."""
    one = identity(group.degree)
    basis: list[Permutation] = []
    span = {one}
    for g in sorted(mulclose(group.degree, group.generators), key=lambda g: (-g.order(), g)):
        if g not in span and mulclose(group.degree, [g]) & span == {one}:
            basis.append(g)
            span = mulclose(group.degree, basis)
    return basis


def brute_color_table(degree: int, elements) -> tuple[int, ...]:
    """Each ordered pair's orbit under an explicit element list, numbered in
    order of first appearance scanning pairs lexicographically."""
    orbits = pair_orbit_map(degree, elements)
    numbers: dict[frozenset, int] = {}
    return tuple(numbers.setdefault(orbits[(a, b)], len(numbers)) for a in range(degree) for b in range(degree))


def transporter_tree(degree: int, generators, representative: tuple[int, int]) -> dict:
    """Breadth-first search from `representative` over `generators`, first
    in first out and in their order: every pair of its orbit, mapped to the
    element spelled by the search-tree word that reaches it and that word's
    length."""
    reached = {representative: (identity(degree), 0)}
    queue = deque([representative])
    while queue:
        a, b = pair = queue.popleft()
        element, length = reached[pair]
        for g in generators:
            image = (g.images[a], g.images[b])
            if image not in reached:
                reached[image] = (element * g, length + 1)
                queue.append(image)
    return reached


def loaded_modules(code: str, *argv: str) -> list[str]:
    """`sys.modules` after running `code` in a fresh interpreter on this
    package's source; `code` reads `argv` from `sys.argv[1:]`."""
    env = dict(os.environ)
    source = str(Path(twoclosure.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    done = subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])

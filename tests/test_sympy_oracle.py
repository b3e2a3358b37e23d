"""Differential test of the group layer against sympy.combinatorics.

sympy computes order, membership, orbits and point stabilizers with its own
Schreier-Sims code, so it checks the stabilizer chain independently of the
brute-force oracles in helpers.py.  Its nilpotency test, Sylow subgroups,
cyclicity test and center check the element-enumerating operators.
"""

import random

import pytest

sympy_combinatorics = pytest.importorskip("sympy.combinatorics")

from twoclosure.catalog import realize_name  # noqa: E402
from twoclosure.group import (  # noqa: E402
    PermGroup,
    center,
    is_cyclic,
    prime_factorization,
    sylow_decomposition,
)
from twoclosure.perm import Permutation  # noqa: E402


def seeded_groups(seed: int, count: int):
    """Groups on 3..10 points from 1-3 generators; each generator shuffles a
    random subset of the points, so small and intransitive groups occur."""
    rng = random.Random(seed)
    for _ in range(count):
        degree = rng.randint(3, 10)
        gens = []
        for _ in range(rng.randint(1, 3)):
            moved = rng.sample(range(degree), rng.randint(2, degree))
            images = list(range(degree))
            for a, b in zip(moved, rng.sample(moved, len(moved))):
                images[a] = b
            gens.append(Permutation(tuple(images)))
        yield rng, degree, gens


def as_sympy(g: Permutation):
    return sympy_combinatorics.Permutation(list(g.images))


def test_group_layer_matches_sympy():
    for rng, degree, gens in seeded_groups(seed=55, count=60):
        group = PermGroup(degree, gens)
        reference = sympy_combinatorics.PermutationGroup([as_sympy(g) for g in gens])
        assert group.order == reference.order()
        candidates = []
        for _ in range(8):
            images = list(range(degree))
            rng.shuffle(images)
            candidates.append(Permutation(tuple(images)))
            word = [rng.choice(gens) for _ in range(rng.randint(1, 6))]
            member = word[0]
            for g in word[1:]:
                member = member * g
            candidates.append(member)
        for x in candidates:
            assert group.contains(x) == reference.contains(as_sympy(x)), (gens, x)
        assert group.orbits() == tuple(sorted(tuple(sorted(o)) for o in reference.orbits()))
        for point in range(degree):
            assert group.point_stabilizer(point).order == reference.stabilizer(point).order()


# sympy's Sylow and nilpotency routines slow down sharply with the order.
OPERATOR_MAX_ORDER = 1000


# Nilpotent noncyclic and non-nilpotent groups are rare among the seeded ones.
FAMILIES = ("D12", "D16", "Q8xC3", "E27", "C2xC4", "D8xC3")


def test_group_operators_match_sympy():
    checked = 0
    cases = [(degree, gens) for _, degree, gens in seeded_groups(seed=55, count=60)]
    cases += [(group.degree, group.generators) for group in map(realize_name, FAMILIES)]
    for degree, gens in cases:
        group = PermGroup(degree, gens)
        if group.order > OPERATOR_MAX_ORDER:
            continue
        checked += 1
        reference = sympy_combinatorics.PermutationGroup([as_sympy(g) for g in gens])
        assert center(group).order == reference.center().order()
        assert is_cyclic(group) == reference.is_cyclic
        decomposition = sylow_decomposition(group)
        assert decomposition.nilpotent == reference.is_nilpotent
        for p, e in prime_factorization(group.order).items():
            sylow = reference.sylow_subgroup(p)
            assert sylow.order() == p**e
            # Only normal Sylow subgroups are returned, and a normal Sylow
            # subgroup is the unique one, so it must equal sympy's.
            assert (p in decomposition.sylows) == sylow.is_normal(reference)
            if p in decomposition.sylows:
                ours = decomposition.sylows[p]
                assert ours.order == p**e
                assert all(ours.contains(Permutation(tuple(g.array_form))) for g in sylow.generators)
    assert checked >= 36

"""Differential test of the group layer against sympy.combinatorics.

sympy computes order, membership, orbits and point stabilizers with its own
Schreier-Sims code, so it checks the stabilizer chain independently of the
brute-force oracles in helpers.py.  Its nilpotency test, Sylow subgroups,
cyclicity test, center and centralizer check the group operators, those
that list elements and those that read generators alike.
"""

import math
import random

import pytest

sympy_combinatorics = pytest.importorskip("sympy.combinatorics")

from twoclosure.catalog import parse_family, realize_name  # noqa: E402
from twoclosure.group import (  # noqa: E402
    PermGroup,
    center,
    centralizer,
    is_cyclic,
    prime_factorization,
    sylow_decomposition,
)
from twoclosure.perm import Permutation, identity  # noqa: E402
from twoclosure.verify import NOT_TWO_CLOSED_FAMILIES, TWO_CLOSED_FAMILIES  # noqa: E402


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


def assert_stabilizers_match_sympy(group: PermGroup, reference) -> None:
    """At every point, the stabilizer and sympy's are the same group: equal
    orders, and each side's generators lie in the other."""
    for point in range(group.degree):
        stab, expected = group.point_stabilizer(point), reference.stabilizer(point)
        assert stab.order == expected.order(), (group, point)
        assert all(expected.contains(as_sympy(g)) for g in stab.generators), (group, point)
        assert all(stab.contains(Permutation(tuple(g.array_form))) for g in expected.generators), (group, point)


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
        assert_stabilizers_match_sympy(group, reference)


def test_conjugate_and_stabilizer_orders_match_sympy():
    # Both are built with their order known in advance; sympy computes the
    # orders from the conjugated generators and its own stabilizer chain.
    for rng, degree, gens in seeded_groups(seed=57, count=40):
        images = list(range(degree))
        rng.shuffle(images)
        x = Permutation(tuple(images))
        conjugate = PermGroup(degree, gens).conjugated_by(x)
        reference = sympy_combinatorics.PermutationGroup([as_sympy(g.conjugated_by(x)) for g in gens])
        assert conjugate.order == reference.order()
        assert_stabilizers_match_sympy(conjugate, reference)


def test_catalog_stabilizers_match_sympy():
    # The products are intransitive, so most of their points lie outside the
    # orbit of point 0.
    names = [name for name in TWO_CLOSED_FAMILIES + NOT_TWO_CLOSED_FAMILIES if parse_family(name).degree <= 16]
    assert len(names) >= 30
    for group in map(realize_name, names):
        # The identity fixes sympy's degree for C1, which has no generator.
        reference = sympy_combinatorics.PermutationGroup([as_sympy(g) for g in (identity(group.degree), *group.generators)])
        assert_stabilizers_match_sympy(group, reference)


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
        # The centralizer of the subgroup generated by the first generator.
        first = sympy_combinatorics.PermutationGroup([as_sympy(gens[0])])
        assert centralizer(group, PermGroup(degree, gens[:1])).order == reference.centralizer(first).order()
        assert is_cyclic(group) == reference.is_cyclic
        sylows = sylow_decomposition(group)
        assert (sylows is not None) == reference.is_nilpotent
        if sylows is None:
            continue
        assert sylows.keys() == prime_factorization(group.order).keys()
        for p, e in prime_factorization(group.order).items():
            # In a nilpotent group each Sylow subgroup is normal, hence the
            # unique one, so it must equal sympy's.
            sylow = reference.sylow_subgroup(p)
            assert sylow.order() == p**e
            assert sylows[p].order == p**e
            assert all(sylows[p].contains(Permutation(tuple(g.array_form))) for g in sylow.generators)
    assert checked >= 36


def membership_candidates(rng, group, count):
    """Seeded random permutations, products of the generators, and such
    products times a transposition."""
    degree, gens = group.degree, group.generators
    out = []
    for _ in range(count):
        images = list(range(degree))
        rng.shuffle(images)
        out.append(Permutation(tuple(images)))
        member = gens[0]
        for _ in range(rng.randint(0, 12)):
            member = member * rng.choice(gens)
        out.append(member)
        a, b = rng.sample(range(degree), 2)
        images = list(member.images)
        images[a], images[b] = images[b], images[a]
        out.append(Permutation(tuple(images)))
    return out


def assert_membership_matches_sympy(group, rng, count):
    reference = sympy_combinatorics.PermutationGroup([as_sympy(g) for g in group.generators])
    verdicts = set()
    for x in membership_candidates(rng, group, count):
        verdict = group.contains(x)
        assert verdict == reference.contains(as_sympy(x)), (group, x)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_schreier_vector_membership_matches_sympy_on_c1000():
    from twoclosure.group import _VectorOrbit

    group = realize_name("C1000")
    assert isinstance(group._chain.levels[0].orbit, _VectorOrbit)
    assert_membership_matches_sympy(group, random.Random(63), 20)


# Catalog p-groups of order at most 256.
P_GROUPS = (
    "C4", "C8", "C16", "C32", "C64", "C128", "C256", "C9", "C27", "C81", "C25", "C125", "C49",
    "C2xC2", "C2xC4", "C4xC4", "C2xC2xC2", "C3xC3", "C3xC9", "C5xC5",
    "D8", "D16", "D32", "D64", "D128", "D256", "SD16", "SD32", "SD64", "SD128", "SD256",
    "Q8", "Q16", "Q32", "Q64", "Q128", "Q256", "E27", "E125",
    "Q8xC2", "D8xC2", "Q8xC4", "D16xC2", "E27xC3", "D8xD8", "Q8xQ8",
)


def test_schreier_vector_membership_matches_sympy_on_p_groups(monkeypatch):
    # Budget 1: every level with more than one point is a Schreier vector.
    import twoclosure.group as group_module

    monkeypatch.setattr(group_module, "LEVEL_BUDGET", 1)
    rng = random.Random(64)
    for name in P_GROUPS:
        group = realize_name(name)
        assert group.order <= 256 and len(prime_factorization(group.order)) == 1, name
        assert_membership_matches_sympy(group, rng, 10)


def random_permutation(rng, degree, even=None):
    """A seeded random permutation; of the given parity unless `even` is None."""
    images = list(range(degree))
    rng.shuffle(images)
    g = Permutation(tuple(images))
    if even is not None and (sum(len(c) - 1 for c in g.cycles()) % 2 == 0) != even:
        images[0], images[1] = images[1], images[0]
        g = Permutation(tuple(images))
    return g


def test_sym_and_alt_chains_match_sympy():
    # Two random generators of degree 10-20 almost always generate Sym(n),
    # or Alt(n) when both are even: the groups whose chains stop at the
    # order bound n! or n!/2.  Membership of odd and even permutations
    # catches a chain that took an incomplete level for Alt(n).
    rng = random.Random(65)
    kinds = []
    for i in range(12):
        degree = rng.randint(10, 20)
        gens = [random_permutation(rng, degree, even=True if i % 2 == 0 else None) for _ in range(2)]
        group = PermGroup(degree, gens)
        reference = sympy_combinatorics.PermutationGroup([as_sympy(g) for g in gens])
        assert group.order == reference.order(), gens
        kinds.append(math.factorial(degree) // group.order)
        for k in range(50):
            x = random_permutation(rng, degree, even=k % 2 == 0)
            assert group.contains(x) == reference.contains(as_sympy(x)), (gens, x)
    assert kinds.count(1) >= 4 and kinds.count(2) >= 4, kinds

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_color_table, brute_two_closure, on_block, pair_orbit_map, transporter_tree
from twoclosure.catalog import realize_name, subgroup_lattice
from twoclosure.errors import GuardExceeded, PreconditionError
from twoclosure.group import PermGroup, _Chain, center
from twoclosure.orbital import (
    _closure_generators,
    _extend_from,
    _missing_generator,
    _transporters,
    is_in_two_closure,
    membership_evidence,
    orbital_partition,
    two_closure,
    two_equivalent,
)
from twoclosure.perm import Permutation, identity, parse_cycles
from twoclosure.verify import _colour_preserving_count, catalog_realizations, random_groups


def remark_group():
    return PermGroup(6, (parse_cycles("(1,2)(3,4)", 6), parse_cycles("(3,4)(5,6)", 6)))


def test_rank_examples():
    s3 = PermGroup(3, (parse_cycles("(1,2,3)", 3), parse_cycles("(1,2)", 3)))
    assert orbital_partition(s3).rank == 2
    c4 = PermGroup(4, (parse_cycles("(1,2,3,4)", 4),))
    assert orbital_partition(c4).rank == 4
    assert orbital_partition(remark_group()).rank == 12


def klein_by_its_involutions():
    return PermGroup(4, tuple(parse_cycles(c, 4) for c in ("(1,2)(3,4)", "(1,3)(2,4)", "(1,4)(2,3)")))


def test_rank_matches_brute_force_enumeration():
    rng = random.Random(5)
    groups = []
    for _ in range(25):
        degree = rng.randint(2, 7)
        gens = []
        for _ in range(rng.randint(1, 2)):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(Permutation(tuple(images)))
        groups.append(PermGroup(degree, tuple(gens)))
    # Groups whose strong generating set is the shorter one, so the colors
    # come from it: a center and a lattice handle list every element as a
    # generator, and a closure keeps its input's generators, here three
    # involutions of which two generate.
    shorter = [
        center(realize_name("D16")),
        max(subgroup_lattice(realize_name("D8")), key=lambda handle: handle.mask.bit_count()).group,
        two_closure(klein_by_its_involutions()),
    ]
    for group in shorter:
        assert len(group.strong_generators) < len(group.generators)
    for group in groups + shorter:
        n, elements = group.degree, group.elements()
        partition = orbital_partition(group)
        assert partition.colors == brute_color_table(n, elements)
        orbits = pair_orbit_map(n, elements)
        assert partition.rank == len(partition.representatives) == len(set(orbits.values()))
        for color, rep in enumerate(partition.representatives):
            assert partition.colors[rep[0] * n + rep[1]] == color
            assert rep == min(orbits[rep])


def test_orbital_partition_is_cached_on_its_group():
    group = remark_group()
    closure = two_closure(group)
    partition = orbital_partition(group)
    assert orbital_partition(group) is partition
    assert two_closure(group).same_group(closure)
    assert orbital_partition(group) is partition
    assert orbital_partition(closure) is not partition


def test_partition_structure():
    group = remark_group()
    partition = orbital_partition(group)
    n = group.degree
    # colors partition all pairs; classes are closed under the group action
    assert len(partition.colors) == n * n
    for g in group.strong_generators:
        for a in range(n):
            for b in range(n):
                assert partition.colors[g.images[a] * n + g.images[b]] == partition.colors[a * n + b]
    # the diagonal never shares a color with off-diagonal pairs
    diagonal = {partition.colors[a * n + a] for a in range(n)}
    off = {partition.colors[a * n + b] for a in range(n) for b in range(n) if a != b}
    assert not diagonal & off
    # representatives are the lexicographically least pair of their class
    for color, rep in enumerate(partition.representatives):
        pairs = [
            (a, b) for a in range(n) for b in range(n) if partition.colors[a * n + b] == color
        ]
        assert min(pairs) == rep


def bfs_distances(group, representative):
    """Generator-word distance from a representative to every pair of its orbit."""
    distance = {representative: 0}
    frontier = [representative]
    while frontier:
        fresh = []
        for a, b in frontier:
            for g in group.strong_generators:
                image = (g.images[a], g.images[b])
                if image not in distance:
                    distance[image] = distance[(a, b)] + 1
                    fresh.append(image)
        frontier = fresh
    return distance


def test_transporters_map_representatives():
    """Each transporter maps its class representative to the pair, along a
    shortest generator word, and equal elements are stored once."""
    for group in [remark_group()] + [realize_name(f) for f in ("D16", "Q8xC2", "E27", "C2xC4xC3")]:
        check_transporter_table(group)


def check_transporter_table(group):
    partition = orbital_partition(group)
    n = partition.degree
    index, elements = _transporters(partition, group.strong_generators)
    reference, distance = {}, {}
    for rep in partition.representatives:
        reference.update(transporter_tree(n, group.strong_generators, rep))
        distance.update(bfs_distances(group, rep))
    for a in range(n):
        for b in range(n):
            rep = partition.representatives[partition.colors[a * n + b]]
            g = elements[index[a * n + b]]
            assert (g.images[rep[0]], g.images[rep[1]]) == (a, b)
            assert group.contains(g)
            element, word = reference[(a, b)]
            assert g == element
            assert word == distance[(a, b)]
    # every distinct transporter is built once: at most |G| objects
    assert len({g.images for g in elements}) == len(elements) <= group.order


def test_two_equivalent_examples():
    group = remark_group()
    closure = two_closure(group)
    assert two_equivalent(group, closure)
    other = PermGroup(
        6, (parse_cycles("(1,2)", 6), parse_cycles("(3,4)", 6), parse_cycles("(5,6)", 6))
    )
    assert two_equivalent(group, other)
    assert not two_equivalent(group, PermGroup(6, ()))
    with pytest.raises(PreconditionError):
        two_equivalent(group, PermGroup(5, ()))


def test_membership_examples():
    group = remark_group()
    partition = orbital_partition(group)
    assert is_in_two_closure(parse_cycles("(1,2)", 6), partition)
    assert not is_in_two_closure(parse_cycles("(1,3)", 6), partition)
    assert is_in_two_closure(identity(6), partition)


def pairwise_membership(theta, partition) -> bool:
    """The definition, pair by pair: theta keeps the colour of every ordered pair."""
    n, colors, img = partition.degree, partition.colors, theta.images
    return all(colors[img[a] * n + img[b]] == colors[a * n + b] for a in range(n) for b in range(n))


def random_permutation(rng, degree):
    images = list(range(degree))
    rng.shuffle(images)
    return Permutation(tuple(images))


def check_membership_against_definition(group, rng):
    """Members (the closure's strong generators and the identity), random
    permutations and members times a random transposition, which move only
    two points' rows, get the definition's answer; a wrong degree is refused."""
    n = group.degree
    partition = orbital_partition(group)
    members = two_closure(group).strong_generators + (identity(n),)
    for theta in members:
        assert is_in_two_closure(theta, partition) and pairwise_membership(theta, partition)
    others = [random_permutation(rng, n) for _ in range(20)]
    for theta in members if n > 1 else ():
        images = list(range(n))
        a, b = rng.sample(range(n), 2)
        images[a], images[b] = b, a
        others.append(theta * Permutation(tuple(images)))
    for theta in others:
        assert is_in_two_closure(theta, partition) == pairwise_membership(theta, partition)
    with pytest.raises(PreconditionError):
        is_in_two_closure(identity(n + 1), partition)


def random_group(rng, degree):
    return PermGroup(degree, tuple(random_permutation(rng, degree) for _ in range(rng.randint(0, 2))))


def test_membership_matches_the_pairwise_definition():
    rng = random.Random(23)
    groups = [random_group(rng, degree) for degree in range(13) for _ in range(3)]
    groups += [group for _, group in catalog_realizations(12)]
    for group in groups:
        check_membership_against_definition(group, rng)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_membership_matches_the_pairwise_definition_on_any_seed(seed):
    rng = random.Random(seed)
    check_membership_against_definition(random_group(rng, rng.randint(0, 12)), rng)


def test_membership_evidence_is_checkable():
    group = remark_group()
    theta = parse_cycles("(1,2)", 6)
    evidence = membership_evidence(theta, group)
    assert len(evidence.assignments) == 36
    assert len(evidence.elements) <= group.order
    for flat, position in enumerate(evidence.assignments):
        a, b = divmod(flat, 6)
        g = evidence.elements[position]
        assert group.contains(g)
        assert g.images[a] == theta.images[a] and g.images[b] == theta.images[b]
    with pytest.raises(PreconditionError):
        membership_evidence(parse_cycles("(1,3)", 6), group)
    with pytest.raises(PreconditionError, match="^degree mismatch$"):
        membership_evidence(parse_cycles("(1,2)", 7), group)


def test_closure_examples():
    group = remark_group()
    closure = two_closure(group)
    assert closure.order == 8
    expected = PermGroup(
        6, (parse_cycles("(1,2)", 6), parse_cycles("(3,4)", 6), parse_cycles("(5,6)", 6))
    )
    assert closure.same_group(expected)
    klein = PermGroup(4, (parse_cycles("(1,2)(3,4)", 4), parse_cycles("(1,3)(2,4)", 4)))
    assert two_closure(klein).same_group(klein)
    s3 = PermGroup(3, (parse_cycles("(1,2,3)", 3), parse_cycles("(1,2)", 3)))
    assert two_closure(s3).same_group(s3)


def test_closure_matches_brute_force_on_random_groups():
    rng = random.Random(11)
    for _ in range(20):
        degree = rng.randint(2, 6)
        gens = []
        for _ in range(rng.randint(1, 2)):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(Permutation(tuple(images)))
        group = PermGroup(degree, tuple(gens))
        closure = two_closure(group)
        assert set(closure.elements()) == brute_two_closure(degree, group.elements())


def chain_state(group):
    """Each level's strong generators in chain order and its orbit points in
    insertion order with each point's transversal inverse, read through the
    orbit's lookup so a Schreier-vector level is compared by value."""
    return [(list(level.gens), [(p, level.orbit[p]) for p in level.orbit]) for level in group._chain.levels]


def test_closure_extends_the_groups_chain_exactly():
    rng = random.Random(19)
    groups = [realize_name("D64"), realize_name("E125")]
    groups.append(PermGroup(8, (parse_cycles("(1,2,3,4,5,6,7,8)", 8), parse_cycles("(1,2)", 8))))
    for _ in range(40):
        degree = rng.randint(3, 10)
        gens = []
        for _ in range(rng.randint(1, 3)):
            moved = rng.sample(range(degree), rng.randint(2, degree))
            images = list(range(degree))
            for a, b in zip(moved, rng.sample(moved, len(moved))):
                images[a] = b
            gens.append(Permutation(tuple(images)))
        groups.append(PermGroup(degree, tuple(gens)))
    for group in groups:
        before = chain_state(group)
        # The generators a closure search finds from a chain built afresh
        # from the strong generators.
        fresh = _Chain(group.degree)
        for g in group.strong_generators:
            fresh.add(g)
        found = tuple(_closure_generators(orbital_partition(group), fresh))
        closure = two_closure(group)
        assert closure.generators == group.generators + found
        assert chain_state(closure) == chain_state(PermGroup(group.degree, group.generators + found))
        assert chain_state(group) == before
        again = two_closure(closure)
        assert again.same_group(closure)
        assert chain_state(again) == chain_state(PermGroup(group.degree, again.generators))
        assert chain_state(group) == before
        assert chain_state(closure) == chain_state(PermGroup(group.degree, closure.generators))


def test_is_two_closed_examples():
    d8 = PermGroup(4, (parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,3)", 4)))
    d8_closure = two_closure(d8)
    assert d8_closure.same_group(d8) and _missing_generator(d8, d8_closure) is None
    remark = remark_group()
    remark_closure = two_closure(remark)
    witness = _missing_generator(remark, remark_closure)
    assert not remark_closure.same_group(remark) and witness is not None
    assert not remark.contains(witness)
    s4 = PermGroup(4, (parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,2)", 4)))
    assert two_closure(s4).same_group(s4)


def test_closure_invariants_on_catalog_groups():
    rng = random.Random(3)
    for name in ("C6", "D8", "Q8", "C2xC4"):
        group = realize_name(name)
        partition = orbital_partition(group)
        closure = two_closure(group)
        assert group.is_subgroup_of(closure)
        assert two_closure(closure).same_group(closure)
        assert orbital_partition(closure).colors == partition.colors
        for _ in range(3):
            images = list(range(group.degree))
            rng.shuffle(images)
            x = Permutation(tuple(images))
            assert two_closure(group.conjugated_by(x)).same_group(closure.conjugated_by(x))


def test_commuting_and_abelian_closures():
    from twoclosure.actions import disjoint_union_action

    v4, c3 = realize_name("C2xC2"), realize_name("C3")
    union = disjoint_union_action([v4, c3])
    a_closure = two_closure(on_block(v4, 0, union.degree))
    b_closure = two_closure(on_block(c3, v4.degree, union.degree))
    for x in a_closure.strong_generators:
        for y in b_closure.strong_generators:
            assert x * y == y * x
    closure = two_closure(union)
    assert union.is_abelian() and closure.is_abelian()
    for z in center(union).elements():
        assert all(z * s == s * z for s in closure.strong_generators)


def test_degree_guard():
    big = PermGroup(33, (parse_cycles("(1,2)", 33),))
    with pytest.raises(GuardExceeded):
        two_closure(big)
    # definitional membership has no degree guard
    assert is_in_two_closure(identity(33), orbital_partition(big))


def test_maximality_exhaustive_degree_5():
    group = PermGroup(5, (parse_cycles("(1,2,3)", 5), parse_cycles("(4,5)", 5)))
    partition = orbital_partition(group)
    closure = two_closure(group)
    for images in itertools.permutations(range(5)):
        theta = Permutation(images)
        assert closure.contains(theta) == is_in_two_closure(theta, partition)


def diagonal_color_fixes_signatures(colors, n) -> bool:
    """Points of one diagonal color have equal sorted row and column colors."""
    signatures = {}
    for v in range(n):
        signature = (sorted(colors[v * n:(v + 1) * n]), sorted(colors[v::n]))
        if signatures.setdefault(colors[v * n + v], signature) != signature:
            return False
    return True


def reverse_color_is_a_function(colors, n) -> bool:
    """color(b, a) is determined by color(a, b)."""
    reverse = {}
    for a, b in itertools.product(range(n), repeat=2):
        if reverse.setdefault(colors[a * n + b], colors[b * n + a]) != colors[b * n + a]:
            return False
    return True


def path_coloring():
    """Diagonal 0, color 1 on the pairs {1,2}, {1,4}, {3,4} (1-based) in both
    orientations, color 2 on the rest: the path 2-1-4-3, whose only
    automorphisms are the identity and the reversal 1<->4, 2<->3."""
    edges = {(0, 1), (0, 3), (2, 3)}
    return tuple(
        0 if a == b else 1 if (min(a, b), max(a, b)) in edges else 2
        for a, b in itertools.product(range(4), repeat=2)
    )


def test_orbital_colorings_meet_the_closure_search_precondition():
    # The closure search tests a candidate by its diagonal color alone and
    # each decided pair in one orientation; both rest on these two facts.
    groups = [g for seed in (1, 2, 3) for g in random_groups(seed, 200, 7)]
    groups += [group for _, group in catalog_realizations(12)]
    for group in groups:
        partition = orbital_partition(group)
        assert diagonal_color_fixes_signatures(partition.colors, group.degree)
        assert reverse_color_is_a_function(partition.colors, group.degree)
    # Not orbital colorings: point 1 has color 1 to point 2 but color 2 back,
    # so its row differs from point 2's under one diagonal color.
    skew = (0, 1, 1, 2, 0, 1, 1, 1, 0)
    assert not diagonal_color_fixes_signatures(skew, 3)
    assert not reverse_color_is_a_function(skew, 3)
    assert not diagonal_color_fixes_signatures(path_coloring(), 4)


@pytest.mark.parametrize("p, multiplier, order", [(13, 4, 78), (17, 9, 136)])
def test_closure_search_backtracks_to_the_group(p, multiplier, order):
    # x -> x+1 and x -> multiplier*x: the search for these closures abandons
    # partial images (6 and 11 times) before it finds each generator.
    translate = Permutation(tuple((x + 1) % p for x in range(p)))
    scale = Permutation(tuple(multiplier * x % p for x in range(p)))
    group = PermGroup(p, (translate, scale))
    closure = two_closure(group)
    assert closure.same_group(group)
    assert closure.order == order == _colour_preserving_count(orbital_partition(group))


def test_a_failed_branch_frees_its_candidate():
    # Sending 1 to 4, the search first sends 2 to 1 and fails at 3; point 1
    # must be free again for the reversal, which sends 4 to it.
    images, used = list(range(4)), [False] * 4
    assert _extend_from(path_coloring(), 4, images, used, 0, (3,))
    assert images == [3, 2, 1, 0] and all(used)

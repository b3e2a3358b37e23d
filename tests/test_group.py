import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twoclosure.group as group_module
from helpers import mulclose
from twoclosure.catalog import realize_name
from twoclosure.errors import GuardExceeded, InternalDefect, PreconditionError
from twoclosure.group import (
    PermGroup,
    as_subgroup,
    center,
    centralizer,
    core,
    is_cyclic,
    is_nilpotent,
    is_normal,
    is_prime,
    prime_factorization,
    sylow_decomposition,
)
from twoclosure.perm import Permutation, from_cycles, identity, parse_cycles


def cycles(text, degree):
    return parse_cycles(text, degree)


def test_build_group_examples():
    g = PermGroup(6, (cycles("(1,2)(3,4)", 6), cycles("(3,4)(5,6)", 6)))
    assert g.order == 4
    assert PermGroup(5, ()).order == 1
    assert PermGroup(4, (cycles("(1,2,3,4)", 4),)).order == 4


def test_build_group_rejects_degree_mismatch():
    with pytest.raises(PreconditionError):
        PermGroup(4, (cycles("(1,2)", 5),))


def test_deterministic_chains():
    gens = (cycles("(1,2,3,4)", 4), cycles("(1,3)", 4))
    a = PermGroup(4, gens)
    b = PermGroup(4, gens)
    assert a.strong_generators == b.strong_generators
    assert [sorted(lv.orbit) for lv in a._chain.levels] == [
        sorted(lv.orbit) for lv in b._chain.levels
    ]


def test_order_and_membership_examples():
    g = PermGroup(6, (cycles("(1,2)(3,4)", 6), cycles("(3,4)(5,6)", 6)))
    assert g.order == 4
    assert not g.contains(cycles("(1,2)", 6))
    assert g.contains(identity(6))
    c4 = PermGroup(4, (cycles("(1,2,3,4)", 4),))
    assert c4.order == 4 and c4.contains(cycles("(1,3)(2,4)", 4))


def test_chain_order_matches_enumeration_on_random_groups():
    rng = random.Random(99)
    for _ in range(60):
        degree = rng.randint(2, 8)
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(Permutation(tuple(images)))
        group = PermGroup(degree, tuple(gens))
        enumerated = mulclose(degree, gens)
        assert group.order == len(enumerated)
        if group.order <= 20000:
            assert set(group.elements()) == enumerated


def test_orbit_stabilizer_examples():
    c4 = PermGroup(4, (cycles("(1,2,3,4)", 4),))
    assert c4.orbit(0) == (0, 1, 2, 3) and c4.point_stabilizer(0).order == 1
    g = PermGroup(6, (cycles("(1,2)(3,4)", 6), cycles("(3,4)(5,6)", 6)))
    assert g.orbit(0) == (0, 1) and g.point_stabilizer(0).order == 2
    s3 = PermGroup(3, (cycles("(1,2,3)", 3), cycles("(1,2)", 3)))
    assert s3.orbit(2) == (0, 1, 2) and s3.point_stabilizer(2).order == 2


def test_orbit_stabilizer_identity_everywhere():
    for name in ("D8", "Q8", "C6", "SD16", "Q8xC3"):
        group = realize_name(name)
        for point in range(group.degree):
            stab = group.point_stabilizer(point)
            assert len(group.orbit(point)) * stab.order == group.order
            assert all(g.images[point] == point for g in stab.generators)
            assert stab.is_subgroup_of(group)


def reference_orbit_and_stabilizer(group, point):
    """The orbit and stabilizer by a BFS over Permutation products: the
    transversal u_q = u_p * s for the first edge (p, s) that reaches q, and
    the distinct nonidentity Schreier generators u_p * s * u_(p^s)^-1 in
    sorted order of p."""
    transversal = {point: identity(group.degree)}
    queue = [point]
    for p in queue:
        for s in group.strong_generators:
            q = s.images[p]
            if q not in transversal:
                transversal[q] = transversal[p] * s
                queue.append(q)
    gens = []
    for p in sorted(transversal):
        for s in group.strong_generators:
            sg = transversal[p] * s * transversal[s.images[p]].inverse()
            if not sg.is_identity() and sg not in gens:
                gens.append(sg)
    return tuple(sorted(transversal)), PermGroup(group.degree, gens)


def test_orbit_and_stabilizer_match_the_permutation_bfs():
    rng = random.Random(2024)
    groups = [realize_name(name) for name in ("D16", "Q16", "E27")]
    for _ in range(50):
        degree = rng.randint(2, 9)
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(Permutation(tuple(images)))
        groups.append(PermGroup(degree, gens))
    for group in groups:
        for point in range(group.degree):
            orbit, reference = reference_orbit_and_stabilizer(group, point)
            stab = group.point_stabilizer(point)
            assert group.orbit(point) == orbit
            assert stab.generators == reference.generators
            assert chain_state(stab) == chain_state(reference)


def test_subgroup_operator_examples():
    d8 = PermGroup(4, (cycles("(1,2,3,4)", 4), cycles("(1,3)", 4)))
    z = center(d8)
    assert z.order == 2 and z.contains(cycles("(1,3)(2,4)", 4))
    h = PermGroup(4, (cycles("(1,3)", 4),))
    assert core(d8, h).order == 1
    assert centralizer(d8, d8).same_group(z)


def test_abelian_group_is_its_own_center_with_no_element_listed(monkeypatch):
    def refuse(self):
        raise AssertionError("PermGroup.elements was called")

    group = realize_name("C4xC4xC4")
    monkeypatch.setattr(PermGroup, "elements", refuse)
    assert center(group) is group


def test_core_is_largest_normal_subgroup_inside():
    # Exhaustive check against the subgroup lattice on small groups.
    from twoclosure.catalog import subgroup_lattice

    for name in ("D8", "Q8", "C6", "D16"):
        group = realize_name(name)
        handles = subgroup_lattice(group)
        for handle in handles:
            k = core(group, handle.group)
            assert is_normal(group, k)
            assert k.is_subgroup_of(handle.group)
            for other in handles:
                if other.normal and other.group.is_subgroup_of(handle.group):
                    assert other.group.is_subgroup_of(k)


def test_subgroup_handle_rejects_non_subgroups():
    d8 = PermGroup(4, (cycles("(1,2,3,4)", 4), cycles("(1,3)", 4)))
    with pytest.raises(PreconditionError):
        as_subgroup(d8, PermGroup(4, (cycles("(1,2)", 4),)))


def test_sylow_examples():
    c6 = PermGroup(6, (cycles("(1,2,3,4,5,6)", 6),))
    sylows = sylow_decomposition(c6)
    assert sylows is not None
    assert {p: s.order for p, s in sylows.items()} == {2: 2, 3: 3}

    s3 = PermGroup(3, (cycles("(1,2,3)", 3), cycles("(1,2)", 3)))
    assert sylow_decomposition(s3) is None

    q8c3 = realize_name("Q8xC3")
    sylows = sylow_decomposition(q8c3)
    assert sylows is not None
    assert sylows[2].order == 8 and sylows[3].order == 3
    from math import gcd

    assert gcd(sylows[2].order, sylows[3].order) == 1


def brute_sylow_report(degree, gens):
    """(cyclic, nilpotent, {p: element set} of the normal Sylow subgroups) by
    the enumerating definitions: cyclic iff some element's order is |G|, and
    the Sylow p-subgroup is normal iff the p-power-order elements number p^e."""
    elements = mulclose(degree, gens)
    factors = prime_factorization(len(elements))
    cyclic = any(g.order() == len(elements) for g in elements)
    normal = {}
    for p, e in factors.items():
        p_elements = {g for g in elements if p**e % g.order() == 0}
        if len(p_elements) == p**e:
            normal[p] = p_elements
    return cyclic, len(normal) == len(factors), normal


def test_generator_built_sylows_and_cyclicity_match_enumeration():
    rng = random.Random(41)
    cases = []
    for _ in range(40):
        degree = rng.randint(3, 7)
        gens = []
        for _ in range(rng.randint(1, 3)):
            moved = rng.sample(range(degree), rng.randint(2, degree))
            images = list(range(degree))
            for a, b in zip(moved, rng.sample(moved, len(moved))):
                images[a] = b
            gens.append(Permutation(tuple(images)))
        cases.append((degree, gens))
    cases += [
        (3, [cycles("(1,2,3)", 3), cycles("(1,2)", 3)]),  # S3
        (4, [cycles("(1,2,3)", 4), cycles("(1,2)(3,4)", 4)]),  # A4
        (4, [cycles("(1,2,3,4)", 4), cycles("(1,2)", 4)]),  # S4
    ]
    for name in ("C2xC4", "C3xC3", "C2xC2xC2", "Q8xC3", "D8xC3"):
        group = realize_name(name)
        cases.append((group.degree, list(group.generators)))
    kinds = set()
    for degree, gens in cases:
        group = PermGroup(degree, gens)
        cyclic, nilpotent, normal = brute_sylow_report(degree, gens)
        kinds.add((cyclic, nilpotent))
        assert is_cyclic(group) == cyclic, gens
        assert is_nilpotent(group) == nilpotent, gens
        sylows = sylow_decomposition(group)
        if not nilpotent:
            assert sylows is None, gens
            continue
        assert sylows.keys() == normal.keys()
        if len(normal) == 1:
            # A p-group is its own Sylow subgroup.
            assert sylows[next(iter(normal))] is group
        for p, sylow in sylows.items():
            assert set(sylow.elements()) == normal[p]
    assert kinds == {(True, True), (False, True), (False, False)}


def test_cycle_chain_forms_no_schreier_generator_on_tree_edges(monkeypatch):
    # One 1000-cycle: 1000 Schreier pairs at the only level, 999 of them
    # BFS-tree edges, whose Schreier generators are the identity.
    import twoclosure.group as group_module

    sifts, inverses = [], []
    sift, inverse = group_module._Chain._sift, group_module._inverse
    monkeypatch.setattr(group_module._Chain, "_sift", lambda self, h, start: sifts.append(start) or sift(self, h, start))
    monkeypatch.setattr(group_module, "_inverse", lambda images, points: inverses.append(1) or inverse(images, points))
    group = PermGroup(1000, (from_cycles(1000, [tuple(range(1000))]),))
    assert group.order == 1000
    assert sifts[0] == 0 and len(sifts) - 1 <= 3  # the generator's own sift comes first
    assert len(inverses) <= 3


def test_point_stabilizer_of_coprime_product_splits():
    from twoclosure.actions import disjoint_union_action

    union = disjoint_union_action([realize_name("Q8"), realize_name("C3")])
    group, (h_part, k_part) = union.group, union.embedded
    for alpha in range(group.degree):
        left = {
            h * k
            for h in h_part.point_stabilizer(alpha).elements()
            for k in k_part.point_stabilizer(alpha).elements()
        }
        assert left == set(group.point_stabilizer(alpha).elements())


def test_enumeration_guard():
    # Sym(9) has order 362880 > 20000: element listing must refuse.
    s9 = PermGroup(9, (cycles("(1,2)", 9), cycles("(1,2,3,4,5,6,7,8,9)", 9)))
    assert s9.order == 362880
    with pytest.raises(GuardExceeded):
        s9.elements()
    with pytest.raises(GuardExceeded):
        center(s9)


def test_is_prime_matches_trial_division():
    for n in range(-3, 300):
        assert is_prime(n) == (n >= 2 and all(n % d for d in range(2, n))), n


def test_is_cyclic():
    assert is_cyclic(PermGroup(6, (cycles("(1,2,3,4,5,6)", 6),)))
    assert is_cyclic(PermGroup(1, ()))
    assert not is_cyclic(realize_name("C2xC2"))
    assert not is_cyclic(realize_name("Q8"))


def test_element_index_matches_permutation_products():
    for name in ("D8", "Q8xC3", "E27"):
        group = realize_name(name)
        elements = group.elements()
        table = group._element_index()
        assert table.elements == elements and elements[0].is_identity()
        position = {g: i for i, g in enumerate(elements)}
        for g, col in zip(elements, table.cols):
            assert col == [position[x * g] for x in elements]
        for g, conj in zip(elements, table.conjugations()):
            assert conj == [position[h.conjugated_by(g)] for h in elements]
        for g in elements[:6]:
            mask = table.extend(1, (0,), (), position[g])
            assert set(table.elements_of(mask)) == mulclose(group.degree, (g,))
            assert table.conjugates(mask) == [
                sum(1 << position[h.conjugated_by(x)] for h in table.elements_of(mask))
                for x in elements
            ]
        assert table.conjugations() is table.conjugations()


def test_element_index_guard():
    with pytest.raises(GuardExceeded):
        realize_name("C257")._element_index()


def chain_state(group):
    """Each level's strong generator images, their stored inverses and its
    orbit points in insertion order with each point's transversal inverse,
    read through the orbit's lookup so a Schreier-vector level is compared
    by value."""
    return [
        ([g.images for g in lv.gens], list(lv.inverses), [(p, lv.orbit[p]) for p in lv.orbit])
        for lv in group._chain.levels
    ]


def test_known_order_chains_equal_plain_chains():
    from twoclosure.catalog import subgroup_lattice

    rng = random.Random(41)
    derived = 0
    for _ in range(100):
        degree = rng.randint(3, 9)
        gens = []
        for _ in range(rng.randint(1, 3)):
            moved = rng.sample(range(degree), rng.randint(2, degree))
            images = list(range(degree))
            for a, b in zip(moved, rng.sample(moved, len(moved))):
                images[a] = b
            gens.append(Permutation(tuple(images)))
        group = PermGroup(degree, gens)
        images = list(range(degree))
        rng.shuffle(images)
        groups = [PermGroup(degree, gens, _order=group.order), group.conjugated_by(Permutation(tuple(images)))]
        groups += [group.point_stabilizer(p) for p in range(degree)]
        if group.order <= 2000:
            groups.append(center(group))
        if group.order <= 48:
            groups += [handle.group for handle in subgroup_lattice(group)]
        for built in groups:
            assert chain_state(built) == chain_state(PermGroup(degree, built.generators)), built
        derived += len(groups)
    assert derived > 1000


def test_known_order_build_stops_sifting_at_the_order(monkeypatch):
    import twoclosure.group as group_module

    elements = realize_name("D16").elements()
    sifts = []
    sift = group_module._Chain._sift
    monkeypatch.setattr(group_module._Chain, "_sift", lambda self, h, start: sifts.append(start) or sift(self, h, start))
    PermGroup(8, elements)
    plain = len(sifts)
    sifts.clear()
    PermGroup(8, elements, _order=16)
    # One sift per listed element, and none of the Schreier generators the
    # plain build tests after the chain is complete.
    assert len(sifts) < plain and len(sifts) <= len(elements) + 4


def test_wrong_known_order_raises():
    d16 = realize_name("D16")
    for claim in (8, 15, 17, 32):
        with pytest.raises(InternalDefect, match=f"not the known order {claim}"):
            PermGroup(d16.degree, d16.generators, _order=claim)
    # An element outside the listed subgroup comes last: the chain reaches
    # the claimed order first, and that element's deposit then passes it.
    rotations = list(PermGroup(8, (cycles("(1,2,3,4,5,6,7,8)", 8),)).elements())
    for outside in (cycles("(1,8)(2,7)(3,6)(4,5)", 8), cycles("(1,2)", 8)):
        with pytest.raises(InternalDefect):
            PermGroup(8, rotations + [outside], _order=len(rotations))
    assert PermGroup(8, rotations, _order=len(rotations)).order == 8


# Vector levels: LEVEL_BUDGET 1 makes every level with more than one point a
# Schreier vector without checkpoints (the first lookup stores the level);
# 12 leaves checkpoints, memoised walks and runs of one generator label.
@pytest.mark.parametrize("budget", [1, 12])
def test_vector_levels_sift_and_list_like_stored_levels(monkeypatch, budget):
    from test_chain_golden import random_generator_sets

    cases = random_generator_sets()
    stored = [PermGroup(degree, gens) for degree, gens in cases]
    monkeypatch.setattr(group_module, "LEVEL_BUDGET", budget)
    vector = [PermGroup(degree, gens) for degree, gens in cases]
    assert any(isinstance(lv.orbit, group_module._VectorOrbit) for g in vector for lv in g._chain.levels)
    rng = random.Random(12)
    for i in range(200):
        degree, gens = cases[i]
        if i % 2:
            images = list(range(degree))
            rng.shuffle(images)
            x = Permutation(tuple(images))
        else:
            # A member, so the sift runs through every level.
            x = identity(degree)
            for _ in range(rng.randint(1, 8)):
                x = x * rng.choice(gens)
        assert vector[i]._chain.strip(x) == stored[i]._chain.strip(x)
    for plain, built in zip(stored, vector):
        if plain.order <= 5040:
            assert built.elements() == plain.elements()
        assert chain_state(built) == chain_state(plain)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 10).flatmap(
        lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3).map(lambda gs: (n, gs))
    ),
    st.integers(1, 64),
)
def test_vector_level_chains_equal_stored_chains(case, budget):
    degree, images = case
    gens = [Permutation(tuple(g)) for g in images]
    plain = PermGroup(degree, gens)
    with mock.patch.object(group_module, "LEVEL_BUDGET", budget):
        built = PermGroup(degree, gens)
        for g in plain.strong_generators:
            assert built.contains(g)
        assert built.strong_generators == plain.strong_generators
        assert chain_state(built) == chain_state(plain)
        if plain.order <= 5040:
            assert built.elements() == plain.elements()


def test_cyclic_classification_stores_few_level_tuples():
    from twoclosure.classify import classify_nilpotent

    for name in ("C1000", "C5000"):
        group = realize_name(name)
        verdict = classify_nilpotent(group)
        assert (verdict.status, verdict.reason) == ("TwoClosedGroup", "Cyclic")
        orbit = group._chain.levels[0].orbit
        n = group.degree
        assert isinstance(orbit, group_module._VectorOrbit) and len(orbit) == n
        # One generator label and no fork: no checkpoint, so level 0 holds the
        # base and the point the build's sifts asked for.
        stored = {q for q, inv in orbit.items() if inv is not None}
        assert 0 in stored and len(stored) <= 2
        asked = {n // 3, n // 2, n - 2}
        for q in asked:
            # The n-cycle acts regularly: u_q^-1 is the -q-th power of 0 -> 1 -> 2 ...
            assert orbit[q] == tuple((x - q) % n for x in range(n))
        assert {q for q, inv in orbit.items() if inv is not None} == stored | asked


def test_one_label_vector_level_stores_only_the_points_asked_for():
    import tracemalloc

    realize_name("C10")  # first-use work of the catalog stays outside the trace
    tracemalloc.start()
    try:
        group = realize_name("C5000")
        g = group.generators[0]
        asked = [1 + 263 * j for j in range(19)]
        assert all(group.contains(g**k) for k in asked)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Each walk on a one-label level is one power, so the level never
    # switches to storing all 5,000 tuples (about 200 MB).
    orbit = group._chain.levels[0].orbit
    assert {q for q, inv in orbit.items() if inv is not None} == {0, *asked}
    assert peak < 10_000_000


def involution_path(n):
    # <(0,1)(2,3)..., (1,2)(3,4)...>: level 0's tree is one path whose labels
    # alternate, so every run has length 1.
    return (from_cycles(n, [(i, i + 1) for i in range(0, n, 2)]), from_cycles(n, [(i, i + 1) for i in range(1, n - 1, 2)]))


def rotation_and_reflection(n):
    # <(0,1,...,n-1), x -> -x>: the rotation's two runs from the base have a
    # reflection edge leaving every point.
    return (from_cycles(n, [tuple(range(n))]), Permutation(tuple(-x % n for x in range(n))))


@pytest.mark.parametrize("n, make", [(600, involution_path), (512, rotation_and_reflection)])
def test_vector_level_keeps_checkpoints_off_bare_runs(n, make):
    from itertools import groupby

    gens = make(n)
    # Dihedral of order 2n; the known order ends the build before it asks
    # for level 0's points.
    orbit = PermGroup(n, gens, _order=2 * n)._chain.levels[0].orbit
    assert isinstance(orbit, group_module._VectorOrbit)
    with mock.patch.object(group_module, "LEVEL_BUDGET", n * n):
        explicit = PermGroup(n, gens, _order=2 * n)._chain.levels[0].orbit
    assert not isinstance(explicit, group_module._VectorOrbit) and list(explicit) == list(orbit)
    k = -(-n * n // group_module.LEVEL_BUDGET)
    depth = {0: 0}
    for q, (p, _) in orbit.tree.items():
        depth[q] = depth[p] + 1
    candidates = {q for q in orbit if depth[q] % k == 0}
    parents = {p for p, _ in orbit.tree.values()}
    stored = {q for q, inv in orbit.items() if inv is not None}
    # No run is bare, so every candidate but a leaf stays a checkpoint, and the
    # build's sifts asked for at most one more point.
    assert candidates & parents <= stored and len(stored - candidates) <= 1
    for q in orbit:
        labels = []
        while q not in stored:
            q, i = orbit.tree[q]
            labels.append(i)
        assert len(list(groupby(labels))) <= k + 1
    assert all(orbit[q] == inv for q, inv in explicit.items())


def test_traced_peak_of_a_1000_cycle_chain():
    import tracemalloc

    realize_name("C10")  # first-use work of the catalog stays outside the trace
    tracemalloc.start()
    try:
        realize_name("C1000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_chain_of_a_20000_cycle():
    n = 20000
    g = from_cycles(n, [tuple(range(n))])
    group = PermGroup(n, (g,))
    assert group.order == n
    assert group.contains(g**77)
    assert not group.contains(from_cycles(n, [(0, 1)]))

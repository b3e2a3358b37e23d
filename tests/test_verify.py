"""The suites' exact checks: the colour-preserving count against brute force,
the regular-orbit test against listed stabilizers, and engines with planted
faults that the suites must reject."""

import itertools
from collections import Counter

import pytest

from twoclosure import verify
from twoclosure.actions import disjoint_union_action
from twoclosure.catalog import faithful_representations, realize_name
from twoclosure.group import PermGroup
from twoclosure.orbital import orbital_partition, two_closure
from twoclosure.perm import Permutation
from twoclosure.verify import (
    NOT_TWO_CLOSED_FAMILIES,
    REPRESENTATION_DEGREE,
    TWO_CLOSED_FAMILIES,
    _colour_preserving_count,
    _has_regular_orbit,
    catalog_realizations,
    check_closure_axioms,
    check_quotient_lemmas,
    random_groups,
)


def brute_colour_preserving_count(partition) -> int:
    n, colors = partition.degree, partition.colors
    return sum(
        all(colors[p[a] * n + p[b]] == colors[a * n + b] for a in range(n) for b in range(n))
        for p in itertools.permutations(range(n))
    )


def test_colour_preserving_count_matches_brute_force():
    groups = random_groups(5, 200, 6) + [g for _, g in catalog_realizations(6)]
    for group in groups:
        partition = orbital_partition(group)
        count = _colour_preserving_count(partition)
        assert count == brute_colour_preserving_count(partition), group
        assert count == two_closure(group).order, group


def failed(results):
    return {r.name: r.detail for r in results if not r.passed}


def test_axioms_suite_passes_the_engine():
    assert failed(check_closure_axioms(seed=3, samples=40, max_degree=7)) == {}


def test_axioms_suite_rejects_an_engine_that_returns_its_input(monkeypatch):
    monkeypatch.setattr(verify, "two_closure", lambda group: group)
    failures = failed(check_closure_axioms(seed=3, samples=40, max_degree=7))
    assert "closure-maximality" in failures
    assert failures["closure-maximality"].endswith(": closure disagrees with definitional membership")


def test_axioms_suite_rejects_an_engine_wrong_on_conjugated_inputs(monkeypatch):
    # The suite's groups and their closures start with the population's own
    # generators; a conjugate G^x of a nontrivial group does not (for these
    # seeds), and there the engine returns the conjugate itself.
    population = random_groups(3, 40, 7) + [g for _, g in catalog_realizations(12)]
    own = {g.generators for g in population if g.generators}

    def engine(group):
        if any(group.generators[:len(gens)] == gens for gens in own):
            return two_closure(group)
        return group

    monkeypatch.setattr(verify, "two_closure", engine)
    failures = failed(check_closure_axioms(seed=3, samples=40, max_degree=7))
    assert set(failures) == {"conjugation-equivariance"}
    assert failures["conjugation-equivariance"].endswith(": conjugation equivariance failed")


def test_axioms_suite_rejects_an_engine_that_moves_conjugate_closures(monkeypatch):
    # On a conjugate G^x the engine answers closure(G^x) conjugated by a
    # transposition outside its normalizer: the right order on the wrong
    # points, so only the conjugated generators can expose it.
    population = random_groups(3, 40, 7) + [g for _, g in catalog_realizations(12)]
    own = {g.generators for g in population if g.generators}

    def engine(group):
        closure = two_closure(group)
        if any(group.generators[:len(gens)] == gens for gens in own):
            return closure
        for a, b in itertools.combinations(range(group.degree), 2):
            images = list(range(group.degree))
            images[a], images[b] = b, a
            t = Permutation(tuple(images))
            if not all(closure.contains(s.conjugated_by(t)) for s in closure.generators):
                return closure.conjugated_by(t)
        return closure

    monkeypatch.setattr(verify, "two_closure", engine)
    failures = failed(check_closure_axioms(seed=3, samples=40, max_degree=7))
    assert set(failures) == {"conjugation-equivariance"}
    assert failures["conjugation-equivariance"].endswith(": conjugation equivariance failed")


@pytest.mark.parametrize("seed, reused", [(1, 651), (2, 633), (3, 651)])
def test_axioms_suite_closes_a_normalized_conjugate_over_the_groups_chain(monkeypatch, seed, reused):
    # Each population group G reaches the engine, then its closure, then
    # five conjugates G^x. When x normalizes G, G^x = G is closed over G's
    # own chain; the search must find the same generators and order as over
    # the chain that G^x's generators build.
    inputs = []

    def recording(group):
        inputs.append(group)
        return two_closure(group)

    monkeypatch.setattr(verify, "two_closure", recording)
    assert failed(check_closure_axioms(seed=seed)) == {}
    population = len(random_groups(seed, 200, 7) + catalog_realizations(12))
    chains, over_own_chain = set(), []
    for group in inputs:
        if id(group._chain) in chains:
            over_own_chain.append(group)
        chains.add(id(group._chain))
    # On seed 1, 651 of the 1,115 conjugates reuse G's chain.
    assert (len(inputs) - 2 * population, len(over_own_chain)) == (5 * population, reused)
    for group in over_own_chain:
        built = PermGroup(group.degree, group.generators, _order=group.order)
        assert built.same_group(group)
        closure, built_closure = two_closure(group), two_closure(built)
        assert (closure.order, closure.generators) == (built_closure.order, built_closure.generators)


def test_axioms_suite_counts_each_colour_table_once(monkeypatch):
    counted = []

    def recording(partition):
        counted.append((partition, _colour_preserving_count(partition)))
        return counted[-1][1]

    monkeypatch.setattr(verify, "_colour_preserving_count", recording)
    assert failed(check_closure_axioms(seed=1)) == {}
    population = random_groups(1, 200, 7) + [g for _, g in catalog_realizations(12)]
    small = [g for g in population if g.degree <= 6]
    tables = {orbital_partition(g).colors for g in small}
    # 160 groups of degree <= 6 share 59 colour tables.
    assert (len(small), len(tables)) == (160, 59)
    assert sorted(p.colors for p, _ in counted) == sorted(tables)
    for partition, result in counted:
        assert result == brute_colour_preserving_count(partition)


def test_classification_suite_does_each_catalog_computation_once(monkeypatch):
    realized, calls = Counter(), Counter()
    realize_name = verify.realize_name
    monkeypatch.setattr(verify, "realize_name", lambda name: realized.update([name]) or realize_name(name))
    for name in ("classify_nilpotent", "two_closure", "center_cyclic_test", "faithful_representations"):
        monkeypatch.setattr(
            verify, name, lambda *args, _n=name, _f=getattr(verify, name): calls.update([_n]) or _f(*args)
        )
    assert failed(verify.suite_classification()) == {}
    families = TWO_CLOSED_FAMILIES + NOT_TWO_CLOSED_FAMILIES
    assert set(families) <= set(realized) and max(realized.values()) == 1
    assert calls["classify_nilpotent"] == len(families) == 48
    # One closure per sampled representation (81), and Q8xC3's direct one.
    assert calls["two_closure"] == 82
    # The 37 positive families, Q8xC2 and C2xQ8xC3.
    assert calls["center_cyclic_test"] == 39
    assert calls["faithful_representations"] == len(TWO_CLOSED_FAMILIES) == 37


def test_catalog_realizations_build_only_the_families_they_return(monkeypatch):
    realized = []
    realize_name = verify.realize_name
    monkeypatch.setattr(verify, "realize_name", lambda name: realized.append(name) or realize_name(name))
    population = catalog_realizations(12)
    assert realized == [name for name, _ in population]
    assert all(group.degree <= 12 for _, group in population)
    assert len(population) == 23


def test_regular_orbit_test_agrees_with_trivial_point_stabilizers():
    for name in TWO_CLOSED_FAMILIES + NOT_TWO_CLOSED_FAMILIES:
        for entry in faithful_representations(realize_name(name), REPRESENTATION_DEGREE):
            action = entry.action
            listed = any(action.point_stabilizer(p).order == 1 for p in range(action.degree))
            assert _has_regular_orbit(action) == listed, name
    # C2 x C2 on 2 + 2 points: every point stabilizer has order 2.
    c2 = realize_name("C2")
    assert not _has_regular_orbit(disjoint_union_action([c2, c2]))


def test_lemmas_suite_rejects_a_factor_closure_on_the_wrong_points(monkeypatch):
    # For the abelian factor only, the engine answers its closure conjugated by
    # a transposition that moves a block: the right order on the wrong points.
    # The factor is the call right after its own group's closure.
    previous = []

    def engine(group):
        closure = two_closure(group)
        factor = bool(previous) and previous[-1].order > group.order and group.is_subgroup_of(previous[-1])
        previous.append(group)
        if not factor:
            return closure
        block = next(orbit for orbit in group.orbits() if len(orbit) > 1)
        other = next(p for p in range(group.degree) if p not in block)
        images = list(range(group.degree))
        images[block[0]], images[other] = other, block[0]
        return closure.conjugated_by(Permutation(tuple(images)))

    assert failed(check_quotient_lemmas()) == {}
    monkeypatch.setattr(verify, "two_closure", engine)
    failures = failed(check_quotient_lemmas())
    assert set(failures) == {"block-kernel-claims"}
    assert "closure block kernel differs from the factor closure" in failures["block-kernel-claims"]

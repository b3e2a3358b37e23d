import random
from functools import reduce
from operator import and_

import pytest

from helpers import brute_subgroups, closure_from_identity, conjugate_masks, simultaneous_conjugacy_sample
from twoclosure import actions, catalog
from twoclosure import group as group_module
from twoclosure.catalog import (
    FAMILY_EXAMPLES,
    faithful_representations,
    parse_family,
    realize,
    realize_name,
    subgroup_lattice,
)
from twoclosure.errors import GuardExceeded, InternalDefect, PreconditionError
from twoclosure.group import (
    PermGroup,
    as_subgroup,
    center,
    core,
    is_cyclic,
    is_normal,
)
from twoclosure.perm import Permutation, parse_cycles
from twoclosure.verify import NOT_TWO_CLOSED_FAMILIES, REPRESENTATION_DEGREE, TWO_CLOSED_FAMILIES


def test_parse_family_syntax():
    assert parse_family("Q16xC3").name == "Q16xC3"
    assert parse_family("C2xC2").order == 4
    assert parse_family("E27").order == 27
    assert parse_family("C2xQ8xC3").order == 48
    for bad, message in (
        ("C0", "cyclic order must be positive"),
        ("D4", "dihedral order must be an even number >= 6"),
        ("SD8", "semidihedral order must be a power of two >= 16"),
        ("Q6", "generalized quaternion order must be a power of two >= 8"),
        ("E16", "extraspecial orders must be p^3 for an odd prime p"),
        ("Z5", "unrecognized family token 'Z5'"),
        ("", "unrecognized family token ''"),
        ("C2xD4", "dihedral order must be an even number >= 6"),
    ):
        with pytest.raises(PreconditionError) as info:
            parse_family(bad)
        assert str(info.value) == message, bad
    # E<p^3> parses for any cube; p is tested prime when it is realized.
    for p in (2, 1, 9, 15):
        spec = parse_family(f"E{p**3}")
        with pytest.raises(PreconditionError) as info:
            realize(spec)
        assert str(info.value) == "extraspecial parameter must be an odd prime", p


def test_realize_examples():
    q8 = realize_name("Q8")
    assert q8.order == 8
    assert sum(1 for g in q8.elements() if g.order() == 2) == 1
    e27 = realize_name("E27")
    assert e27.order == 27
    assert all(g.order() in (1, 3) for g in e27.elements())
    assert center(e27).order == 3
    assert realize_name("C6").degree == 6 and is_cyclic(realize_name("C6"))


def oracle_order(degree, gens):
    """Order of the group the generators make, by sympy where it imports and
    by brute-force closure otherwise; neither reads a known order."""
    try:
        from sympy.combinatorics import Permutation as SympyPermutation, PermutationGroup
    except ImportError:
        from helpers import mulclose

        return len(mulclose(degree, gens))
    return PermutationGroup([SympyPermutation(list(g.images)) for g in gens]).order()


@pytest.mark.parametrize(
    "name",
    ["C2", "C12", "C97", "C256", "D6", "D10", "D64", "D200", "SD16", "SD64", "SD128",
     "Q8", "Q32", "Q128", "E27", "E125", "E343"],
)
def test_atom_realizations_have_their_family_order(name):
    # An atom's chain stops at its family's order, so only an independent
    # count shows a construction that generates a larger group.
    group = realize_name(name)
    assert oracle_order(group.degree, group.generators) == group.order == parse_family(name).order


def test_family_degree_is_known_before_realizing():
    for name in FAMILY_EXAMPLES + ("D12", "E125", "SD32xC5", "C1"):
        spec = parse_family(name)
        assert spec.degree == realize(spec).degree, name


# verify's 48 families, the six of the chain golden, and large, deep or
# degenerate ones.
REALIZED_FAMILIES = TWO_CLOSED_FAMILIES + NOT_TWO_CLOSED_FAMILIES + [
    "D64", "E125", "D32xC3", "Q8xC4", "SD32", "C1000",
    "D1024xC3", "Q32xQ16xC2", "E2197", "D10000", "Q4096", "C5000", "C1xC2",
    "C2xQ8xC3", "D6", "SD128", "E343", "Q128", "D200",
]


def reference_realization(spec):
    """The construction `realize` replaced: each atom its own group with its
    known order, and a product the atoms joined by `disjoint_union_action`."""
    atoms = [PermGroup(atom.degree, realize(atom).generators, _order=atom.order) for atom in spec.parts or (spec,)]
    return atoms[0] if len(atoms) == 1 else actions.disjoint_union_action(atoms)


def test_realizations_match_the_disjoint_union_reference():
    assert len(set(REALIZED_FAMILIES)) == 67
    for name in REALIZED_FAMILIES:
        spec = parse_family(name)
        group, reference = realize(spec), reference_realization(spec)
        assert chain_state(group) == chain_state(reference), name
        assert group.strong_generators == reference.strong_generators, name


def test_each_realization_builds_one_chain(monkeypatch):
    built = []
    init = group_module._Chain.__init__
    monkeypatch.setattr(
        group_module._Chain, "__init__", lambda self, *args, **kwargs: built.append(args) or init(self, *args, **kwargs)
    )
    for name in ("C1", "Q8", "E27", "C1xC2", "D32xC3", "C2xQ8xC3", "Q32xQ16xC2"):
        built.clear()
        realize_name(name)
        assert len(built) == 1, name


def test_a_realization_off_its_table_degree_is_a_defect(monkeypatch):
    kinds = dict(catalog._KINDS)
    kinds["C"] = kinds["C"]._replace(degree=lambda n: n + 1)
    monkeypatch.setattr(catalog, "_KINDS", kinds)
    with pytest.raises(InternalDefect) as info:
        realize_name("Q8xC3")
    assert str(info.value) == "realized C3 in Q8xC3 with degree 3, expected 4"


def test_realize_noncyclic_abelian_product():
    group = realize_name("C2xC4")
    assert group.order == 8 and group.is_abelian() and not is_cyclic(group)


def test_order_profiles_distinguish_order_8_groups():
    profiles = {
        name: tuple(sorted(g.order() for g in realize_name(name).elements()))
        for name in ("Q8", "C8", "D8", "C2xC4")
    }
    assert len(set(profiles.values())) == 4


def test_direct_product_orders_and_faithfulness():
    for name, order in (("Q8xC2", 16), ("Q16xC9", 144), ("Q8xC3xC3", 72)):
        group = realize_name(name)
        assert group.order == order


def test_subgroup_lattice_counts():
    assert len(subgroup_lattice(realize_name("Q8"))) == 6
    assert all(h.normal for h in subgroup_lattice(realize_name("Q8")))
    assert len(subgroup_lattice(realize_name("C6"))) == 4
    d8_handles = subgroup_lattice(realize_name("D8"))
    assert len(d8_handles) == 10
    four_groups = [
        h for h in d8_handles if h.group.order == 4 and not is_cyclic(h.group)
    ]
    assert len(four_groups) == 2 and all(h.normal for h in four_groups)


def _lattice_test_groups():
    """Soluble groups, not all nilpotent: named ones, A4 and S4 built from
    cycles, then 30 seeded random groups of order 6 to 59 (every group of
    order below 60 is soluble).  Each random generator permutes each block
    of a random partition of 3 to 8 points, so the groups include direct
    and subdirect products such as S3 x S3 and C2 x S4."""
    groups = [realize_name(name) for name in ("Q8", "C6", "D8", "C2xC2", "C12", "D6", "D12")]
    groups.append(PermGroup(4, [parse_cycles("(1,2,3)", 4), parse_cycles("(1,2)(3,4)", 4)]))  # A4
    groups.append(PermGroup(4, [parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,2)", 4)]))  # S4
    rng = random.Random(38)
    while len(groups) < 39:
        blocks = rng.choice([(3,), (4,), (5,), (6,), (2, 3), (2, 4), (3, 3), (3, 4), (2, 2, 3), (2, 2, 4), (4, 4)])
        gens = []
        for _ in range(rng.randint(1, 3)):
            images, offset = [], 0
            for size in blocks:
                images += [offset + i for i in rng.sample(range(size), size)]
                offset += size
            gens.append(Permutation(tuple(images)))
        group = PermGroup(sum(blocks), gens)
        if 6 <= group.order < 60:
            groups.append(group)
    return groups


def test_subgroup_lattice_matches_brute_force():
    for group in _lattice_test_groups():
        lattice = {frozenset(h.group.elements()) for h in subgroup_lattice(group)}
        assert lattice == brute_subgroups(group), group


def test_subgroup_lattice_refuses_non_soluble_groups():
    a5 = PermGroup(5, [parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(1,2,3)", 5)])
    s5 = PermGroup(5, [parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(1,2)", 5)])
    for group in (a5, s5):
        with pytest.raises(PreconditionError, match="soluble"):
            subgroup_lattice(group)


def _divisor_count_and_sum(n):
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return len(divisors), sum(divisors)


def _gaussian_binomial_2(k, j):
    numerator = denominator = 1
    for i in range(j):
        numerator *= 2 ** (k - i) - 1
        denominator *= 2 ** (i + 1) - 1
    return numerator // denominator


def test_subgroup_lattice_counts_match_closed_formulas():
    # D_2n has tau(n) + sigma(n) subgroups: one cyclic <r^(n/d)> and n/d
    # dihedral ones per divisor d of n.  C2^k has sum_j [k, j]_2 subgroups,
    # one per subspace of F_2^k.  C_n has tau(n), one per divisor.  D256 is
    # the element index guard's top order.
    for n, expected in ((8, 19), (12, 34), (32, 69), (64, 134), (128, 263)):
        tau, sigma = _divisor_count_and_sum(n)
        assert tau + sigma == expected
        assert len(subgroup_lattice(realize_name(f"D{2 * n}"))) == expected
    for k, expected in ((3, 16), (4, 67), (5, 374)):
        assert sum(_gaussian_binomial_2(k, j) for j in range(k + 1)) == expected
        assert len(subgroup_lattice(realize_name("x".join(["C2"] * k)))) == expected
    for n in (1, 7, 12, 60, 64, 210, 256):
        assert len(subgroup_lattice(realize_name(f"C{n}"))) == _divisor_count_and_sum(n)[0]


def test_lattice_handles_are_subgroups_with_brute_force_normality_and_core():
    for name in ("D16", "Q16", "E27", "D8xC3", "D64", "E125"):
        group = realize_name(name)
        elements = group.elements()
        table = group._element_index()
        lattice = subgroup_lattice(group)
        seen = set()
        for handle in lattice:
            members = set(handle.group.elements())
            assert members == set(table.elements_of(handle.mask)), name
            assert all(x * y in members for x in members for y in members), name
            assert all(group.contains(x) for x in members), name
            conjugates = [{x.conjugated_by(g) for x in members} for g in elements]
            brute_core = set.intersection(*conjugates)
            core_elements = set(table.elements_of(handle.core_mask))
            assert handle.normal == all(c == members for c in conjugates), name
            assert core_elements == brute_core, name
            assert handle.normal == is_normal(group, handle.group), name
            assert core_elements == set(core(group, handle.group).elements()), name
            seen.add(frozenset(members))
        assert len(seen) == len(lattice), name


@pytest.mark.parametrize("name", ["D64", "D128", "C2xC2xC2xC2xC2", "E125"])
def test_coset_joins_match_closure_from_identity(name):
    group = realize_name(name)
    table = group._element_index()
    for handle in subgroup_lattice(group):
        gens = tuple(table.position[g.images] for g in handle.group.strong_generators)
        assert closure_from_identity(table, gens) == handle.mask


def test_subgroup_lattice_guard():
    message = r"^group order 288 exceeds the element index guard \(256\)$"
    with pytest.raises(GuardExceeded, match=message):
        subgroup_lattice(realize_name("Q32xC9"))


def test_lattice_handles_carry_cores():
    d8 = realize_name("D8")
    lattice = subgroup_lattice(d8)
    for handle in lattice:
        assert handle.mask is not None and handle.core_mask is not None
        assert handle.core_mask & handle.mask == handle.core_mask
        assert handle.normal is (handle.core_mask == handle.mask)
    # 1, the center, the rotations, two Klein four-groups and D8 itself.
    assert sum(handle.normal for handle in lattice) == 6
    # Validating a subgroup returns the subgroup itself.
    g = lattice[1].group
    assert as_subgroup(d8, g) is g


def test_subgroup_lattice_builds_no_group(monkeypatch):
    group = realize_name("Q16xC3")
    group._element_index()  # the parent's index, built beforehand
    built = []
    init = PermGroup.__init__
    monkeypatch.setattr(PermGroup, "__init__", lambda self, *args, **kwargs: built.append(args) or init(self, *args, **kwargs))
    lattice = subgroup_lattice(group)
    assert built == []
    assert lattice[-1].group.order == group.order and len(built) == 1


def chain_state(group):
    chain = group._chain
    return (
        group.order,
        [g.images for g in group.generators],
        [g.images for g in chain.strong_generators()],
        [list(level.orbit) for level in chain.levels],
    )


@pytest.mark.parametrize("name", ["D16", "Q16", "E27", "D8xC3", "Q16xC9"])
def test_lazy_handle_groups_match_the_eager_build(name):
    group = realize_name(name)
    table = group._element_index()
    for handle in subgroup_lattice(group):
        eager = PermGroup(group.degree, table.elements_of(handle.mask), _order=handle.mask.bit_count())
        assert chain_state(handle.group) == chain_state(eager), name
        assert handle.group is handle.group


@pytest.mark.parametrize("name", ["D16", "Q16", "E27", "D8xC3", "Q16xC9", "C2xC2xC2xC2"])
def test_cores_are_the_and_of_all_conjugates(name):
    group = realize_name(name)
    table = group._element_index()
    lattice = subgroup_lattice(group)
    brute_class = {}
    for handle in lattice:
        conjugates = conjugate_masks(group, handle.mask)
        assert handle.core_mask == reduce(and_, conjugates), name
        brute_class[handle.mask] = frozenset(conjugates)
        # `core`'s element fixpoint lists the same elements as the core mask.
        assert core(group, handle.group).elements() == table.elements_of(handle.core_mask), name
    for a in lattice:
        assert a.class_key == min(brute_class[a.mask]), name
        for b in lattice:
            assert (a.class_key == b.class_key) == (b.mask in brute_class[a.mask]), name


def test_lattice_masks_and_cores_take_no_permutation_products(monkeypatch):
    group = realize_name("D64")
    group._element_index()  # the parent's index, built beforehand
    calls = []
    for name in ("__mul__", "inverse", "conjugated_by"):
        original = getattr(Permutation, name)
        monkeypatch.setattr(
            Permutation, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args)
        )
    lattice = subgroup_lattice(group)
    assert calls == []
    # The 6 rotation subgroups, the two dihedral halves and the whole group.
    assert sum(handle.normal for handle in lattice) == 9


def test_faithful_representations_q8():
    entries = faithful_representations(realize_name("Q8"), 8)
    assert len(entries) == 1
    entry = entries[0]
    assert entry.degree == 8 and entry.subgroups[0].order == 1


def test_faithful_representations_v4_includes_degree_6():
    entries = faithful_representations(realize_name("C2xC2"), 8)
    assert all(e.action.order == 4 for e in entries)
    assert any(e.degree == 6 for e in entries)
    assert any(e.degree == 4 and len(e.subgroups) == 1 for e in entries)


def test_faithful_representations_trivial_group():
    entries = faithful_representations(PermGroup(1, ()), 8)
    assert [e.degree for e in entries] == [1]


def test_representations_are_faithful_and_bounded():
    for name in ("C12", "D8", "Q8xC3"):
        group = realize_name(name)
        for entry in faithful_representations(group, 14):
            assert entry.action.order == group.order
            assert entry.degree <= 14


REFERENCE_SAMPLES = [
    (name, REPRESENTATION_DEGREE)
    for name in TWO_CLOSED_FAMILIES + NOT_TWO_CLOSED_FAMILIES
    if parse_family(name).order <= 64
] + [("D8", 24), ("D16", 24), ("Q8xC3", 24)]


def class_multisets(group, subgroup_masks):
    """Each entry's subgroup classes, as the sorted least brute conjugates of its masks."""
    least = {}
    for masks in subgroup_masks:
        for mask in masks:
            if mask not in least:
                least[mask] = min(conjugate_masks(group, mask))
    return [tuple(sorted(least[mask] for mask in masks)) for masks in subgroup_masks]


def entry_masks(group, entries):
    position = {g: i for i, g in enumerate(group.elements())}
    return [tuple(sum(1 << position[g] for g in s.elements()) for s in e.subgroups) for e in entries]


@pytest.mark.parametrize("name, max_degree", REFERENCE_SAMPLES)
def test_sampler_takes_each_class_multiset_once(name, max_degree):
    group = realize_name(name)
    entries = faithful_representations(group, max_degree)
    sampled = class_multisets(group, entry_masks(group, entries))
    reference = class_multisets(group, simultaneous_conjugacy_sample(group, max_degree))
    assert len(sampled) == len(set(sampled)), name
    assert set(sampled) == set(reference), name
    points = list(range(group.degree))
    random.Random(1).shuffle(points)
    x = Permutation(tuple(points))
    relabelled = PermGroup(group.degree, [g.conjugated_by(x) for g in group.generators], _order=group.order)
    assert len(faithful_representations(relabelled, max_degree)) == len(entries), name


def test_sampler_drops_permutation_isomorphic_pairs():
    # Simultaneous conjugacy kept pairs (H, K) and (H, K') with K' conjugate
    # to K but not under H's normalizer, whose actions are isomorphic.
    for name, kept, distinct in (("D8", 23, 21), ("D16", 26, 19)):
        group = realize_name(name)
        pairs = [masks for masks in simultaneous_conjugacy_sample(group, 16) if len(masks) == 2]
        assert len(pairs) == kept and len(set(class_multisets(group, pairs))) == distinct, name
        entries = faithful_representations(group, 16)
        assert sum(len(e.subgroups) == 2 for e in entries) == distinct, name


def test_representation_sampler_reads_kernels_from_lattice_cores(monkeypatch):
    # The sampler reads faithfulness from lattice core masks, so the element
    # fixpoint `core` never runs; every coset action's kernel is the core.
    def no_core(*args):
        raise AssertionError("the sampler computed a core")

    passed = []

    def recording(group, subgroup):
        passed.append((group, subgroup, coset_action(group, subgroup)))
        return passed[-1][2]

    coset_action = catalog.coset_action
    for module in (group_module, actions, catalog):
        monkeypatch.setattr(module, "core", no_core, raising=False)
    monkeypatch.setattr(catalog, "coset_action", recording)
    for name in TWO_CLOSED_FAMILIES + NOT_TWO_CLOSED_FAMILIES:
        faithful_representations(realize_name(name), REPRESENTATION_DEGREE)
    monkeypatch.undo()
    assert len(passed) == 168
    for group, subgroup, action in passed:
        kernel = core(group, subgroup)
        assert action.image.order * kernel.order == group.order
        assert all(action.embed(k).is_identity() for k in kernel.elements())

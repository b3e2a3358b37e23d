import pytest

from twoclosure.catalog import (
    abelian,
    extraspecial_exponent_p,
    faithful_representations,
    family_syntax_examples,
    parse_family,
    realize,
    realize_name,
    subgroup_lattice,
)
from twoclosure.errors import GuardExceeded, PreconditionError
from twoclosure.group import (
    PermGroup,
    as_subgroup,
    center,
    core,
    is_cyclic,
    is_normal,
    mask_indices,
)
from twoclosure.perm import Permutation


def test_parse_family_syntax():
    assert parse_family("Q16xC3").name == "Q16xC3"
    assert parse_family("C2xC2").order == 4
    assert parse_family("E27").order == 27
    assert parse_family("C2xQ8xC3").order == 48
    for bad in ("Z5", "Q6", "D4", "SD8", "E16", ""):
        with pytest.raises(PreconditionError):
            parse_family(bad)
    for p in (2, 1, 9, 15):
        with pytest.raises(PreconditionError, match="must be an odd prime"):
            extraspecial_exponent_p(p)


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
    for name in family_syntax_examples() + ["D12", "E125", "SD32xC5", "C1"]:
        spec = parse_family(name)
        assert spec.degree == realize(spec).degree, name


def test_realize_abelian_helper():
    group = realize(abelian(2, (1, 2)))
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


def test_subgroup_lattice_matches_brute_force():
    # every subgroup of these groups is generated by at most 3 elements,
    # so closing all small generator combinations enumerates them all
    import itertools

    from helpers import mulclose

    for name in ("Q8", "C6", "D8", "C2xC2", "C12"):
        group = realize_name(name)
        elements = group.elements()
        brute = set()
        for r in range(4):
            for combo in itertools.combinations(elements, r):
                brute.add(frozenset(mulclose(group.degree, combo)))
        lattice = {frozenset(h.group.elements()) for h in subgroup_lattice(group)}
        assert lattice == brute


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
    # one per subspace of F_2^k.
    for n, expected in ((8, 19), (12, 34), (32, 69)):
        tau, sigma = _divisor_count_and_sum(n)
        assert tau + sigma == expected
        assert len(subgroup_lattice(realize_name(f"D{2 * n}"))) == expected
    for k, expected in ((3, 16), (4, 67)):
        assert sum(_gaussian_binomial_2(k, j) for j in range(k + 1)) == expected
        assert len(subgroup_lattice(realize(abelian(2, (1,) * k)))) == expected


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


def closure_from_identity(table, gens):
    """Mask of the subgroup generated by element indices: breadth-first from
    the identity under the generators' columns."""
    mask, frontier = 1, [0]
    while frontier:
        fresh = []
        for y in frontier:
            for g in gens:
                z = table.cols[g][y]
                if not mask >> z & 1:
                    mask |= 1 << z
                    fresh.append(z)
        frontier = fresh
    return mask


@pytest.mark.parametrize("name", ["D64", "D128", "C2xC2xC2xC2xC2", "E125"])
def test_coset_joins_match_closure_from_identity(name):
    group = realize_name(name)
    table = group._element_index()
    for handle in subgroup_lattice(group):
        gens = tuple(table.position[g.images] for g in handle.group.strong_generators)
        members = mask_indices(handle.mask)
        assert closure_from_identity(table, gens) == handle.mask
        for x in range(0, group.order, 5):
            assert table.extend(handle.mask, members, gens, x) == closure_from_identity(table, gens + (x,))


def test_subgroup_lattice_guard():
    with pytest.raises(GuardExceeded):
        subgroup_lattice(realize_name("Q32xC9"))  # order 288 > 256


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
def test_fixpoint_cores_are_the_and_of_all_conjugates(name):
    group = realize_name(name)
    table = group._element_index()
    for handle in subgroup_lattice(group):
        and_of_conjugates = handle.mask
        for conjugate in table.conjugates(handle.mask):
            and_of_conjugates &= conjugate
        assert handle.core_mask == and_of_conjugates, name
        # `core`'s element fixpoint lists the same elements as the core mask.
        assert core(group, handle.group).elements() == table.elements_of(handle.core_mask), name


def test_lattice_masks_and_cores_take_no_permutation_products(monkeypatch):
    group = realize_name("D64")
    group._element_index().conjugations()  # the shared table, built beforehand
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
    sample = faithful_representations(realize_name("Q8"), 8)
    assert len(sample.entries) == 1
    entry = sample.entries[0]
    assert entry.degree == 8 and entry.subgroups[0].order == 1


def test_faithful_representations_v4_includes_degree_6():
    sample = faithful_representations(realize_name("C2xC2"), 8)
    assert all(e.action.order == 4 for e in sample.entries)
    assert any(e.degree == 6 for e in sample.entries)
    assert any(e.degree == 4 and len(e.subgroups) == 1 for e in sample.entries)


def test_faithful_representations_trivial_group():
    sample = faithful_representations(PermGroup(1, ()), 8)
    assert [e.degree for e in sample.entries] == [1]


def test_representations_are_faithful_and_bounded():
    for name in ("C12", "D8", "Q8xC3"):
        group = realize_name(name)
        sample = faithful_representations(group, 14)
        for entry in sample.entries:
            assert entry.action.order == group.order
            assert entry.degree <= 14

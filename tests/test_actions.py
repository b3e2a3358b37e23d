import re

import pytest

from helpers import brute_coset_numbering, on_block, shifted
from twoclosure import actions, witnesses
from twoclosure.actions import (
    action_hom,
    coprime_direct_factors,
    coset_action,
    disjoint_union_action,
    quotient_action,
    universal_embedding,
)
from twoclosure.catalog import realize_name, subgroup_lattice
from twoclosure.classify import certify_coprime_product, split_pair
from twoclosure.errors import GuardExceeded, PreconditionError
from twoclosure.group import ENUMERATION_GUARD, PermGroup, center, core, sylow_decomposition
from twoclosure.verify import catalog_realizations
from twoclosure.perm import identity, parse_cycles

from helpers import mulclose


def d8():
    return PermGroup(4, (parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,3)", 4)))


def test_coset_action_examples():
    group = d8()
    reflection = PermGroup(4, (parse_cycles("(1,3)", 4),))
    ca = coset_action(group, reflection)
    assert ca.image.degree == 4
    assert ca.image.order == 8  # faithful: the kernel has order |G|/|image| = 1

    q8 = realize_name("Q8")
    minus_one = next(g for g in q8.elements() if g.order() == 2)
    ca = coset_action(q8, PermGroup(8, (minus_one,)))
    assert ca.image.degree == 4
    assert ca.image.order == 4  # the kernel <-1> has order 8/4 = 2
    assert ca.embed(minus_one).is_identity()

    regular = coset_action(group, PermGroup(4, ()))
    assert regular.image.degree == 8 and regular.image.order == 8


def test_coset_action_kernel_is_the_core():
    # The kernel is never built; |image| * |core| = |G| and the core acting
    # trivially make the core the whole kernel.
    for name, group in catalog_realizations(32):
        if group.order > 64:
            continue
        for handle in subgroup_lattice(group):
            ca = coset_action(group, handle.group)
            kernel = core(group, handle.group)
            assert ca.image.degree * handle.group.order == group.order, name
            assert ca.image.order * kernel.order == group.order, name
            assert all(ca.embed(k).is_identity() for k in kernel.elements()), name


def test_coset_action_degree_times_subgroup_order(monkeypatch):
    # The kernel is read from orders: no `core` call and no comparison of two groups.
    calls = {"core": 0, "same_group": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(actions, "core", counted("core", core), raising=False)
    monkeypatch.setattr(PermGroup, "same_group", counted("same_group", PermGroup.same_group))
    for name in ("D8", "Q8", "C6", "SD16"):
        group = realize_name(name)
        for handle in subgroup_lattice(group):
            calls.update(core=0, same_group=0)
            ca = coset_action(group, handle.group)
            assert calls == {"core": 0, "same_group": 0}, name
            assert ca.image.degree * handle.group.order == group.order
            assert ca.image.order * core(group, handle.group).order == group.order


def test_coset_action_numbers_cosets_by_sorted_least_elements():
    inputs = [
        (group, handle.group)
        for group in map(realize_name, ("Q8xC3", "D16", "SD16", "C12", "E27"))
        for handle in subgroup_lattice(group)
        if group.order // handle.group.order <= 16
    ]
    inputs += [(group, split_pair(group)[1]) for group in map(realize_name, ("D32", "SD64"))]
    for group, subgroup in inputs:
        representatives, point_of = brute_coset_numbering(group, subgroup)
        ca = coset_action(group, subgroup)
        assert list(ca.representatives) == representatives
        assert ca.point_of_element == point_of


def test_coset_action_rejects_non_subgroup():
    with pytest.raises(PreconditionError):
        coset_action(d8(), PermGroup(4, (parse_cycles("(1,2)", 4),)))


def test_disjoint_union_examples():
    c2, c3 = realize_name("C2"), realize_name("C3")
    union = disjoint_union_action([c2, c3])
    assert union.order == 6 and union.degree == 5
    union = disjoint_union_action([realize_name("Q8"), c3])
    assert union.order == 24 and union.degree == 11
    single = disjoint_union_action([c3])
    assert single.same_group(c3)
    with pytest.raises(PreconditionError):
        disjoint_union_action([])


def test_disjoint_union_embed_moves_only_its_part():
    parts = [realize_name("C2"), realize_name("Q8"), realize_name("C3")]
    union = disjoint_union_action(parts)
    degree = union.degree
    start = first = 0
    for part in parts:
        # Part k's generators, on its own block, follow those of the parts before it.
        own_generators = union.generators[first:first + len(part.generators)]
        assert own_generators == tuple(shifted(g, start, degree) for g in part.generators)
        embedded = PermGroup(degree, own_generators)
        own = range(start, start + part.degree)
        lifted = embedded.elements()
        assert set(lifted) == {shifted(g, start, degree) for g in part.elements()} and embedded.order == part.order
        for h in lifted:
            assert union.contains(h)
            assert all(h.images[p] == p for p in range(degree) if p not in own)
        start += part.degree
        first += len(part.generators)
    assert first == len(union.generators)


def test_disjoint_union_builds_one_chain(monkeypatch):
    parts = [realize_name("Q8"), realize_name("C3")]
    builds = []
    init = PermGroup.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "__init__", counted)
    union = disjoint_union_action(parts)
    assert len(builds) == 1 and union.order == 24


def test_coprime_direct_factors_rejects_non_coprime():
    v4 = realize_name("C2xC2")
    parts = sylow_decomposition(v4)[2]
    with pytest.raises(PreconditionError):
        coprime_direct_factors(v4, parts, parts)


def test_coprime_direct_factors_refuses_factors_that_are_no_direct_product():
    c6 = PermGroup(6, (parse_cycles("(1,2,3,4,5,6)", 6),))
    involution = PermGroup(6, (parse_cycles("(1,4)(2,5)(3,6)", 6),))
    with pytest.raises(PreconditionError, match="^the factor orders do not multiply to the group order$"):
        coprime_direct_factors(c6, involution, PermGroup(6, ()))
    transposition = PermGroup(3, (parse_cycles("(1,2)", 3),))
    rotation = PermGroup(3, (parse_cycles("(1,2,3)", 3),))
    s3 = PermGroup(3, transposition.generators + rotation.generators)
    with pytest.raises(PreconditionError, match="^the factors do not commute elementwise$"):
        coprime_direct_factors(s3, transposition, rotation)


def test_quotient_action_examples():
    # The block kernel has order |G|/|image|; here it is the normal subgroup.
    c6 = PermGroup(6, (parse_cycles("(1,2,3,4,5,6)", 6),))
    c3_part = PermGroup(6, (parse_cycles("(1,3,5)(2,4,6)", 6),))
    qa = quotient_action(c6, c3_part)
    assert len(qa.blocks) == 2 and qa.image.order == 2
    assert all(qa.embed(k).is_identity() for k in c3_part.elements())

    trivial = quotient_action(c6, PermGroup(6, ()))
    assert len(trivial.blocks) == 6 and trivial.image.order == c6.order

    q8c3 = realize_name("Q8xC3")
    c3 = sylow_decomposition(q8c3)[3]
    qa = quotient_action(q8c3, c3)
    assert len(qa.blocks) == 9
    assert qa.image.order * c3.order == q8c3.order
    assert all(qa.embed(k).is_identity() for k in c3.elements())
    assert qa.image.order == 8  # faithful image of the quotient


def test_quotient_action_lists_no_element_above_the_enumeration_guard(monkeypatch):
    # C11 x Sym(8) on 11 + 8 points, of order 443,520.
    sym8 = PermGroup(8, (parse_cycles("(1,2)", 8), parse_cycles("(1,2,3,4,5,6,7,8)", 8)))
    c11 = realize_name("C11")
    group = disjoint_union_action([c11, sym8])
    c11, sym8 = on_block(c11, 0, group.degree), on_block(sym8, c11.degree, group.degree)
    assert group.order == 443520 > ENUMERATION_GUARD

    def no_listing(self):
        raise AssertionError("an element list was built")

    monkeypatch.setattr(PermGroup, "elements", no_listing)
    qa = quotient_action(group, c11)
    assert len(qa.blocks) == 9 and qa.image.order == 40320
    certification = certify_coprime_product(group, c11, sym8)
    assert certification.certified, certification.detail
    assert certification.detail["block_count"] == 9


def test_quotient_action_rejects_non_normal():
    group = d8()
    reflection = PermGroup(4, (parse_cycles("(1,3)", 4),))
    with pytest.raises(PreconditionError):
        quotient_action(group, reflection)


def test_universal_embedding_c4():
    c4 = PermGroup(4, (parse_cycles("(1,2,3,4)", 4),))
    n = PermGroup(4, (parse_cycles("(1,3)(2,4)", 4),))
    emb = universal_embedding(c4, n, 2, {parse_cycles("(1,3)(2,4)", 4): parse_cycles("(1,2)", 2)})
    assert emb.image.degree == 4 and emb.image.order == 4
    assert emb.mapping == {identity(4): identity(2), parse_cycles("(1,3)(2,4)", 4): parse_cycles("(1,2)", 2)}
    # the central subgroup moves only the inner coordinate
    for x in n.elements():
        moved = emb.embed(x)
        for u in range(emb.quotient_order):
            for delta in range(2):
                point = u * 2 + delta
                assert moved.images[point] // 2 == u


def test_universal_embedding_degenerate_quotient():
    v4 = realize_name("C2xC2")
    emb = universal_embedding(v4, v4, v4.degree, {g: g for g in v4.generators})
    assert emb.quotient_order == 1
    assert emb.image.same_group(v4)


def assert_coset_table(emb, group):
    # Every element y is read as (u, f) with f in N and y = f * t_u.
    assert len(emb.coset_of) == group.order
    for y, (u, f) in emb.coset_of.items():
        assert f in emb.mapping and f * emb.transversal[u] == y
    for u, rep in enumerate(emb.transversal):
        assert emb.coset_of[rep] == (u, identity(group.degree))


def test_universal_embedding_respects_cocycle_identities():
    # The coset table holds each element's N-part, so `embed` reads every
    # cocycle t_u * x * t_v^{-1} from it; here each one is checked to lie in N.
    d16 = realize_name("D16")
    z = center(d16)
    emb = universal_embedding(d16, z, 2, {g: parse_cycles("(1,2)", 2) for g in z.strong_generators})
    assert emb.image.order == d16.order
    assert_coset_table(emb, d16)
    for x in d16.elements():
        assert emb.image.contains(emb.embed(x))


def test_center_witness_embedding_coset_table(monkeypatch):
    built = []

    def recorded(*args):
        built.append(universal_embedding(*args))
        return built[-1]

    monkeypatch.setattr(witnesses, "universal_embedding", recorded)
    group = realize_name("Q8xC4")
    witnesses.center_witness(group)
    assert len(built) == 1
    assert_coset_table(built[0], group)


def test_universal_embedding_validates_its_inner_action():
    d16 = realize_name("D16")
    z = center(d16)
    with pytest.raises(PreconditionError, match="do not generate"):
        universal_embedding(d16, z, 2, {identity(d16.degree): identity(2)})
    flip = {g: parse_cycles("(1,2)", 2) for g in z.strong_generators}
    with pytest.raises(PreconditionError, match="degree mismatch"):
        universal_embedding(d16, z, 3, flip)
    reflection = next(g for g in d16.generators if g.order() == 2)
    with pytest.raises(PreconditionError, match="not normal"):
        universal_embedding(d16, PermGroup(d16.degree, (reflection,)), 2, flip)


def test_universal_embedding_guard_names_its_limit():
    sym8 = PermGroup(8, (parse_cycles("(1,2)", 8), parse_cycles("(1,2,3,4,5,6,7,8)", 8)))
    message = f"group order 40320 exceeds the enumeration guard ({ENUMERATION_GUARD})"
    with pytest.raises(GuardExceeded, match=re.escape(message)):
        universal_embedding(sym8, PermGroup(8, ()), 1, {})
    with pytest.raises(GuardExceeded, match=re.escape(message)):
        action_hom(sym8, 8, {g: g for g in sym8.generators})


def test_action_hom_validation():
    v4 = realize_name("C2xC2")
    with pytest.raises(PreconditionError, match="not faithful"):
        action_hom(v4, 2, {g: identity(2) for g in v4.generators})


def test_action_hom_rejects_swapped_images():
    # Images that generate the target but break a relation are refused, and
    # every pair of images is accepted exactly when it satisfies the
    # relations r^4 = s^2 = (r*s)^2 = 1 of D8 and generates a group of order 8.
    group = d8()
    r, s = group.generators
    with pytest.raises(PreconditionError, match="not a homomorphism"):
        action_hom(group, 4, {r: s, s: r})
    elements = group.elements()
    for a in elements:
        for b in elements:
            relations = (a**4).is_identity() and (b**2).is_identity() and ((a * b) ** 2).is_identity()
            if not relations:
                with pytest.raises(PreconditionError, match="not a homomorphism"):
                    action_hom(group, 4, {r: a, s: b})
            elif len(mulclose(4, (a, b))) < 8:
                with pytest.raises(PreconditionError, match="not faithful"):
                    action_hom(group, 4, {r: a, s: b})
            else:
                phi = action_hom(group, 4, {r: a, s: b})
                assert phi[r] == a and phi[s] == b and phi[r * s] == a * b
    assert action_hom(group, 4, {r: r, s: s})[elements[3]] == elements[3]


def test_action_hom_rejects_a_moved_identity_on_the_trivial_group():
    # The trivial group has no strong generator; the key 1 itself gives 1*1 two images.
    one = PermGroup(2, ())
    with pytest.raises(PreconditionError, match="not a homomorphism"):
        action_hom(one, 2, {identity(2): parse_cycles("(1,2)", 2)})
    assert action_hom(one, 2, {}) == {identity(2): identity(2)}


def test_action_hom_extends_generators_to_the_identity_map():
    for name, group in catalog_realizations(64):
        if group.order > 64:
            continue
        phi = action_hom(group, group.degree, {g: g for g in group.generators})
        assert set(phi) == mulclose(group.degree, group.generators) == set(group.elements()), name
        assert all(x == y for x, y in phi.items()), name


def test_action_hom_refusals_name_their_reason():
    group = d8()
    r, s = group.generators
    v4 = realize_name("C2xC2")
    cases = [
        (group, {r: r, s: r}, "not a homomorphism"),
        (center(group), {r: identity(4)}, "outside the group"),
        (group, {r: r}, "do not generate"),
        (v4, {g: identity(2) for g in v4.generators}, "not faithful"),
        (PermGroup(2, ()), {identity(2): parse_cycles("(1,2)", 2)}, "not a homomorphism"),
    ]
    for source, images, reason in cases:
        degree = next(iter(images.values())).degree
        with pytest.raises(PreconditionError, match=reason):
            action_hom(source, degree, images)


def test_realized_products_build_with_their_known_order():
    for name in ("Q8xC3", "D8xC3", "C2xQ8xC3", "Q16xC2"):
        group = realize_name(name)
        plain = PermGroup(group.degree, group.generators)
        assert group._chain.target == group.order == plain.order, name
        assert group.strong_generators == plain.strong_generators, name

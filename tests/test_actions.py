import pytest

from twoclosure.actions import (
    action_hom,
    coprime_direct_factors,
    coset_action,
    disjoint_union_action,
    quotient_action,
    universal_embedding,
)
from twoclosure.catalog import realize_name, subgroup_lattice
from twoclosure.errors import PreconditionError
from twoclosure.group import PermGroup, center, core, sylow_decomposition
from twoclosure.perm import identity, parse_cycles


def d8():
    return PermGroup(4, (parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,3)", 4)))


def test_coset_action_examples():
    group = d8()
    reflection = PermGroup(4, (parse_cycles("(1,3)", 4),))
    ca = coset_action(group, reflection)
    assert ca.image.degree == 4
    assert ca.kernel.order == 1
    assert ca.image.order == 8

    q8 = realize_name("Q8")
    minus_one = next(g for g in q8.elements() if g.order() == 2)
    ca = coset_action(q8, PermGroup(8, (minus_one,)))
    assert ca.image.degree == 4
    assert ca.kernel.order == 2
    assert ca.kernel.contains(minus_one)

    regular = coset_action(group, PermGroup(4, ()))
    assert regular.image.degree == 8 and regular.kernel.order == 1


def test_coset_action_degree_times_subgroup_order():
    for name in ("D8", "Q8", "C6", "SD16"):
        group = realize_name(name)
        for handle in subgroup_lattice(group):
            ca = coset_action(group, handle.group)
            assert ca.image.degree * handle.group.order == group.order
            assert ca.kernel.same_group(core(group, handle.group))


def test_coset_action_rejects_non_subgroup():
    with pytest.raises(PreconditionError):
        coset_action(d8(), PermGroup(4, (parse_cycles("(1,2)", 4),)))


def test_disjoint_union_examples():
    c2, c3 = realize_name("C2"), realize_name("C3")
    union = disjoint_union_action([c2, c3])
    assert union.group.order == 6 and union.group.degree == 5
    union = disjoint_union_action([realize_name("Q8"), c3])
    assert union.group.order == 24 and union.group.degree == 11
    single = disjoint_union_action([c3])
    assert single.group.same_group(c3)
    with pytest.raises(PreconditionError):
        disjoint_union_action([])


def test_disjoint_union_embed_moves_only_its_part():
    parts = [realize_name("C2"), realize_name("Q8"), realize_name("C3")]
    union = disjoint_union_action(parts)
    for k, part in enumerate(parts):
        start = union.offsets[k]
        own = range(start, start + part.degree)
        for g in part.elements():
            lifted = union.embed(k, g)
            assert union.embedded[k].contains(lifted) and union.group.contains(lifted)
            assert all(lifted.images[p] == p for p in range(union.group.degree) if p not in own)
            assert all(lifted.images[start + i] == start + j for i, j in enumerate(g.images))


def test_coprime_direct_factors_rejects_non_coprime():
    v4 = realize_name("C2xC2")
    parts = sylow_decomposition(v4)[2]
    with pytest.raises(PreconditionError):
        coprime_direct_factors(v4, parts, parts)


def test_quotient_action_examples():
    c6 = PermGroup(6, (parse_cycles("(1,2,3,4,5,6)", 6),))
    c3_part = PermGroup(6, (parse_cycles("(1,3,5)(2,4,6)", 6),))
    qa = quotient_action(c6, c3_part)
    assert len(qa.blocks) == 2 and qa.kernel.same_group(c3_part) and qa.image.order == 2

    trivial = quotient_action(c6, PermGroup(6, ()))
    assert len(trivial.blocks) == 6 and trivial.kernel.order == 1
    assert trivial.image.order == c6.order

    q8c3 = realize_name("Q8xC3")
    c3 = sylow_decomposition(q8c3)[3]
    qa = quotient_action(q8c3, c3)
    assert len(qa.blocks) == 9
    assert qa.kernel.same_group(c3)
    assert qa.image.order == 8  # faithful image of the quotient


def test_quotient_action_rejects_non_normal():
    group = d8()
    reflection = PermGroup(4, (parse_cycles("(1,3)", 4),))
    with pytest.raises(PreconditionError):
        quotient_action(group, reflection)


def test_universal_embedding_c4():
    c4 = PermGroup(4, (parse_cycles("(1,2,3,4)", 4),))
    n = PermGroup(4, (parse_cycles("(1,3)(2,4)", 4),))
    act = action_hom(n, 2, {identity(4): identity(2), parse_cycles("(1,3)(2,4)", 4): parse_cycles("(1,2)", 2)})
    emb = universal_embedding(c4, n, act)
    assert emb.image.degree == 4 and emb.image.order == 4
    # the central subgroup moves only the inner coordinate
    for x in n.elements():
        moved = emb.embed(x)
        for u in range(emb.quotient_order):
            for delta in range(2):
                point = u * 2 + delta
                assert moved.images[point] // 2 == u


def test_universal_embedding_degenerate_quotient():
    v4 = realize_name("C2xC2")
    act = action_hom(v4, v4.degree, {g: g for g in v4.elements()})
    emb = universal_embedding(v4, v4, act)
    assert emb.quotient_order == 1
    assert emb.image.same_group(v4)


def test_universal_embedding_respects_cocycle_identities():
    d16 = realize_name("D16")
    z = center(d16)
    act = action_hom(z, 2, {g: (identity(2) if g.is_identity() else parse_cycles("(1,2)", 2)) for g in z.elements()})
    emb = universal_embedding(d16, z, act)
    assert emb.image.order == d16.order
    for u, rep in enumerate(emb.transversal):
        assert emb.coset_of[rep] == u
    for x in d16.generators:
        for u in range(emb.quotient_order):
            assert emb.cocycle(x, u) in z.elements()


def test_action_hom_validation():
    v4 = realize_name("C2xC2")
    mapping = {g: identity(2) for g in v4.elements()}
    with pytest.raises(PreconditionError):
        action_hom(v4, 2, mapping)  # not faithful


def test_action_hom_rejects_swapped_images():
    # A bijection onto the group that swaps the images of two elements is
    # faithful, but not a homomorphism; testing products with the strong
    # generators alone must still find it.
    d8 = realize_name("D8")
    elements = d8.elements()
    for a, b in [(1, 2), (1, len(elements) - 1), (3, 5)]:
        mapping = {g: g for g in elements}
        mapping[elements[a]], mapping[elements[b]] = elements[b], elements[a]
        with pytest.raises(PreconditionError, match="not a homomorphism"):
            action_hom(d8, d8.degree, mapping)
    assert action_hom(d8, d8.degree, {g: g for g in elements}).of(elements[3]) == elements[3]


def test_action_hom_rejects_a_moved_identity_on_the_trivial_group():
    # The trivial group has no strong generator to test products with.
    one = PermGroup(2, ())
    with pytest.raises(PreconditionError, match="not a homomorphism"):
        action_hom(one, 2, {identity(2): parse_cycles("(1,2)", 2)})

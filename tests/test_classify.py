import random

import pytest

from twoclosure import classify
from helpers import mulclose
from twoclosure.catalog import parse_family, realize_name, subgroup_lattice
from twoclosure.classify import (
    REASON_CYCLIC,
    REASON_QUATERNION_TIMES_ODD_CYCLIC,
    STATUS_NOT_NILPOTENT,
    STATUS_NOT_TWO_CLOSED,
    center_cyclic_test,
    certify_coprime_product,
    classify_nilpotent,
    direct_factors,
    is_generalized_quaternion,
    normal_pp_subgroup,
    not_two_closed_witness,
    split_pair,
)
from twoclosure.actions import coset_action
from twoclosure.errors import GuardExceeded, PreconditionError
from twoclosure.group import PermGroup, is_cyclic, sylow_decomposition
from twoclosure.orbital import two_closure
from twoclosure.verify import NOT_TWO_CLOSED_FAMILIES
from twoclosure.perm import Permutation, identity, parse_cycles
from twoclosure.witnesses import check_certificate


def test_generalized_quaternion_predicate():
    assert is_generalized_quaternion(realize_name("Q8"))
    assert is_generalized_quaternion(realize_name("Q16"))
    assert not is_generalized_quaternion(realize_name("C8"))
    assert not is_generalized_quaternion(realize_name("D8"))
    with pytest.raises(PreconditionError):
        is_generalized_quaternion(realize_name("C6"))


def _catalog_two_groups(limit: int = 256) -> list[str]:
    """Every 2-power atom of the family syntax, and every product of two of
    them, of order at most `limit`."""
    atoms = [f"C{2**k}" for k in range(1, 9)]
    atoms += [f"{prefix}{2**k}" for prefix, low in (("D", 3), ("SD", 4), ("Q", 3)) for k in range(low, 9)]
    pairs = [f"{a}x{b}" for i, a in enumerate(atoms) for b in atoms[i:]]
    return [name for name in atoms + pairs if parse_family(name).order <= limit]


def test_generalized_quaternion_predicate_matches_the_involution_count():
    # A 2-group with exactly one involution is cyclic or generalized
    # quaternion; the oracle counts involutions on a plain BFS element list.
    names = _catalog_two_groups()
    assert len(names) > 100
    for name in names:
        group = realize_name(name)
        elements = mulclose(group.degree, group.generators)
        one = identity(group.degree)
        involutions = sum(1 for g in elements if g != one and g * g == one)
        cyclic = any(g.order() == len(elements) for g in elements)
        expected = len(elements) >= 8 and involutions == 1 and not cyclic
        assert is_generalized_quaternion(group) == expected, name


def test_generalized_quaternion_predicate_lists_no_element_of_an_abelian_group(monkeypatch):
    def refuse(self):
        raise AssertionError("PermGroup.elements was called")

    monkeypatch.setattr(PermGroup, "elements", refuse)
    for name in ("C4xC4", "C2xC2xC2", "C16xC16xC16xC16"):
        assert not is_generalized_quaternion(realize_name(name))


def test_classification_examples():
    assert classify_nilpotent(realize_name("C12")).reason == REASON_CYCLIC
    assert classify_nilpotent(realize_name("Q8xC3")).reason == REASON_QUATERNION_TIMES_ODD_CYCLIC
    verdict = classify_nilpotent(realize_name("Q8xC2"))
    assert verdict.status == STATUS_NOT_TWO_CLOSED
    assert verdict.certificate.construction == "center"
    assert verdict.certificate.group.degree == 24
    assert classify_nilpotent(realize_name("D8")).status == STATUS_NOT_TWO_CLOSED
    s3 = PermGroup(3, (parse_cycles("(1,2,3)", 3), parse_cycles("(1,2)", 3)))
    assert classify_nilpotent(s3).status == STATUS_NOT_NILPOTENT


def test_every_negative_verdict_carries_a_valid_certificate():
    for name in ("C2xC2", "C2xC4", "D8", "E27", "Q8xC3xC3"):
        verdict = classify_nilpotent(realize_name(name))
        assert verdict.status == STATUS_NOT_TWO_CLOSED
        assert verdict.certificate is not None
        assert check_certificate(verdict.certificate) == []


def test_witness_router_rejects_closed_groups():
    with pytest.raises(PreconditionError, match="2-closed"):
        not_two_closed_witness(realize_name("Q8"))
    with pytest.raises(PreconditionError, match="2-closed"):
        not_two_closed_witness(realize_name("C12"))


def test_classify_helpers_refuse_groups_outside_their_hypotheses():
    with pytest.raises(PreconditionError, match="^the center must be cyclic$"):
        normal_pp_subgroup(realize_name("C2xC2"), 2)
    with pytest.raises(PreconditionError, match="^the group must be dihedral or semidihedral$"):
        split_pair(realize_name("Q8"))
    s3 = PermGroup(3, (parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)))
    with pytest.raises(PreconditionError, match="^witness routing requires a nilpotent group$"):
        not_two_closed_witness(s3)


def test_witness_router_construction_choices():
    assert not_two_closed_witness(realize_name("C2xC2")).construction == "abelian-p"
    assert not_two_closed_witness(realize_name("E27")).construction == "odd-p"
    assert not_two_closed_witness(realize_name("D8")).construction == "two-group"
    assert not_two_closed_witness(realize_name("D16")).construction == "semidirect"
    assert not_two_closed_witness(realize_name("Q8xC2")).construction == "center"
    # noncyclic odd part routes through the abelian Sylow subgroup, lifted
    # over Q8 on its 8 points
    cert = not_two_closed_witness(realize_name("Q8xC3xC3"))
    assert cert.construction == "direct-factor" and cert.group.degree == 17 and cert.group.order == 72
    assert cert.parameters["inner_construction"] == "abelian-p" and cert.parameters["inner_degree"] == 9


def test_center_cyclic_test_examples():
    test = center_cyclic_test(realize_name("Q8xC2"))
    assert not test.passes and (test.certificate.group.degree, test.certificate.group.order) == (24, 16)
    # The center certificate of the Sylow 2-subgroup, lifted over C3.
    test = center_cyclic_test(realize_name("C2xQ8xC3"))
    assert not test.passes and (test.certificate.group.degree, test.certificate.group.order) == (27, 48)
    assert test.certificate.parameters["inner_construction"] == "center"
    assert check_certificate(test.certificate) == []
    assert center_cyclic_test(realize_name("C30")).passes
    assert center_cyclic_test(realize_name("D8")).passes  # cyclic center, inconclusive


def test_center_cyclic_test_on_non_nilpotent_groups():
    # The certificate comes from `center_witness` on the whole group.
    for name, degree, order in (("D6xC2xC2", 36, 24), ("D10xC3xC3", 90, 90)):
        test = center_cyclic_test(realize_name(name))
        assert not test.passes, name
        assert (test.certificate.group.degree, test.certificate.group.order) == (degree, order), name
        assert test.certificate.construction == "center", name
        assert check_certificate(test.certificate) == [], name
    for name in ("D6xC2", "D6xC4"):
        test = center_cyclic_test(realize_name(name))
        assert test.passes and test.certificate is None, name


def test_coprime_product_certification():
    q8c3 = realize_name("Q8xC3")
    sylows = sylow_decomposition(q8c3)
    result = certify_coprime_product(q8c3, sylows[3], sylows[2])
    assert result.certified
    assert result.detail == {
        "abelian_factor_closed": True,
        "quotient_factor_closed": True,
        "block_count": 9,
    }
    assert two_closure(q8c3).same_group(q8c3)


def test_coprime_certification_rejects_bad_hypotheses():
    q8c3 = realize_name("Q8xC3")
    sylows = sylow_decomposition(q8c3)
    with pytest.raises(PreconditionError, match="abelian"):
        certify_coprime_product(q8c3, sylows[2], sylows[3])
    v4 = realize_name("C2xC2")
    part = sylow_decomposition(v4)[2]
    with pytest.raises(PreconditionError, match="coprime"):
        certify_coprime_product(v4, part, part)


# Families of order at most 256 whose certificate is built on a p-part with
# cyclic center, each with the prime of that p-part.
P_PART_FAMILIES = [(f"D{2**k}", 2) for k in range(3, 9)] + [(f"SD{2**k}", 2) for k in range(4, 9)] + [
    ("E27", 3),
    ("E125", 5),
    ("D8xC3", 2),
    ("D16xC3", 2),
    ("D32xC3", 2),
    ("SD16xC5", 2),
    ("E27xC5", 3),
]


def _relabelled(name, seed):
    """The family's realization, its points relabelled by a seeded permutation."""
    group = realize_name(name)
    if seed is None:
        return group
    images = list(range(group.degree))
    random.Random(seed).shuffle(images)
    return group.conjugated_by(Permutation(tuple(images)))


def _lattice_choices(part, p):
    """The subgroups the lattice scans picked: the first normal noncyclic
    subgroup of order p^2, and for a 2-group the first (normal part,
    abelian core-free complement) split, in lattice order."""
    lattice = subgroup_lattice(part)
    pp = next(
        (h.group for h in lattice if h.normal and h.group.order == p * p and not is_cyclic(h.group)),
        None,
    )
    if p != 2:
        return pp, None
    split = next(
        (m.group, h.group)
        for h in lattice
        if 1 < h.group.order < part.order and h.core_mask == 1 and h.group.is_abelian()
        for m in lattice
        if m.normal and m.group.order * h.group.order == part.order and m.mask & h.mask == 1
    )
    return pp, split


@pytest.mark.parametrize("seed", [None, 11, 12])
@pytest.mark.parametrize("name,p", P_PART_FAMILIES)
def test_direct_searches_pick_the_lattice_choices(name, p, seed):
    part = sylow_decomposition(_relabelled(name, seed))[p]
    pp, split = _lattice_choices(part, p)
    found = normal_pp_subgroup(part, p)
    assert (found is None) == (pp is None)
    if pp is not None:
        assert found.generators == pp.generators
    if split is not None:
        m, h = split_pair(part)
        assert (m.generators, h.generators) == (split[0].generators, split[1].generators)


@pytest.mark.parametrize("name,degree", [("D512", 258), ("SD512", 258), ("E343", 49)])
def test_p_parts_above_the_old_lattice_limit_get_certificates(name, degree):
    verdict = classify_nilpotent(realize_name(name))
    assert verdict.status == STATUS_NOT_TWO_CLOSED
    assert verdict.certificate.group.degree == degree
    assert check_certificate(verdict.certificate) == []


def test_certificate_degree_guard_refuses_the_d2048_split():
    with pytest.raises(GuardExceeded, match=r"degree 1026 exceeds the certificate degree guard \(1024\)"):
        classify_nilpotent(realize_name("D2048"))


@pytest.mark.parametrize("name", ["D16", "Q16xC3"])
def test_quaternion_test_runs_once_per_verdict(monkeypatch, name):
    calls = []

    def counted(group):
        calls.append(group.order)
        return is_generalized_quaternion(group)

    monkeypatch.setattr(classify, "is_generalized_quaternion", counted)
    classify_nilpotent(realize_name(name))
    assert len(calls) == 1


def test_sylow_subgroups_are_not_rebuilt_from_their_elements(monkeypatch):
    group = realize_name("Q64xC3")
    sizes = []
    build = PermGroup.__init__

    def counted(self, degree, generators, *args, **kwargs):
        generators = tuple(generators)
        sizes.append(len(generators))
        build(self, degree, generators, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "__init__", counted)
    verdict = classify_nilpotent(group)
    assert verdict.reason == REASON_QUATERNION_TIMES_ODD_CYCLIC
    assert sizes and max(sizes) < 8
    q64 = realize_name("Q64")
    assert sylow_decomposition(q64)[2] is q64


# 2-groups on 16 points whose witnesses need one sheet per group element.
TWO_GROUPS_ON_16 = {
    64: ["(1,5)(2,6)(3,7)(4,8)(9,10)", "(1,15,5,11)(2,16,6,12)(3,13,8,9)(4,14,7,10)"],
    128: ["(1,10,7,15)(2,9,8,16)(3,12,6,13)(4,11,5,14)", "(1,15,7,11)(2,16,8,12)(3,14,6,9)(4,13,5,10)"],
    256: ["(1,9,4,12,2,10,3,11)(5,13,6,14)(7,15)(8,16)", "(1,8)(2,7)(3,5)(4,6)(9,15)(10,16)(11,14)(12,13)"],
}


@pytest.mark.parametrize("order", sorted(TWO_GROUPS_ON_16))
def test_two_group_witness_lists_no_stabilizer_of_the_certificate_group(monkeypatch, order):
    group = PermGroup(16, tuple(parse_cycles(text, 16) for text in TWO_GROUPS_ON_16[order]))
    assert group.order == order
    listed = []
    for name in ("point_stabilizer", "elements"):
        original = getattr(PermGroup, name)
        monkeypatch.setattr(
            PermGroup, name, lambda self, *args, _original=original: listed.append(self) or _original(self, *args)
        )
    verdict = classify_nilpotent(group)
    cert = verdict.certificate
    assert verdict.status == STATUS_NOT_TWO_CLOSED and cert.construction == "two-group"
    assert cert.group.degree == order and cert.group.order == order
    assert check_certificate(cert) == []
    assert not any(g is cert.group for g in listed)


@pytest.mark.parametrize(
    "name,degree,inner",
    [("D16xD16xD16", 26, "semidirect"), ("D256xC2xC2", 134, "semidirect"), ("D32xC2", 20, "semidirect"),
     ("E27xC3", 12, "odd-p"), ("D8xC3", 11, "two-group")],
)
def test_a_failing_orbit_factor_is_certified_and_lifted_by_the_identity(name, degree, inner):
    group = realize_name(name)
    cert = classify_nilpotent(group).certificate
    assert cert.construction == "direct-factor" and cert.parameters["inner_construction"] == inner
    assert cert.group.degree == degree and cert.group.order == group.order
    assert check_certificate(cert) == []
    # theta moves only the inner certificate's points
    assert all(cert.witness.images[x] == x for x in range(cert.parameters["inner_degree"], degree))


def test_direct_factors_split_by_orbits_and_relabel_in_input_order():
    group = realize_name("D8xC3xD8")
    blocks = direct_factors(group)
    assert [points for points, _ in blocks] == [(0, 1, 2, 3), (4, 5, 6), (7, 8, 9, 10)]
    assert [factor.order for _, factor in blocks] == [8, 3, 8]
    assert blocks[2][1].same_group(realize_name("D8"))
    # Of two failing factors of equal order, the first block is certified.
    cert = classify_nilpotent(group).certificate
    assert cert.parameters["block_size"] == 4 and cert.group.order == 192
    assert cert.group.degree == 8 + 7
    # The complement keeps input order: C3 first, then the second D8.
    assert cert.group.orbit(8) == (8, 9, 10)


def test_linked_orbits_do_not_split():
    # D8 acting diagonally on two copies of its 4 points: each copy carries
    # all of D8, so the two orbits form one block and the certificate is
    # the one the orbits' joint action gets today.
    diagonal = PermGroup(8, (parse_cycles("(1,2,3,4)(5,6,7,8)", 8), parse_cycles("(1,3)(5,7)", 8)))
    assert direct_factors(diagonal) is None
    cert = classify_nilpotent(diagonal).certificate
    assert cert.construction == "two-group" and cert.group.order == 8 and check_certificate(cert) == []
    # Beside a C3 on three more points, the two linked orbits form one block.
    generators = [Permutation(g.images + (8, 9, 10)) for g in diagonal.generators]
    generators.append(Permutation(tuple(range(8)) + (9, 10, 8)))
    product = PermGroup(11, generators)
    blocks = direct_factors(product)
    assert [points for points, _ in blocks] == [tuple(range(8)), (8, 9, 10)]
    assert blocks[0][1].same_group(diagonal)
    cert = classify_nilpotent(product).certificate
    assert cert.construction == "direct-factor" and cert.parameters["block_size"] == 8
    assert cert.group.order == 24 and cert.group.degree == 8 + 3


def test_orbit_factors_must_multiply_to_the_group_order():
    # C2 x C2 on three pairs of points, as {(a, b, a + b)}: any two orbits
    # carry independent actions, all three do not.
    group = PermGroup(6, (parse_cycles("(1,2)(5,6)", 6), parse_cycles("(3,4)(5,6)", 6)))
    assert direct_factors(group) is None
    cert = classify_nilpotent(group).certificate
    assert cert.construction == "abelian-p" and cert.group.order == 4


def test_a_group_without_an_orbit_split_is_lifted_over_its_other_sylow_subgroups():
    d8c3 = realize_name("D8xC3")
    regular = coset_action(d8c3, PermGroup(d8c3.degree, ())).image
    assert regular.degree == 24 and direct_factors(regular) is None
    cert = classify_nilpotent(regular).certificate
    assert cert.construction == "direct-factor" and cert.parameters["inner_construction"] == "two-group"
    assert cert.group.order == 24 and cert.group.degree == cert.parameters["inner_degree"] + 24
    assert check_certificate(cert) == []


def test_every_negative_truth_table_certificate_is_about_the_input():
    for name in NOT_TWO_CLOSED_FAMILIES:
        group = realize_name(name)
        cert = classify_nilpotent(group).certificate
        assert cert.group.order == group.order, name
        assert check_certificate(cert) == [], name

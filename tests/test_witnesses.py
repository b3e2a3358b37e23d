import sys

import pytest

from helpers import brute_abelian_basis, on_block
from twoclosure.actions import disjoint_union_action
from twoclosure import actions, witnesses
from twoclosure.catalog import realize_name, subgroup_lattice
from twoclosure.classify import normal_pp_subgroup, not_two_closed_witness
from twoclosure.errors import ConstructionFailure, GuardExceeded, InternalDefect, PreconditionError
from twoclosure.group import PermGroup, center, intersection_elements, is_cyclic, sylow_decomposition
from twoclosure.perm import Permutation, identity, parse_cycles
from twoclosure.orbital import MembershipEvidence, two_closure
from twoclosure.witnesses import (
    WitnessCertificate,
    abelian_basis,
    abelian_p_witness,
    center_witness,
    check_certificate,
    direct_factor_witness,
    odd_p_witness,
    semidirect_witness,
    two_group_witness,
)


def assert_valid(cert: WitnessCertificate):
    assert check_certificate(cert) == []
    assert not cert.group.contains(cert.witness)
    assert len(cert.evidence.assignments) == cert.group.degree**2
    # evidence elements are interned: pairs share at most |G| distinct elements
    assert len(cert.evidence.elements) <= cert.group.order


def test_abelian_basis_and_coordinates():
    group = realize_name("C2xC4")
    basis = abelian_basis(group)
    assert sorted(g.order() for g in basis) == [2, 4]
    # Each element has one exponent vector: the basis powers' products are distinct.
    a, b = basis
    assert len({a**i * b**j for i in range(a.order()) for j in range(b.order())}) == 8
    q8 = realize_name("Q8")
    with pytest.raises(PreconditionError):
        abelian_basis(q8)


ABELIAN_BASIS_LATTICES = [
    "C4xC4", "C2xC2xC2xC2", "C2xC4xC8", "C3xC9", "C2xC2xC3xC3", "C6xC6", "Q8xC4", "D8xC2xC2", "C4xC2xC2xC2",
]


def test_abelian_basis_matches_the_brute_force_greedy_basis():
    compared = 0
    for name in ABELIAN_BASIS_LATTICES:
        for handle in subgroup_lattice(realize_name(name)):
            if handle.group.is_abelian():
                assert abelian_basis(handle.group) == brute_abelian_basis(handle.group), (name, handle.group)
                compared += 1
    assert compared == 509


def test_abelian_p_witness_2_11():
    cert = abelian_p_witness(2, (1, 1))
    assert cert.group.degree == 6 and cert.group.order == 4
    assert cert.witness.cycle_string() == "(5,6)"
    assert_valid(cert)
    assert cert.parameters["closure_order_lower_bound"] == 8
    closure = two_closure(cert.group)
    assert closure.order == 8 and closure.is_abelian()


def test_abelian_p_witness_3_11():
    cert = abelian_p_witness(3, (1, 1))
    assert cert.group.degree == 9 and cert.group.order == 9
    assert_valid(cert)
    closure = two_closure(cert.group)
    assert closure.order >= 27 and closure.is_abelian()


def test_abelian_p_witness_cyclic_rejected():
    with pytest.raises(PreconditionError):
        abelian_p_witness(2, (1,))
    for not_prime in (4, 1, 0, 9):
        with pytest.raises(PreconditionError, match="p must be prime"):
            abelian_p_witness(not_prime, (1, 1))


def first_normal_four_subgroup(group):
    return next(
        h.group
        for h in subgroup_lattice(group)
        if h.normal and h.group.order == 4 and not is_cyclic(h.group)
    )


def test_two_group_witness_d8():
    d8 = realize_name("D8")
    cert = two_group_witness(d8, first_normal_four_subgroup(d8))
    assert cert.group.degree == 8
    assert_valid(cert)
    closure = two_closure(cert.group)
    assert closure.order >= 16
    # the two sheets fixed by the witness have trivial joint stabilizer
    fixed = [p for p in range(8) if cert.witness.images[p] == p]
    assert len(fixed) >= 2


def test_two_group_witness_rejects_central_subgroup():
    q8c2 = realize_name("Q8xC2")
    z = center(q8c2)
    with pytest.raises(PreconditionError, match="central"):
        two_group_witness(q8c2, z)


def test_two_group_witness_rejects_cyclic_subgroup():
    c8 = realize_name("C8")
    involution = next(g for g in c8.elements() if g.order() == 2)
    with pytest.raises(PreconditionError):
        two_group_witness(c8, PermGroup(8, (involution,)))


def _element_of_order(order):
    return lambda group: PermGroup(group.degree, (next(g for g in group.elements() if g.order() == order),))


def _non_normal_four_subgroup(group):
    return next(h.group for h in subgroup_lattice(group) if not h.normal and h.group.order == 4 and not is_cyclic(h.group))


@pytest.mark.parametrize("construction", [two_group_witness, odd_p_witness], ids=["two-group", "odd-p"])
@pytest.mark.parametrize(
    "family, subgroup, message",
    [
        pytest.param("C8", _element_of_order(4), r"subgroup must be elementary abelian of order p\^2", id="cyclic-C8"),
        pytest.param("C9xC3", _element_of_order(9), r"subgroup must be elementary abelian of order p\^2", id="cyclic-C9xC3"),
        pytest.param("Q8xC2", center, "subgroup is central; use the center construction", id="central-Q8xC2"),
        pytest.param("C3xC3", lambda group: group, "subgroup is central; use the center construction", id="central-C3xC3"),
        pytest.param("D16", _non_normal_four_subgroup, "subgroup must be normal", id="non-normal-D16"),
        pytest.param("C6", lambda group: group, "group must be a nontrivial p-group", id="not-a-p-group-C6"),
    ],
)
def test_pp_constructions_reject_a_bad_subgroup_alike(construction, family, subgroup, message):
    # One validator checks the (p,p) hypothesis for both constructions, so
    # each rejects a bad subgroup of either parity with the same message.
    group = realize_name(family)
    with pytest.raises(PreconditionError, match=f"^{message}"):
        construction(group, subgroup(group))


def test_odd_p_witness_e27():
    e27 = realize_name("E27")
    pp = next(
        h.group
        for h in subgroup_lattice(e27)
        if h.normal and h.group.order == 9 and not is_cyclic(h.group)
    )
    cert = odd_p_witness(e27, pp)
    assert cert.group.degree == 9
    assert_valid(cert)
    assert two_closure(cert.group).order > 27
    # the recorded twist exponents satisfy their commutator identities exactly
    from twoclosure.perm import parse_cycles
    from twoclosure.witnesses import commutator

    p = cert.parameters["prime"]
    a = parse_cycles(cert.parameters["central_generator"], e27.degree)
    b = parse_cycles(cert.parameters["noncentral_generator"], e27.degree)
    t = parse_cycles(cert.parameters["outer_element"], e27.degree)
    assert set(cert.parameters["twist_exponents"]) == {"0", "1"}
    for i_text, k in cert.parameters["twist_exponents"].items():
        i = int(i_text)
        assert 1 <= k <= p - 1
        assert commutator(t ** (i - 2), b**-k) == a
        s = cert.parameters["twist_residues"][i_text]
        assert commutator(t ** (i - 2), b**-1) == a**s
        l = cert.parameters["bezout_cofactors"][i_text]
        assert k * s + l * p == 1


@pytest.mark.parametrize("name, p", [("E27", 3), ("E125", 5), ("E343", 7)])
def test_odd_p_stabilizer_check_reads_an_orbit_length(name, p):
    # Stab(1) meets Stab(x) trivially exactly when x's point has an orbit of
    # length |Stab(1)| under Stab(1); the listed intersections agree.
    group = realize_name(name)
    cert = odd_p_witness(group, normal_pp_subgroup(group, p))
    stab_one = cert.group.point_stabilizer(0)  # the coset of <b> itself
    regular = []
    for point in range(cert.group.degree):
        listed = len(intersection_elements(stab_one, cert.group.point_stabilizer(point))) == 1
        assert (len(stab_one.orbit(point)) == stab_one.order) == listed, (name, point)
        regular.append(listed)
    assert any(regular) and not all(regular)


def test_odd_p_witness_rejects_base_stabilizers_that_meet(monkeypatch):
    # t taken inside the centralizer of <a, b> fixes b, so Stab(t) = Stab(1) = <b>.
    e27 = realize_name("E27")
    inside = lambda group, b: next(g for g in group.elements() if not g.is_identity() and g * b == b * g)
    monkeypatch.setattr(witnesses, "_outer_element", inside)
    with pytest.raises(InternalDefect, match="^base coset stabilizers must intersect trivially$"):
        odd_p_witness(e27, normal_pp_subgroup(e27, 3))


def _forbid(monkeypatch, *names):
    """Make each named function fail the test wherever a loaded twoclosure
    module binds it."""
    def refuse(*args, **kwargs):
        raise AssertionError("a forbidden group operator was called")

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("twoclosure."):
            for name in names:
                if name in vars(module):
                    monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize("name, p", [("E27", 3), ("E125", 5), ("E343", 7)])
def test_odd_p_witness_builds_no_centralizer(monkeypatch, name, p):
    # C_G(N) = C_G(b) has order |G|/p; the construction only tests
    # commutation with b, so it lists no center or centralizer and builds no
    # group of that order.
    group = realize_name(name)
    pp_subgroup = normal_pp_subgroup(group, p)
    _forbid(monkeypatch, "center", "centralizer", "_centralizing", "intersection_elements")
    built = []
    init = PermGroup._init

    def recording_init(self, generators, chain):
        init(self, generators, chain)
        built.append(self.order)

    monkeypatch.setattr(PermGroup, "_init", recording_init)
    cert = odd_p_witness(group, pp_subgroup)
    assert built and group.order // p not in built
    assert_valid(cert)


def _eligible_four_subgroup(group):
    """The first normal four-subgroup meeting the center in one involution."""
    z = center(group)
    return next(
        h.group
        for h in subgroup_lattice(group)
        if h.normal
        and h.group.order == 4
        and not is_cyclic(h.group)
        and sum(1 for x in intersection_elements(h.group, z) if not x.is_identity()) == 1
    )


@pytest.mark.parametrize("name", ["D8", "D8xC2"])
def test_two_group_witness_reads_the_center_by_commutation(monkeypatch, name):
    group = realize_name(name)
    four_subgroup = _eligible_four_subgroup(group)
    _forbid(monkeypatch, "center", "intersection_elements")
    assert_valid(two_group_witness(group, four_subgroup))


def test_odd_p_witness_rejects_p2_and_abelian():
    d8 = realize_name("D8")
    with pytest.raises(PreconditionError):
        odd_p_witness(d8, first_normal_four_subgroup(d8))
    c3c3 = realize_name("C3xC3")
    with pytest.raises(PreconditionError, match="central"):
        odd_p_witness(c3c3, c3c3)


def test_semidirect_witness_d8_and_sd16():
    d8 = realize_name("D8")
    lattice = subgroup_lattice(d8)
    m = next(h.group for h in lattice if h.group.order == 4 and is_cyclic(h.group))
    h = next(h.group for h in lattice if h.group.order == 2 and h.core_mask == 1)
    cert = semidirect_witness(d8, m, h)
    assert cert.group.degree == 6 and cert.group.order == 8
    assert_valid(cert)
    assert two_closure(cert.group).order > 8

    sd16 = realize_name("SD16")
    lattice = subgroup_lattice(sd16)
    m = next(h.group for h in lattice if h.group.order == 8 and is_cyclic(h.group))
    h = next(h.group for h in lattice if h.group.order == 2 and h.core_mask == 1)
    cert = semidirect_witness(sd16, m, h)
    assert cert.group.degree == 10 and cert.group.order == 16
    assert_valid(cert)
    assert two_closure(cert.group).order > 16


def _lattice_subgroup(order, cyclic=None, normal=None):
    """The first subgroup in the lattice with this order (and cyclicity and normality, when given)."""
    return lambda group: next(
        h.group for h in subgroup_lattice(group)
        if h.group.order == order and cyclic in (None, is_cyclic(h.group)) and normal in (None, h.normal)
    )


@pytest.mark.parametrize(
    "family, normal_part, complement, message",
    [
        pytest.param("D6", _lattice_subgroup(3), _lattice_subgroup(2), "group must be nilpotent", id="not-nilpotent"),
        pytest.param("D8", _lattice_subgroup(2, normal=False), _lattice_subgroup(4, cyclic=True),
                     "the first factor must be normal", id="not-normal"),
        pytest.param("D8", center, lambda d8: d8, "the complement must be abelian", id="nonabelian-complement"),
        pytest.param("D8", _lattice_subgroup(4, cyclic=True), center, "the factors must intersect trivially", id="meeting"),
        pytest.param("D8", _lattice_subgroup(4, cyclic=True), lambda d8: PermGroup(d8.degree, ()),
                     "the factors do not multiply up to the group", id="too-small"),
    ],
)
def test_semidirect_witness_refuses_each_broken_hypothesis(family, normal_part, complement, message):
    group = realize_name(family)
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        semidirect_witness(group, normal_part(group), complement(group))


def test_constructions_refuse_a_wrong_prime_or_exponent():
    with pytest.raises(PreconditionError, match="^exponents must be positive$"):
        abelian_p_witness(3, (2, 0))
    e27 = realize_name("E27")
    pp = next(h.group for h in subgroup_lattice(e27) if h.normal and h.group.order == 9 and not is_cyclic(h.group))
    with pytest.raises(PreconditionError, match="^group must be a 2-group; use the odd-p construction$"):
        two_group_witness(e27, pp)


def test_check_certificate_refuses_a_witness_of_another_degree():
    d8 = realize_name("D8")
    cert = WitnessCertificate(d8, identity(d8.degree + 1), MembershipEvidence([], []), "center", {})
    assert cert.problems == check_certificate(cert) == ["witness degree mismatch"]


def test_semidirect_witness_rejects_normal_complement():
    c6 = realize_name("C6")
    sylows = sylow_decomposition(c6)
    with pytest.raises(PreconditionError, match="core"):
        semidirect_witness(c6, sylows[3], sylows[2])


def test_center_witness_q8c2():
    cert = center_witness(realize_name("Q8xC2"))
    assert cert.group.degree == 24
    assert cert.group.order == 16
    assert_valid(cert)
    assert cert.construction == "center"
    assert cert.parameters["inner_degree"] == 6 and cert.parameters["quotient_order"] == 4


def test_center_witness_degenerate_is_cell_witness():
    cert = center_witness(realize_name("C2xC2"))
    assert cert.construction == "abelian-p"
    assert cert.group.degree == 6
    assert_valid(cert)


def test_center_witness_rejects_cyclic_center():
    with pytest.raises(PreconditionError):
        center_witness(realize_name("Q8"))


def test_two_group_witness_with_larger_centralizer():
    # D8 x C2 has eligible four-subgroups whose centralizer strictly exceeds
    # them, exercising the inner quotient with more than one sheet.
    group = realize_name("D8xC2")
    z = center(group)
    from twoclosure.group import intersection_elements

    eligible = next(
        h.group
        for h in subgroup_lattice(group)
        if h.normal
        and h.group.order == 4
        and not is_cyclic(h.group)
        and sum(1 for x in intersection_elements(h.group, z) if not x.is_identity()) == 1
    )
    cert = two_group_witness(group, eligible)
    assert cert.group.degree == 16
    assert cert.parameters["inner_sheets"] == 2
    assert_valid(cert)


def _e27_times_c3():
    """E27 x C3 and a normal 3 x 3 subgroup of its E27 factor, whose
    centralizer strictly exceeds it."""
    e27 = realize_name("E27")
    group = disjoint_union_action([e27, realize_name("C3")])
    e27_part = on_block(e27, 0, group.degree)
    z_gen = next(g for g in center(e27_part).elements() if not g.is_identity())
    b_gen = e27_part.generators[1] if len(e27_part.generators) > 1 else e27_part.strong_generators[1]
    return group, PermGroup(group.degree, (z_gen, b_gen))


def test_odd_p_witness_with_larger_centralizer():
    # E27 x C3 is a 3-group where the chosen subgroup's centralizer strictly
    # exceeds it, so the coset classes span a larger quotient.
    group, n_group = _e27_times_c3()
    assert n_group.order == 9 and not is_cyclic(n_group)
    cert = odd_p_witness(group, n_group)
    assert cert.group.degree == 27
    assert_valid(cert)


@pytest.mark.parametrize("name, p", [("E27", 3), ("E125", 5), ("E343", 7), ("E27xC3", 3)])
def test_odd_p_exponent_classes_agree_with_the_p_trial_search(monkeypatch, name, p):
    # The construction names a coset representative's class i by b^rep, one
    # of b's p conjugates b^(t^i); the p-trial search it replaced is the
    # oracle here: i is the exponent for which t^-i * rep commutes with b.
    if name == "E27xC3":
        group, pp_subgroup = _e27_times_c3()
    else:
        group = realize_name(name)
        pp_subgroup = normal_pp_subgroup(group, p)
    actions_built = []

    def recording_coset_action(*args):
        actions_built.append(actions.coset_action(*args))
        return actions_built[-1]

    monkeypatch.setattr(witnesses, "coset_action", recording_coset_action)
    cert = odd_p_witness(group, pp_subgroup)
    (ca,) = actions_built
    a, b, t = (
        parse_cycles(cert.parameters[key], group.degree)
        for key in ("central_generator", "noncentral_generator", "outer_element")
    )

    def p_trial_class(rep):
        classes = [i for i in range(p) if t**-i * rep * b == b * t**-i * rep]
        assert len(classes) == 1
        return classes[0]

    class_of = {b.conjugated_by(t**i): i for i in range(p)}
    assert len(class_of) == p
    for point, rep in enumerate(ca.representatives):
        i = p_trial_class(rep)
        assert class_of[b.conjugated_by(rep)] == i
        # The witness multiplies exactly the cosets of class 2 by a.
        assert cert.witness.images[point] == (ca.point_of_element[rep * a] if i == 2 % p else point)


def test_abelian_p_witness_mixed_exponents():
    cert = abelian_p_witness(2, (1, 2))
    assert cert.group.degree == 8 and cert.group.order == 8
    assert_valid(cert)
    assert two_closure(cert.group).order >= 16


def test_center_witness_mixed_exponents():
    cert = center_witness(realize_name("Q8xC4"))
    assert cert.group.degree == 32
    assert cert.parameters["exponents"] == [1, 2]
    assert_valid(cert)


def test_certificates_survive_disjoint_union_transport():
    # a union containing a non-closed part cannot be closed
    inner = abelian_p_witness(2, (1, 1))
    union = disjoint_union_action([inner.group, realize_name("C3")])
    closure = two_closure(union)
    assert closure.order > union.order


def test_check_certificate_reports_tampered_evidence():
    cert = center_witness(realize_name("Q8xC2"))
    theta = cert.witness
    n = theta.degree
    moved = next(i for i, j in enumerate(theta.images) if i != j)
    flat = moved * n + moved
    pair = f"({moved + 1},{moved + 1})"

    def tampered(position=None, element=None, drop=False):
        """Problems found once `pair` gets `position`, or a new `element`, or is dropped."""
        elements = list(cert.evidence.elements)
        assignments = list(cert.evidence.assignments)
        if element is not None:
            elements.append(element)
            position = len(elements) - 1
        if drop:
            del assignments[flat]
        elif position is not None:
            assignments[flat] = position
        return check_certificate(WitnessCertificate(
            cert.group, cert.witness, MembershipEvidence(elements, assignments),
            cert.construction, cert.parameters,
        ))

    uncovered = ["evidence does not cover every ordered pair"]
    assert tampered(drop=True) == uncovered
    assert tampered(position=len(cert.evidence.elements)) == uncovered
    assert tampered(position=-1) == uncovered
    # theta moves the pair exactly as theta does, but is outside the group
    assert tampered(element=theta) == [f"evidence element for pair {pair} is outside the group"]
    # the identity is in the group but fixes a pair that theta moves
    assert tampered(element=identity(n)) == [f"evidence element for pair {pair} moves it differently"]


def test_assemble_refuses_a_witness_in_the_group_or_outside_the_closure():
    cert = abelian_p_witness(2, (1, 1))
    generator = cert.group.generators[0]
    with pytest.raises(ConstructionFailure, match="^witness sifts into the group$"):
        witnesses._assemble(cert.group, generator, cert.construction, cert.parameters)
    outside = Permutation((2, 1, 0) + tuple(range(3, cert.group.degree)))
    with pytest.raises(ConstructionFailure, match="fails definitional closure membership"):
        witnesses._assemble(cert.group, outside, cert.construction, cert.parameters)


def test_check_certificate_accepts_evidence_copies():
    # Membership is tested once per position: equal elements stored at
    # distinct positions must each be checked and pass.
    cert = center_witness(realize_name("Q8xC2"))
    elements = cert.evidence.elements
    copies = elements + [Permutation(g.images) for g in elements]
    # odd flat pairs point at the copies
    assignments = [p + len(elements) * (flat % 2) for flat, p in enumerate(cert.evidence.assignments)]
    assert set(assignments) == set(range(len(copies)))
    copied = WitnessCertificate(
        cert.group, cert.witness, MembershipEvidence(copies, assignments), cert.construction, cert.parameters,
    )
    assert check_certificate(copied) == []


@pytest.mark.parametrize("name", ["C2xC4", "D8", "D16", "SD16", "E27", "Q8xC2", "E27xC3", "C2xQ8xC3"])
def test_each_construction_predicts_its_certificate_degree(monkeypatch, name):
    events = []
    guard = witnesses._guard_certificate_degree

    def record(degree):
        events.append(("predict", degree))
        guard(degree)

    def build(degree, *args, **kwargs):
        events.append(("build", degree))
        return PermGroup(degree, *args, **kwargs)

    monkeypatch.setattr(witnesses, "_guard_certificate_degree", record)
    # A lifted certificate's group is built by `disjoint_union_action`.
    monkeypatch.setattr(witnesses, "PermGroup", build)
    monkeypatch.setattr(actions, "PermGroup", build)
    cert = not_two_closed_witness(realize_name(name))
    predicted = [degree for kind, degree in events if kind == "predict"]
    if cert.construction == "direct-factor":
        # The inner construction predicts the inner degree first; the lift
        # predicts the final degree last, before it builds its group.
        assert predicted[0] == cert.parameters["inner_degree"]
        assert predicted[-1] == cert.group.degree
        last = len(events) - 1 - events[::-1].index(("predict", cert.group.degree))
        assert ("build", cert.group.degree) in events[last + 1:]
    else:
        # The outer construction predicts first; a center certificate's inner
        # cell witness predicts its own, smaller degree after it.
        assert predicted[0] == cert.group.degree


def test_certificate_degree_guard_names_value_and_limit():
    with pytest.raises(GuardExceeded, match=r"degree 1026 exceeds the certificate degree guard \(1024\)"):
        abelian_p_witness(2, (9, 9))


def test_direct_factor_witness_guards_the_lifted_degree_before_building(monkeypatch):
    inner = not_two_closed_witness(realize_name("D8"))
    c3 = realize_name("C3")
    cert = direct_factor_witness(inner, c3, 4)
    assert_valid(cert)
    assert cert.group.degree == inner.group.degree + 3 and cert.group.order == 24
    monkeypatch.setattr(witnesses, "CERTIFICATE_DEGREE_GUARD", inner.group.degree + 2)
    for module in (witnesses, actions):
        monkeypatch.setattr(module, "PermGroup", lambda *args, **kwargs: pytest.fail("built a group"))
    with pytest.raises(GuardExceeded, match=rf"degree {inner.group.degree + 3} exceeds"):
        direct_factor_witness(inner, c3, 4)

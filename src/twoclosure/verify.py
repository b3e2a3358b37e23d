"""Property and reproduction suites.

Three suites back the CLI ``verify`` command: ``axioms`` (closure axioms on
random and catalog groups), ``lemmas`` (commutation, center, witness and
block-quotient properties), and ``classification`` (the nilpotent truth table
with its positive- and negative-side consistency checks).  Each check returns
a CheckResult; a seed only ever changes sampling order, never correctness.
"""

from __future__ import annotations

import random

from .actions import QuotientAction, disjoint_union_action, quotient_action
from .catalog import faithful_representations, parse_family, realize_name
from .classify import (
    STATUS_NOT_TWO_CLOSED,
    STATUS_TWO_CLOSED,
    CenterTest,
    certify_coprime_product,
    center_cyclic_test,
    classify_nilpotent,
    normal_pp_subgroup,
    split_pair,
)
from .errors import GuardExceeded
from .group import (
    PermGroup,
    center,
    intersection_elements,
    is_normal,
    sylow_decomposition,
)
from .orbital import (
    is_in_two_closure,
    orbital_partition,
    two_closure,
    two_equivalent,
)
from .perm import Permutation, direct_sum, identity, parse_cycles
from .witnesses import (
    abelian_p_witness,
    center_witness,
    check_certificate,
    odd_p_witness,
    semidirect_witness,
    two_group_witness,
)

# Largest max degree of the axioms suite. Its slowest run over seeds 1-5
# takes 0.8-1.0 s at 16 (0.9-1.2 s at 17 and 18-20 s at 32).
AXIOMS_DEGREE_GUARD = 16

TWO_CLOSED_FAMILIES = [f"C{n}" for n in range(1, 31)] + [
    "Q8",
    "Q16",
    "Q32",
    "Q8xC3",
    "Q8xC5",
    "Q16xC3",
    "Q16xC9",
]
NOT_TWO_CLOSED_FAMILIES = [
    "C2xC2",
    "C2xC4",
    "C3xC3",
    "C2xC2xC2",
    "D8",
    "D16",
    "SD16",
    "Q8xC2",
    "Q16xC2",
    "Q8xC3xC3",
    "E27",
]
COPRIME_PRODUCT_PARTS = [
    ("C2xC2", "C3"),
    ("C4", "C3"),
    ("Q8", "C3"),
    ("D8", "C3"),
    ("C2xC2", "C3xC3"),
    ("C8", "C5"),
    ("C2xC4", "C5"),
]


class CheckResult:
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str) -> None:
        self.name, self.passed, self.detail = name, passed, detail


def _result(name: str, failures: list[str], context: str) -> CheckResult:
    if failures:
        return CheckResult(name, False, "; ".join(failures[:5]))
    return CheckResult(name, True, context)


def random_groups(seed: int, samples: int, max_degree: int) -> list[PermGroup]:
    """Deterministically sampled generator sets on 3..max_degree points."""
    rng = random.Random(seed)
    groups = []
    for _ in range(samples):
        degree = rng.randint(3, max_degree)
        count = rng.randint(1, 3)
        gens = []
        for _ in range(count):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(Permutation(tuple(images)))
        groups.append(PermGroup(degree, tuple(gens)))
    return groups


def catalog_realizations(max_degree: int) -> list[tuple[str, PermGroup]]:
    """The catalog families of degree at most max_degree, realized; the
    degree is read from the family before any group is built."""
    return [
        (name, realize_name(name))
        for name in TWO_CLOSED_FAMILIES + NOT_TWO_CLOSED_FAMILIES
        if parse_family(name).degree <= max_degree
    ]


# ---------------------------------------------------------------------------
# axioms suite

def _extensions(colors: tuple[int, ...], n: int, images: list[int], k: int) -> int:
    """Colour-keeping extensions of the image prefix `images` of points 0..k-1."""
    if k == n:
        return 1
    count = 0
    for v in range(n):
        if v in images or colors[k * n + k] != colors[v * n + v] or any(
            colors[j * n + k] != colors[w * n + v] or colors[k * n + j] != colors[v * n + w]
            for j, w in enumerate(images)
        ):
            continue
        images.append(v)
        count += _extensions(colors, n, images, k + 1)
        images.pop()
    return count


def _colour_preserving_count(partition) -> int:
    """Number of permutations of the points that keep every pair colour,
    counted by extending image prefixes that keep the colours of the pairs
    among their own points.  A function of the colour table alone, so
    `check_closure_axioms` counts each distinct table once."""
    return _extensions(partition.colors, partition.degree, [], 0)


def check_closure_axioms(seed: int = 7, samples: int = 200, max_degree: int = 7) -> list[CheckResult]:
    """The closure axioms on random groups and catalog families of degree <= 12.

    Below degree 7 the closure is compared with a brute-force count of the
    colour-preserving permutations, made once per distinct colour table (the
    degree is the table's length) and read by every group with that table.
    """
    rng = random.Random(seed ^ 0x5EED)
    counts: dict[tuple[int, ...], int] = {}
    population: list[tuple[str, PermGroup]] = [
        (f"random-{i}", g) for i, g in enumerate(random_groups(seed, samples, max_degree))
    ]
    population += catalog_realizations(12)

    containment, idempotence, preservation, conjugation, maximality = [], [], [], [], []
    for name, group in population:
        partition = orbital_partition(group)
        closure = two_closure(group)
        if not group.is_subgroup_of(closure):
            containment.append(f"{name}: group escapes its closure")
        if not all(is_in_two_closure(g, partition) for g in group.generators):
            containment.append(f"{name}: a generator fails definitional membership")
        if not two_closure(closure).same_group(closure):
            idempotence.append(f"{name}: closure is not idempotent")
        if orbital_partition(closure).colors != partition.colors:
            preservation.append(f"{name}: closure changed the orbital partition")
        degree = group.degree
        for _ in range(5):
            images = list(range(degree))
            rng.shuffle(images)
            x = Permutation(tuple(images))
            # When x normalizes G, G^x = G, and the search reads only functions
            # of the group (its colouring, a complete chain's basic orbits).
            conjugates = tuple(g.conjugated_by(x) for g in group.generators)
            if all(group.contains(g) for g in conjugates):
                conjugate = PermGroup._from_chain(conjugates, group._chain)
                conjugate._partition = partition
            else:
                conjugate = PermGroup(degree, conjugates, _order=group.order)
            # closure(G^x) = closure^x exactly when the orders agree and x
            # conjugates the left side's generators (G^x's and the ones the
            # search found, which generate it) back into closure.
            left = two_closure(conjugate)
            x_inverse = x.inverse()
            if left.order != closure.order or not all(
                closure.contains(x * s * x_inverse) for s in left.generators
            ):
                conjugation.append(f"{name}: conjugation equivariance failed")
                break
        if degree <= 6:
            # The colour-preserving permutations form a group: the closure
            # exactly when it has the closure's order and strong generators.
            colors = partition.colors
            if colors not in counts:
                counts[colors] = _colour_preserving_count(partition)
            agree = counts[colors] == closure.order and all(
                is_in_two_closure(s, partition) for s in closure.strong_generators
            )
        else:
            thetas = []
            for _ in range(60):
                images = list(range(degree))
                rng.shuffle(images)
                thetas.append(Permutation(tuple(images)))
            agree = all(closure.contains(theta) == is_in_two_closure(theta, partition) for theta in thetas)
        if not agree:
            maximality.append(f"{name}: closure disagrees with definitional membership")

    context = f"{len(population)} groups (seed {seed})"
    return [
        _result("closure-containment", containment, context),
        _result("closure-idempotence", idempotence, context),
        _result("orbital-partition-preserved", preservation, context),
        _result("conjugation-equivariance", conjugation, context),
        _result("closure-maximality", maximality, context),
    ]


# ---------------------------------------------------------------------------
# lemmas suite

def check_paired_involutions_example() -> list[CheckResult]:
    """The worked 6-point example: closure and sub-closures, exactly."""
    failures = []
    g1 = parse_cycles("(1,2)(3,4)", 6)
    g2 = parse_cycles("(3,4)(5,6)", 6)
    group = PermGroup(6, (g1, g2))
    closure = two_closure(group)
    expected = PermGroup(
        6,
        (parse_cycles("(1,2)", 6), parse_cycles("(3,4)", 6), parse_cycles("(5,6)", 6)),
    )
    if closure.order != 8 or not closure.same_group(expected):
        failures.append(f"closure has order {closure.order}, expected the order-8 group")
    if set(closure.elements()) != set(expected.elements()):
        failures.append("closure element set differs from <(1,2),(3,4),(5,6)>")
    for gen in (g1, g2):
        part = PermGroup(6, (gen,))
        part_closure = two_closure(part)
        if not part_closure.same_group(part):
            failures.append(f"<{gen.cycle_string()}> is not its own closure")
    return [_result("paired-involutions-example", failures, "order 8, sub-closures fixed")]


def _on_block(part: PermGroup, offset: int, degree: int) -> PermGroup:
    """`part` on points offset.. of a disjoint union of `degree` points, fixing the rest."""
    before, after = identity(offset), identity(degree - offset - part.degree)
    return PermGroup(degree, [direct_sum([before, g, after]) for g in part.strong_generators], _order=part.order)


def check_commutation_and_center() -> list[CheckResult]:
    commute, abelian, lifting, direct, stab = [], [], [], [], []
    for left, right in COPRIME_PRODUCT_PARTS:
        name, a, b = f"{left}|{right}", realize_name(left), realize_name(right)
        group = disjoint_union_action([a, b])
        a_part, b_part = _on_block(a, 0, group.degree), _on_block(b, a.degree, group.degree)
        closure_a = two_closure(a_part)
        closure_b = two_closure(b_part)
        for x in closure_a.strong_generators:
            for y in closure_b.strong_generators:
                if x * y != y * x:
                    commute.append(f"{name}: commuting parts have non-commuting closures")
        closure = two_closure(group)
        if group.is_abelian() and not closure.is_abelian():
            abelian.append(f"{name}: abelian group has non-abelian closure")
        for z in center(group).elements():
            if any(z * s != s * z for s in closure.strong_generators):
                lifting.append(f"{name}: a central element fails to centralize the closure")
                break
        z_group = center(group)
        z_a = center(a_part)
        z_b = center(b_part)
        closure_z = two_closure(z_group)
        closure_za = two_closure(z_a)
        closure_zb = two_closure(z_b)
        product = {x * y for x in closure_za.elements() for y in closure_zb.elements()}
        if product != set(closure_z.elements()):
            direct.append(f"{name}: center closure is not the product of part center closures")
        if len(intersection_elements(closure_za, closure_zb)) != 1:
            direct.append(f"{name}: part center closures intersect nontrivially")
        for alpha in range(group.degree):
            ga = group.point_stabilizer(alpha)
            ha = a_part.point_stabilizer(alpha)
            ka = b_part.point_stabilizer(alpha)
            combined = {h * k for h in ha.elements() for k in ka.elements()}
            if combined != set(ga.elements()):
                stab.append(f"{name}: point {alpha + 1} stabilizer does not split")
                break
    context = f"{len(COPRIME_PRODUCT_PARTS)} coprime unions"
    return [
        _result("commuting-closures", commute, context),
        _result("abelian-closure", abelian, context),
        _result("center-lifting", lifting, context),
        _result("coprime-center-product", direct, context),
        _result("coprime-stabilizer-splitting", stab, context),
    ]


def standard_witness_certificates() -> list[tuple[str, object]]:
    """The fixed certificate battery used by the lemmas suite."""
    d8 = realize_name("D8")
    sd16 = realize_name("SD16")
    e27 = realize_name("E27")
    return [
        ("abelian-p(2;1,1)", abelian_p_witness(2, (1, 1))),
        ("abelian-p(3;1,1)", abelian_p_witness(3, (1, 1))),
        ("two-group(D8)", two_group_witness(d8, normal_pp_subgroup(d8, 2))),
        ("odd-p(E27)", odd_p_witness(e27, normal_pp_subgroup(e27, 3))),
        ("semidirect(D8)", semidirect_witness(d8, *split_pair(d8))),
        ("semidirect(SD16)", semidirect_witness(sd16, *split_pair(sd16))),
        ("center(Q8xC2)", center_witness(realize_name("Q8xC2"))),
    ]


def check_witness_certificates() -> list[CheckResult]:
    expected_degrees = {
        "abelian-p(2;1,1)": 6,
        "abelian-p(3;1,1)": 9,
        "two-group(D8)": 8,
        "odd-p(E27)": 9,
        "semidirect(D8)": 6,
        "semidirect(SD16)": 10,
        "center(Q8xC2)": 24,
    }
    validity, growth, bounds = [], [], []
    for name, cert in standard_witness_certificates():
        problems = check_certificate(cert)
        if problems:
            validity.append(f"{name}: {problems[0]}")
        if cert.group.degree != expected_degrees[name]:
            validity.append(f"{name}: degree {cert.group.degree} != {expected_degrees[name]}")
        if cert.group.degree <= 32:
            closure = two_closure(cert.group)
            if closure.order <= cert.group.order:
                growth.append(f"{name}: closure did not grow")
            if cert.construction == "abelian-p":
                p = cert.parameters["prime"]
                if closure.order < p * cert.group.order:
                    bounds.append(f"{name}: closure order below p * group order")
                if not closure.is_abelian():
                    bounds.append(f"{name}: closure of an abelian group is not abelian")
                if p == 2 and closure.order != 8:
                    bounds.append(f"{name}: expected closure order exactly 8, got {closure.order}")
    context = "7 constructions"
    return [
        _result("witness-certificates-validate", validity, context),
        _result("witness-closure-growth", growth, context),
        _result("abelian-p-closure-bounds", bounds, context),
    ]


def _is_block_kernel(group: PermGroup, qa: QuotientAction, kernel: PermGroup) -> bool:
    """`kernel` is the block kernel: a subgroup fixing every block, of order |G|/|image|."""
    return (
        kernel.is_subgroup_of(group)
        and all(qa.embed(s).is_identity() for s in kernel.strong_generators)
        and group.order == qa.image.order * kernel.order
    )


def check_quotient_lemmas() -> list[CheckResult]:
    kernel_checks, equivalence_checks, normality_checks = [], [], []

    def qt_instance(name: str, group: PermGroup, h_part: PermGroup) -> None:
        closure = two_closure(group)
        h_closure = two_closure(h_part)
        if not is_normal(closure, h_part):
            normality_checks.append(f"{name}: abelian factor is not normal in the closure")
        qa = quotient_action(group, h_part)
        if not _is_block_kernel(group, qa, h_part):
            kernel_checks.append(f"{name}: block kernel differs from the abelian factor")
        qa_closure = quotient_action(closure, h_part)
        if not _is_block_kernel(closure, qa_closure, h_closure):
            kernel_checks.append(f"{name}: closure block kernel differs from the factor closure")
        if not two_equivalent(qa.image, qa_closure.image):
            equivalence_checks.append(f"{name}: block images are not 2-equivalent")

    c6 = realize_name("C6")
    qt_instance("C6|C3", c6, sylow_decomposition(c6)[3])
    q8c3 = realize_name("Q8xC3")
    qt_instance("Q8xC3|C3", q8c3, sylow_decomposition(q8c3)[3])
    v4 = realize_name("C2xC2")
    v4c3 = disjoint_union_action([v4, realize_name("C3")])
    qt_instance("C2xC2|C3-part", v4c3, _on_block(v4, 0, v4c3.degree))

    remark = PermGroup(6, (parse_cycles("(1,2)(3,4)", 6), parse_cycles("(3,4)(5,6)", 6)))
    remark_closure = two_closure(remark)
    for sub in (PermGroup(remark.degree, (t,)) for t in remark.elements() if t.order() == 2):
        if not is_normal(remark_closure, sub):
            normality_checks.append("embedded-four-group: subgroup not normal in the closure")
            continue
        qa = quotient_action(remark, sub)
        qa_closure = quotient_action(remark_closure, sub)
        if not two_equivalent(qa.image, qa_closure.image):
            equivalence_checks.append("embedded-four-group: block images are not 2-equivalent")
    context = "C6, Q8xC3, C2xC2 instances"
    return [
        _result("block-kernel-claims", kernel_checks, context),
        _result("block-image-2-equivalence", equivalence_checks, context),
        _result("abelian-factor-normal-in-closure", normality_checks, context),
    ]


def check_disjoint_union_contrapositive() -> list[CheckResult]:
    """A union with a non-closed part cannot be closed."""
    failures = []
    inner = abelian_p_witness(2, (1, 1))
    union = disjoint_union_action([inner.group, realize_name("C3")])
    closure = two_closure(union)
    if closure.order <= union.order:
        failures.append("union with a non-closed part came out closed")
    part = _on_block(inner.group, 0, union.degree)
    part_closure = two_closure(part)
    if part_closure.order <= part.order:
        failures.append("embedded non-closed part came out closed")
    return [_result("disjoint-union-contrapositive", failures, "cell witness | C3")]


def check_universal_embedding_invariants() -> list[CheckResult]:
    """Order preservation and stabilizer agreement for a nested embedding."""
    failures = []
    q8c2 = realize_name("Q8xC2")
    cert = center_witness(q8c2)
    if cert.group.order != q8c2.order:
        failures.append("embedded image order differs from the group order")
    for point in range(cert.group.degree):
        direct = cert.group.point_stabilizer(point)
        by_definition = [g for g in cert.group.elements() if g.images[point] == point]
        if set(direct.elements()) != set(by_definition):
            failures.append(f"stabilizer of point {point + 1} disagrees with enumeration")
            break
    return [_result("universal-embedding-invariants", failures, "center witness of Q8xC2")]


def suite_lemmas() -> list[CheckResult]:
    results = []
    results += check_paired_involutions_example()
    results += check_commutation_and_center()
    results += check_witness_certificates()
    results += check_quotient_lemmas()
    results += check_disjoint_union_contrapositive()
    results += check_universal_embedding_invariants()
    return results


# ---------------------------------------------------------------------------
# classification suite

TRIVIAL_STABILIZER_FAMILIES = ["C2", "C3", "C4", "C5", "C7", "C8", "C9", "C16", "Q8", "Q16"]
NONCYCLIC_ABELIAN_FAMILIES = ["C2xC2", "C2xC4", "C3xC3", "C2xC2xC2"]
_CYCLIC_CENTER_FAMILIES = [f"C{n}" for n in range(1, 31)] + ["Q8", "Q16", "Q32"]
# Families with a noncyclic center, and the degree of their center certificate.
_NONCYCLIC_CENTER_DEGREES = {"Q8xC2": 24, "C2xQ8xC3": 27}
# Degree bound of the representations the classification suite closes.
REPRESENTATION_DEGREE = 16


def _noncyclic_center_failures(name: str, group: PermGroup, test: CenterTest) -> list[str]:
    """The center test must fail with a valid certificate of the pinned degree
    and the group's order."""
    degree = _NONCYCLIC_CENTER_DEGREES[name]
    shape = (test.certificate.group.degree, test.certificate.group.order) if test.certificate else None
    if test.passes:
        return [f"{name}: noncyclic center not detected"]
    if shape != (degree, group.order):
        return [f"{name}: expected a certificate of degree {degree} and order {group.order}, got {shape}"]
    if check_certificate(test.certificate):
        return [f"{name}: certificate failed validation"]
    return []


def _has_regular_orbit(group: PermGroup) -> bool:
    """Some point has a trivial stabilizer: |G_x| = |G|/|x^G| is 1."""
    return any(len(orbit) == group.order for orbit in group.orbits())


def suite_classification() -> list[CheckResult]:
    """The nilpotent truth table and its consistency checks, in one pass over
    the catalog.

    Each family is realized and classified once.  The cyclic-center test runs
    once on each family with a positive verdict or a pinned center.  Each
    positive family's faithful representations of degree at most 16 are
    sampled and closed once, and the sample is dropped before the next family.
    """
    verdicts, certificates, closed_up, certization = [], [], [], []
    noncyclic_center, cyclic_center, center_filter, trivial, abelian = [], [], [], [], []
    rep_count = 0
    for name in TWO_CLOSED_FAMILIES + NOT_TWO_CLOSED_FAMILIES:
        group = realize_name(name)
        verdict = classify_nilpotent(group)
        positive = verdict.status == STATUS_TWO_CLOSED
        certificate = verdict.certificate
        problems = check_certificate(certificate) if certificate is not None else []
        if name in TWO_CLOSED_FAMILIES:
            if not positive:
                verdicts.append(f"{name}: expected 2-closed, got {verdict.status}")
        elif verdict.status != STATUS_NOT_TWO_CLOSED:
            verdicts.append(f"{name}: expected not 2-closed, got {verdict.status}")
        elif certificate is None:
            certificates.append(f"{name}: negative verdict without a certificate")
        elif problems:
            certificates.append(f"{name}: {problems[0]}")
        if name in NONCYCLIC_ABELIAN_FAMILIES and (certificate is None or problems):
            abelian.append(f"{name}: no valid certificate")

        if positive or name in _CYCLIC_CENTER_FAMILIES or name in _NONCYCLIC_CENTER_DEGREES:
            test = center_cyclic_test(group)
            if name in _NONCYCLIC_CENTER_DEGREES:
                noncyclic_center += _noncyclic_center_failures(name, group, test)
            if name in _CYCLIC_CENTER_FAMILIES and not test.passes:
                cyclic_center.append(f"{name}: cyclic center flagged as noncyclic")
            if positive and not test.passes:
                center_filter.append(f"{name}: 2-closed verdict with a noncyclic center")

        if name in TWO_CLOSED_FAMILIES:
            for entry in faithful_representations(group, REPRESENTATION_DEGREE):
                action = entry.action
                rep_count += 1
                closed = two_closure(action).same_group(action)
                if not closed:
                    closed_up.append(f"{name}: a degree-{entry.degree} representation closed up")
                # Cyclic p-groups and generalized quaternion groups: every
                # faithful representation has a point with trivial stabilizer.
                if name in TRIVIAL_STABILIZER_FAMILIES:
                    if not _has_regular_orbit(action):
                        trivial.append(f"{name}: a representation with no regular point")
                    if not closed:
                        trivial.append(f"{name}: a representation closed up")
        if name == "Q8xC3":
            sylows = sylow_decomposition(group)
            certification = certify_coprime_product(group, sylows[3], sylows[2])
            if not certification.certified:
                certization.append(f"coprime certification failed: {certification.detail}")
            if not two_closure(group).same_group(group):
                certization.append("direct closure of the 11-point action disagrees")

    group = realize_name("C2xQ8xC3")
    noncyclic_center += _noncyclic_center_failures("C2xQ8xC3", group, center_cyclic_test(group))
    table_context = f"{len(TWO_CLOSED_FAMILIES)} positives, {len(NOT_TWO_CLOSED_FAMILIES)} negatives"
    center_context = "noncyclic fails at degree 24 and 27, cyclic passes"
    return [
        _result("classification-truth-table", verdicts, table_context),
        _result("negative-verdict-certificates", certificates, table_context),
        _result("positive-representations-closed", closed_up, f"{rep_count} representations"),
        _result("coprime-product-certification", certization, "Q8xC3 on 11 points"),
        _result("cyclic-center-test", noncyclic_center + cyclic_center, center_context),
        _result("cyclic-center-filter", center_filter, "whole catalog"),
        _result("trivial-stabilizer-instances", trivial, f"{len(TRIVIAL_STABILIZER_FAMILIES)} groups"),
        _result("noncyclic-abelian-certificates", abelian, f"{len(NONCYCLIC_ABELIAN_FAMILIES)} groups"),
    ]


def suite_axioms(seed: int = 7, max_degree: int = 7) -> list[CheckResult]:
    if max_degree > AXIOMS_DEGREE_GUARD:
        raise GuardExceeded(f"max degree {max_degree} exceeds the axioms suite guard ({AXIOMS_DEGREE_GUARD})")
    return check_closure_axioms(seed=seed, samples=200, max_degree=max_degree)

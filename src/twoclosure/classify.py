"""Decision procedures for 2-closedness of finite nilpotent groups.

A positive verdict is justified by the classification theorem for nilpotent
groups (2-closed iff cyclic, or generalized quaternion times odd cyclic); a
negative verdict always carries a machine-checkable witness certificate.
"""

from __future__ import annotations

from math import prod

from .actions import coprime_direct_factors, quotient_action
from .errors import InternalDefect, PreconditionError
from .group import (
    PermGroup,
    center,
    is_cyclic,
    is_nilpotent,
    prime_factorization,
    sylow_decomposition,
)
from .orbital import two_closure
from .perm import Permutation
from .witnesses import (
    WitnessCertificate,
    _guard_certificate_degree,
    center_witness,
    direct_factor_witness,
    odd_p_witness,
    semidirect_witness,
    two_group_witness,
)

STATUS_TWO_CLOSED = "TwoClosedGroup"
STATUS_NOT_TWO_CLOSED = "NotTwoClosedGroup"
STATUS_NOT_NILPOTENT = "NotNilpotent"

REASON_CYCLIC = "Cyclic"
REASON_QUATERNION_TIMES_ODD_CYCLIC = "QuaternionTimesOddCyclic"
REASON_NONCYCLIC_CENTER = "NoncyclicCenter"
REASON_NONCYCLIC_SYLOW_ODD = "NoncyclicSylowOdd"
REASON_TWO_GROUP_NOT_CYCLIC_OR_QUATERNION = "TwoGroupNotCyclicOrQuaternion"
REASON_NOT_NILPOTENT = "NotNilpotent"


class Verdict:
    __slots__ = ("status", "reason", "certificate")

    def __init__(self, status: str, reason: str, certificate: WitnessCertificate | None) -> None:
        self.status, self.reason, self.certificate = status, reason, certificate


def is_generalized_quaternion(group: PermGroup) -> bool:
    """Noncyclic 2-group of order >= 8 with exactly one involution.

    Such a group is nonabelian, so an abelian group is refused from its
    strong generators before any element is listed.
    """
    if prime_factorization(group.order).keys() != {2}:
        raise PreconditionError("input must be a nontrivial 2-group")
    if group.order < 8 or group.is_abelian():
        return False
    # g*g is the identity for the identity and for each involution.
    one = group.elements()[0]
    return sum(1 for g in group.elements() if g * g == one) == 2


def normal_pp_subgroup(group: PermGroup, p: int) -> PermGroup | None:
    """The normal subgroup of type (p,p) with the least sorted element list,
    or None, in a p-group with cyclic center.

    The center's one subgroup <z> of order p lies in every normal (p,p), so
    each is <z, b> for an element b of order p outside <z> whose conjugates
    under the generators all lie in b<z>.
    """
    elements = group.elements()
    one = elements[0]
    z = [c for c in center(group).elements() if c**p == one]
    if len(z) != p:
        raise PreconditionError("the center must be cyclic")
    best = None
    seen = set(z)
    for b in elements:
        if b in seen or b**p != one:
            continue
        coset = {b * c for c in z}
        if all(b.conjugated_by(s) in coset for s in group.strong_generators):
            members = sorted(c * b**j for c in z for j in range(p))
            seen.update(members)
            best = members if best is None else min(best, members)
    return None if best is None else PermGroup(group.degree, best, _order=len(best))


def split_pair(group: PermGroup) -> tuple[PermGroup, PermGroup]:
    """(normal part, complement) for a dihedral or semidihedral 2-group: the
    least index-2 subgroup without x, and <x> for the least noncentral
    involution x.

    The squares form Φ(P), of index 4, so the index-2 subgroups are Φ ∪ yΦ
    for the three cosets yΦ other than Φ.
    """
    elements = group.elements()
    one = elements[0]
    x = next((g for g in elements if g * g == one and not center(group).contains(g)), None)
    phi = {g * g for g in elements}
    if x is None or x in phi or 4 * len(phi) != group.order:
        raise PreconditionError("the group must be dihedral or semidihedral")
    cosets = [phi]
    for g in elements:
        if not any(g in c for c in cosets):
            cosets.append({g * f for f in phi})
    m = min(sorted(phi | c) for c in cosets[1:] if x not in c)
    return PermGroup(group.degree, m, _order=len(m)), PermGroup(group.degree, (one, x))


def _center_prime(group: PermGroup) -> int:
    """The least prime whose Sylow subgroup of the center is noncyclic."""
    z_sylows = sylow_decomposition(center(group))
    return next(q for q in sorted(z_sylows) if not is_cyclic(z_sylows[q]))


def _bad_primes(sylows: dict[int, PermGroup]) -> list[int]:
    """The primes, in order, whose Sylow subgroup is neither cyclic nor
    generalized quaternion; empty exactly for a 2-closed nilpotent group."""
    return [
        p for p in sorted(sylows)
        if not is_cyclic(sylows[p]) and not (p == 2 and is_generalized_quaternion(sylows[p]))
    ]


def _restriction(
    generators: tuple[Permutation, ...] | list[Permutation], points: tuple[int, ...], order: int | None = None
) -> PermGroup:
    """The group the generators induce on `points`, a union of their orbits,
    relabelled 0, 1, ... in increasing input order."""
    label = {p: i for i, p in enumerate(points)}
    return PermGroup(
        len(points), tuple(Permutation(tuple(label[g.images[p]] for p in points)) for g in generators), _order=order
    )


def direct_factors(group: PermGroup) -> list[tuple[tuple[int, ...], PermGroup]] | None:
    """The group as the direct product of its actions G^B on blocks B of
    orbits, as (points of B, G^B) in order of the least point, or None when
    its moved points do not split into two or more such blocks.

    G embeds in the product of the G^B, so a split holds exactly when the
    block orders multiply to |G|.  The orbits that are not fixed points are
    tried first.  Failing that, each orbit joins every block found so far on
    whose points, together with its own, the group acts with order below the
    product of the two parts' orders, and the product test is made again:
    tests between two blocks cannot decide it alone (C2 x C2 acting on three
    pairs of points is the product of any two of its three actions, not of
    all three).
    """
    orbits = [orbit for orbit in group.orbits() if len(orbit) > 1]
    if len(orbits) < 2:
        return None
    blocks = [(orbit, _restriction(group.generators, orbit)) for orbit in orbits]
    if prod(factor.order for _, factor in blocks) != group.order:
        merged: list[tuple[tuple[int, ...], PermGroup]] = []
        for points, factor in blocks:
            kept = []
            for other_points, other in merged:
                joint_points = tuple(sorted(points + other_points))
                joint = _restriction(group.generators, joint_points)
                if joint.order < factor.order * other.order:
                    points, factor = joint_points, joint
                else:
                    kept.append((other_points, other))
            merged = kept + [(points, factor)]
        blocks = merged
    if len(blocks) < 2 or prod(factor.order for _, factor in blocks) != group.order:
        return None
    return sorted(blocks, key=lambda block: block[0])


def _sylow_certificate(group: PermGroup, sylows: dict[int, PermGroup], bad: list[int]) -> WitnessCertificate:
    """Certificate built on one Sylow subgroup P, lifted over the product Q of
    the others when P is not the whole group.

    A noncyclic center takes the center construction on the Sylow subgroup
    carrying the noncyclic part of the center; otherwise P is the first
    Sylow subgroup in prime order that is neither cyclic nor quaternion.
    Such a p-group has a normal (p,p), or p = 2 and it is dihedral or
    semidihedral (Gorenstein, *Finite Groups*, Thm 5.4.10).  Q acts on the
    input points it moves.
    """
    if not is_cyclic(center(group)):
        p = _center_prime(group)
        inner = center_witness(sylows[p])
    else:
        p = bad[0]
        part = sylows[p]
        # Every p-part certificate has degree at least |P|/p.
        _guard_certificate_degree(part.order // p)
        subgroup = normal_pp_subgroup(part, p)
        if subgroup is not None:
            construct = two_group_witness if p == 2 else odd_p_witness
            inner = construct(part, subgroup)
        elif p == 2:
            inner = semidirect_witness(part, *split_pair(part))
        else:
            raise InternalDefect("odd noncyclic p-group without a normal p x p subgroup")
    if len(sylows) == 1:
        return inner
    others = [g for q in sorted(sylows) if q != p for g in sylows[q].generators]
    moved = tuple(x for x in range(group.degree) if any(g.images[x] != x for g in others))
    complement = _restriction(others, moved, group.order // sylows[p].order)
    return direct_factor_witness(inner, complement, group.degree)


def _certificate(group: PermGroup, sylows: dict[int, PermGroup], bad: list[int]) -> WitnessCertificate:
    """Certificate for a nilpotent group that is not 2-closed.

    When the group splits by orbits (`direct_factors`) and some factor
    A = G^B is not 2-closed on its own, A is certified on its block and the
    certificate is lifted over the action B^Y of G on the other blocks' points
    Y: theta_A extended by the identity on Y (`direct_factor_witness`).  Of
    the failing factors, the one of least order is taken, the first block on
    a tie.  Otherwise, as when only the product fails (Q8 x C4), the
    certificate comes from the Sylow subgroups.
    """
    blocks = direct_factors(group) or []
    for i in sorted(range(len(blocks)), key=lambda i: blocks[i][1].order):
        points, factor = blocks[i]
        factor_sylows = sylow_decomposition(factor)
        factor_bad = _bad_primes(factor_sylows)
        if factor_bad:
            inner = _sylow_certificate(factor, factor_sylows, factor_bad)
            rest = tuple(sorted(q for j, (other, _) in enumerate(blocks) if j != i for q in other))
            complement = _restriction(group.generators, rest, group.order // factor.order)
            return direct_factor_witness(inner, complement, len(points))
    return _sylow_certificate(group, sylows, bad)


def _route(group: PermGroup) -> tuple[str, WitnessCertificate] | None:
    """Reason and certificate for a nilpotent group that is not 2-closed, or
    None for a 2-closed one (every Sylow subgroup cyclic or quaternion).

    The reason is read off the whole group: a noncyclic center first, then
    which Sylow subgroups fail.  The certificate is about the whole group,
    with `group_order` |G|, and comes from `_certificate`.  A group 2-closed
    in every faithful representation forces the same of each direct factor,
    so one failing factor, lifted by the identity on the others' points,
    keeps degrees small.
    """
    if is_cyclic(group):
        return None
    sylows = sylow_decomposition(group)
    if sylows is None:
        raise PreconditionError("witness routing requires a nilpotent group")
    bad = _bad_primes(sylows)
    if not bad:
        return None
    if not is_cyclic(center(group)):
        reason = REASON_NONCYCLIC_CENTER
    elif bad == [2]:
        reason = REASON_TWO_GROUP_NOT_CYCLIC_OR_QUATERNION
    else:
        reason = REASON_NONCYCLIC_SYLOW_ODD
    return reason, _certificate(group, sylows, bad)


def not_two_closed_witness(group: PermGroup) -> WitnessCertificate:
    """Route a nilpotent, non-2-closed group to a validating certificate."""
    routed = _route(group)
    if routed is None:
        raise PreconditionError("input is a 2-closed group")
    return routed[1]


def classify_nilpotent(group: PermGroup) -> Verdict:
    """Classification verdict: 2-closed iff cyclic or quaternion x odd cyclic.

    Cyclicity and nilpotency are read off the generators (a cyclic group is
    nilpotent, so it is tested first); elements are listed only for the
    quaternion test and on the witness route.
    """
    if is_cyclic(group):
        return Verdict(STATUS_TWO_CLOSED, REASON_CYCLIC, None)
    if not is_nilpotent(group):
        return Verdict(STATUS_NOT_NILPOTENT, REASON_NOT_NILPOTENT, None)
    routed = _route(group)
    if routed is None:
        return Verdict(STATUS_TWO_CLOSED, REASON_QUATERNION_TIMES_ODD_CYCLIC, None)
    return Verdict(STATUS_NOT_TWO_CLOSED, *routed)


class CenterTest:
    __slots__ = ("passes", "certificate")

    def __init__(self, passes: bool, certificate: WitnessCertificate | None) -> None:
        self.passes, self.certificate = passes, certificate


def center_cyclic_test(group: PermGroup) -> CenterTest:
    """Cyclic-center necessary condition, with a certificate on failure.

    For a nilpotent group the witness is built on the Sylow subgroup carrying
    the noncyclic part of the center and lifted over the others, as in
    `_sylow_certificate`, so it certifies the input (`group_order` |G|) and
    odd cyclic factors add only the points they move.
    """
    if is_cyclic(center(group)):
        return CenterTest(True, None)
    if is_nilpotent(group):
        return CenterTest(False, _sylow_certificate(group, sylow_decomposition(group), []))
    return CenterTest(False, center_witness(group))


class CoprimeCertification:
    __slots__ = ("certified", "detail")

    def __init__(self, certified: bool, detail: dict) -> None:
        self.certified, self.detail = certified, detail


def certify_coprime_product(
    group: PermGroup,
    abelian_part: PermGroup,
    other_part: PermGroup,
) -> CoprimeCertification:
    """Certify 2-closedness of G = H x K on its points without closing G.

    Requires an internal coprime product with H abelian; certifies when H is
    2-closed on the points and the image of K is 2-closed on the H-orbit
    blocks.  Reports which hypothesis failed otherwise.
    """
    h_group, k_group = coprime_direct_factors(group, abelian_part, other_part)
    if not h_group.is_abelian():
        raise PreconditionError("the first factor must be abelian")

    factor_closed = two_closure(h_group).same_group(h_group)
    qa = quotient_action(group, h_group)
    k_image = PermGroup(
        qa.image.degree, tuple(qa.embed(k) for k in k_group.strong_generators)
    )
    if k_image.order != k_group.order:
        raise InternalDefect("the second factor does not act faithfully on the blocks")
    quotient_closed = two_closure(k_image).same_group(k_image)
    return CoprimeCertification(
        certified=factor_closed and quotient_closed,
        detail={
            "abelian_factor_closed": factor_closed,
            "quotient_factor_closed": quotient_closed,
            "block_count": qa.image.degree,
        },
    )


def certificate_summary(cert: WitnessCertificate) -> dict:
    """JSON-ready summary of a certificate, with the validation it was built with."""
    return {
        "construction": cert.construction,
        "degree": cert.group.degree,
        "group_order": cert.group.order,
        "witness": cert.witness.cycle_string(),
        "evidence_pairs": len(cert.evidence.assignments),
        "parameters": cert.parameters,
        "valid": cert.problems == [],
    }

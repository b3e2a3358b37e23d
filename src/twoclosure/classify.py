"""Decision procedures for 2-closedness of finite nilpotent groups.

A positive verdict is justified by the classification theorem for nilpotent
groups (2-closed iff cyclic, or generalized quaternion times odd cyclic); a
negative verdict always carries a machine-checkable witness certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .actions import coprime_direct_factors, quotient_action
from .catalog import subgroup_lattice
from .errors import InternalDefect, PreconditionError
from .group import (
    PermGroup,
    SubgroupHandle,
    center,
    is_cyclic,
    is_nilpotent,
    prime_factorization,
    sylow_decomposition,
)
from .orbital import two_closure
from .witnesses import (
    WitnessCertificate,
    abelian_p_basis,
    abelian_p_witness,
    center_witness,
    check_certificate,
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


@dataclass(frozen=True, eq=False)
class Verdict:
    status: str
    reason: str
    certificate: WitnessCertificate | None


def is_generalized_quaternion(group: PermGroup) -> bool:
    """Noncyclic 2-group of order >= 8 with exactly one involution."""
    factors = prime_factorization(group.order)
    if group.order == 1 or factors.keys() != {2}:
        raise PreconditionError("input must be a nontrivial 2-group")
    if group.order < 8 or is_cyclic(group):
        return False
    return sum(1 for g in group.elements() if g.order() == 2) == 1


def _first_normal_elementary(lattice: list[SubgroupHandle], p: int) -> PermGroup | None:
    """First normal, noncyclic subgroup of order p^2 and exponent p."""
    for handle in lattice:
        sub = handle.group
        if (
            handle.normal
            and sub.order == p * p
            and not is_cyclic(sub)
        ):
            return sub
    return None


def _first_split_pair(
    group: PermGroup, lattice: list[SubgroupHandle]
) -> tuple[PermGroup, PermGroup] | None:
    """First (normal part, abelian core-free complement) splitting of the group."""
    for h in lattice:
        if h.group.order == 1 or h.group.order == group.order:
            continue
        if h.core_mask != 1 or not h.group.is_abelian():
            continue
        for m in lattice:
            if not m.normal or m.group.order * h.group.order != group.order:
                continue
            if m.mask & h.mask != 1:
                continue  # the parts share more than the identity (index 0)
            return m.group, h.group
    return None


def _center_route(group: PermGroup, decomposition) -> WitnessCertificate:
    """Certificate for a nilpotent group with a noncyclic center, built on the
    Sylow subgroup carrying the noncyclic part of the center."""
    z_sylows = sylow_decomposition(center(group)).sylows
    p = next(q for q in sorted(z_sylows) if not is_cyclic(z_sylows[q]))
    target = decomposition.sylows[p]
    if target.is_abelian():
        return abelian_p_witness(p, abelian_p_basis(target, p)[1])
    return center_witness(target)


def not_two_closed_witness(group: PermGroup) -> WitnessCertificate:
    """Route a nilpotent, non-2-closed group to a validating certificate.

    The center route comes first (it has the weakest structural demands) and
    is aware of coprime direct factors: the construction runs on the Sylow
    subgroup carrying the noncyclic part of the center, which keeps
    certificate degrees minimal and is sound because a group 2-closed in
    every faithful representation forces the same of each direct factor.
    """
    decomposition = sylow_decomposition(group)
    if not decomposition.nilpotent:
        raise PreconditionError("witness routing requires a nilpotent group")
    if _is_positive(group, decomposition):
        raise PreconditionError("input is a 2-closed group")

    if not is_cyclic(center(group)):
        return _center_route(group, decomposition)

    for p in sorted(decomposition.sylows):
        part = decomposition.sylows[p]
        if is_cyclic(part):
            continue
        if p == 2:
            if is_generalized_quaternion(part):
                continue
            lattice = subgroup_lattice(part)
            four_subgroup = _first_normal_elementary(lattice, 2)
            if four_subgroup is not None:
                return two_group_witness(part, four_subgroup)
            split = _first_split_pair(part, lattice)
            if split is not None:
                return semidirect_witness(part, split[0], split[1])
            raise InternalDefect(
                "2-group is neither cyclic nor quaternion yet no construction applies"
            )
        else:
            pp_subgroup = _first_normal_elementary(subgroup_lattice(part), p)
            if pp_subgroup is not None:
                return odd_p_witness(part, pp_subgroup)
            raise InternalDefect(
                "odd noncyclic p-group without a usable normal p x p subgroup"
            )
    raise InternalDefect("no witness construction applies to a non-2-closed input")


def _is_positive(group: PermGroup, decomposition) -> bool:
    if is_cyclic(group):
        return True
    syl2 = decomposition.sylows.get(2)
    odd_cyclic = all(is_cyclic(s) for p, s in decomposition.sylows.items() if p != 2)
    return syl2 is not None and odd_cyclic and is_generalized_quaternion(syl2)


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
    decomposition = sylow_decomposition(group)
    if _is_positive(group, decomposition):
        return Verdict(STATUS_TWO_CLOSED, REASON_QUATERNION_TIMES_ODD_CYCLIC, None)
    certificate = not_two_closed_witness(group)
    if not is_cyclic(center(group)):
        reason = REASON_NONCYCLIC_CENTER
    elif any(not is_cyclic(s) for p, s in decomposition.sylows.items() if p != 2):
        reason = REASON_NONCYCLIC_SYLOW_ODD
    else:
        reason = REASON_TWO_GROUP_NOT_CYCLIC_OR_QUATERNION
    return Verdict(STATUS_NOT_TWO_CLOSED, reason, certificate)


@dataclass(frozen=True, eq=False)
class CenterTest:
    passes: bool
    certificate: WitnessCertificate | None


def center_cyclic_test(group: PermGroup) -> CenterTest:
    """Cyclic-center necessary condition, with a certificate on failure.

    For nilpotent groups the witness targets the Sylow subgroup carrying the
    noncyclic part of the center, so odd cyclic factors never inflate the
    certificate degree.
    """
    z = center(group)
    if is_cyclic(z):
        return CenterTest(True, None)
    decomposition = sylow_decomposition(group)
    if decomposition.nilpotent:
        return CenterTest(False, _center_route(group, decomposition))
    return CenterTest(False, center_witness(group))


@dataclass(frozen=True, eq=False)
class CoprimeCertification:
    certified: bool
    detail: dict


def certify_coprime_product(
    group: PermGroup,
    abelian_part: PermGroup | SubgroupHandle,
    other_part: PermGroup | SubgroupHandle,
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
    """JSON-ready summary of a certificate, including a fresh validation."""
    return {
        "construction": cert.construction,
        "degree": cert.group.degree,
        "group_order": cert.group.order,
        "witness": cert.witness.cycle_string(),
        "evidence_pairs": len(cert.evidence.assignments),
        "parameters": cert.parameters,
        "valid": check_certificate(cert) == [],
    }

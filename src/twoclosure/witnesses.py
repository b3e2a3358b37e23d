"""Explicit constructions proving a group is not 2-closed.

Each construction returns a WitnessCertificate: a faithful permutation
representation of the group and a permutation theta outside the group but
inside its 2-closure.  `check_certificate` re-validates one from that data
alone, without the closure engine: it sifts theta, then derives for every
ordered pair a group element moving the pair as theta does and sifts each
distinct one, so certificates remain checkable at any degree.
"""

from __future__ import annotations

from .actions import coset_action, disjoint_union_action, universal_embedding
from .errors import ConstructionFailure, GuardExceeded, InternalDefect, PreconditionError
from .group import (
    PermGroup,
    _centralizing,
    center,
    intersection_elements,
    is_cyclic,
    is_nilpotent,
    is_normal,
    is_prime,
    prime_factorization,
    sylow_decomposition,
)
from .orbital import membership_evidence
from .perm import Permutation, direct_sum, from_cycles, identity

CONSTRUCTION_ABELIAN_P = "abelian-p"
CONSTRUCTION_TWO_GROUP = "two-group"
CONSTRUCTION_ODD_P = "odd-p"
CONSTRUCTION_SEMIDIRECT = "semidirect"
CONSTRUCTION_CENTER = "center"
CONSTRUCTION_DIRECT_FACTOR = "direct-factor"

# Largest certificate degree a construction builds, a lifted direct-factor
# certificate included.  Its check derives evidence for all n² pairs: the
# degree-1024 center certificate of Q32xQ16xC2 takes 2.3–2.6 s and 79 MB in a
# fresh process on a 2-core VM.
CERTIFICATE_DEGREE_GUARD = 1024


def _guard_certificate_degree(degree: int) -> None:
    """Refuse a certificate whose predicted degree exceeds the guard; called
    before any action is built."""
    if degree > CERTIFICATE_DEGREE_GUARD:
        raise GuardExceeded(f"predicted certificate degree {degree} exceeds the certificate degree guard ({CERTIFICATE_DEGREE_GUARD})")


class WitnessCertificate:
    """A non-2-closedness proof: theta is outside the group but inside its
    2-closure.

    `problems` is the `check_certificate` result, taken once when the
    certificate is built."""

    __slots__ = ("group", "witness", "construction", "parameters", "problems")

    def __init__(self, group: PermGroup, witness: Permutation, construction: str, parameters: dict) -> None:
        self.group, self.witness = group, witness
        self.construction, self.parameters = construction, parameters
        self.problems = check_certificate(self)


def check_certificate(cert: WitnessCertificate) -> list[str]:
    """Re-validate a certificate from its group and theta; returns all
    violations found.  The per-pair evidence is built here, from the
    group's own strong generators, and each distinct element is sifted."""
    n = cert.group.degree
    if cert.witness.degree != n:
        return ["witness degree mismatch"]
    problems = []
    if cert.group.contains(cert.witness):
        problems.append("witness sifts into the group")
    try:
        evidence = membership_evidence(cert.witness, cert.group)
    except PreconditionError:
        problems.append("witness fails definitional closure membership")
        return problems
    elements = evidence.elements
    inside = [cert.group.contains(g) for g in elements]
    theta = cert.witness.images
    for flat, position in enumerate(evidence.assignments):
        a, b = divmod(flat, n)
        if not inside[position]:
            problems.append(f"evidence element for pair ({a + 1},{b + 1}) is outside the group")
            break
        g = elements[position].images
        if g[a] != theta[a] or g[b] != theta[b]:
            problems.append(f"evidence element for pair ({a + 1},{b + 1}) moves it differently")
            break
    return problems


def _assemble(group: PermGroup, witness: Permutation, construction: str, parameters: dict) -> WitnessCertificate:
    cert = WitnessCertificate(group, witness, construction, parameters)
    if cert.problems:
        raise ConstructionFailure("; ".join(cert.problems))
    return cert


# ---------------------------------------------------------------------------
# abelian bases

def abelian_basis(group: PermGroup) -> list[Permutation]:
    """Invariant-factor basis of an abelian group by greedy maximal-order
    peeling: one pass in (-order, element) order keeps g when <g> meets the
    span of the kept elements only in the identity.  The span only grows, so
    an element skipped once stays skipped."""
    if not group.is_abelian():
        raise PreconditionError("group is not abelian")
    basis: list[Permutation] = []
    generated: set[Permutation] = {identity(group.degree)}
    for g in sorted(group.elements(), key=lambda g: (-g.order(), g)):
        powers, h = [], g
        while h not in generated:
            powers.append(h)
            h = h * g
        if powers and h.is_identity():
            basis.append(g)
            generated |= {x * y for x in generated for y in powers}
    if len(generated) != group.order:
        raise InternalDefect("abelian basis extraction got stuck")
    return basis


# ---------------------------------------------------------------------------
# noncyclic abelian p-groups

def _turn(size: int) -> Permutation:
    """The cycle 0 -> 1 -> ... -> size-1 -> 0 that turns one cell."""
    return from_cycles(size, [tuple(range(size))])


def abelian_p_witness(p: int, exponents) -> WitnessCertificate:
    """Witness for a noncyclic abelian p-group with the given cyclic exponents.

    The group is realized on a chain of cells: generator i rotates cells i-1
    and i together, the first generator also rotates one extra cell of size p.
    The extra cell's p-cycle preserves every pair orbit but is not in the
    group, and adjoining it multiplies the order by p.
    """
    exponents = tuple(sorted(exponents))
    if len(exponents) < 2:
        raise PreconditionError("a cyclic group needs at least two factors to be noncyclic")
    if not is_prime(p):
        raise PreconditionError("p must be prime")
    if any(k < 1 for k in exponents):
        raise PreconditionError("exponents must be positive")
    sizes = [p**k for k in exponents] + [p]
    total = sum(sizes)
    _guard_certificate_degree(total)

    def turning(*turned: int) -> Permutation:
        return direct_sum([_turn(size) if ci in turned else identity(size) for ci, size in enumerate(sizes)])

    n = len(exponents)
    gens = [turning(0, n)] + [turning(i - 1, i) for i in range(1, n)]
    group = PermGroup(total, tuple(gens))
    expected = p ** sum(exponents)
    if group.order != expected:
        raise InternalDefect("cell generators are not independent")
    witness = turning(n)
    grown = group._chain.copy()
    grown.add(witness)
    if grown.order() != p * group.order:
        raise InternalDefect("adjoining the extra cycle did not grow the order by p")
    parameters = {
        "prime": p,
        "exponents": list(exponents),
        "cell_sizes": sizes,
        "closure_order_lower_bound": p * group.order,
    }
    return _assemble(group, witness, CONSTRUCTION_ABELIAN_P, parameters)


# ---------------------------------------------------------------------------
# 2-groups with a normal noncentral four-subgroup

def _noncentral_pp(group: PermGroup, subgroup: PermGroup) -> tuple[int, Permutation, Permutation]:
    """Validate the hypothesis of the 2-group and odd-p constructions: a
    p-group with a normal subgroup N of type (p,p) that meets the center in
    order p.  Returns (p, a, b): a is the least nonidentity central element of
    N, and b the first nonidentity element of N outside <a>."""
    factors = prime_factorization(group.order)
    if len(factors) != 1:
        raise PreconditionError("group must be a nontrivial p-group")
    p = next(iter(factors))
    if subgroup.order != p * p or is_cyclic(subgroup):
        raise PreconditionError("subgroup must be elementary abelian of order p^2")
    if not is_normal(group, subgroup):
        raise PreconditionError("subgroup must be normal")
    # N meets Z(G) in the elements of N that commute with G's generators.
    gens = group.strong_generators
    central = [g for g in subgroup.elements() if not g.is_identity() and all(g * s == s * g for s in gens)]
    if len(central) == p * p - 1:
        raise PreconditionError("subgroup is central; use the center construction instead")
    if len(central) != p - 1:
        raise InternalDefect("a normal subgroup of a p-group must meet the center")
    a = min(central)
    a_powers = {a**k for k in range(1, p)}
    b = next(g for g in subgroup.elements() if not g.is_identity() and g not in a_powers)
    return p, a, b


def two_group_witness(group: PermGroup, four_subgroup: PermGroup) -> WitnessCertificate:
    """Witness for a 2-group with a normal four-subgroup meeting the center
    in exactly one involution.

    The four-subgroup acts on four fresh points as <(1,2),(3,4)> with the
    central involution as (1,2); two nested embeddings (first of the
    four-subgroup's centralizer, then of the whole group) produce a faithful
    action on which swapping points 3 and 4 in every sheet preserves all pair
    orbits but avoids the group.
    """
    prime, a, b = _noncentral_pp(group, four_subgroup)
    if prime != 2:
        raise PreconditionError("group must be a 2-group; use the odd-p construction")
    _guard_certificate_degree(group.order)

    delta = 4
    act4 = {a: from_cycles(delta, [(0, 1)]), b: from_cycles(delta, [(2, 3)])}
    centr = _centralizing(group, (b,))  # C_G(N) = C_G(b), since a is central
    if group.order != 2 * centr.order:
        raise InternalDefect("the four-subgroup centralizer must have index 2")
    inner = universal_embedding(centr, four_subgroup, delta, act4)
    outer = universal_embedding(group, centr, inner.image.degree, {c: inner.embed(c) for c in centr.strong_generators})

    # Coset-major layout: point k*|Gamma| + s*4 + d is Delta point d of inner
    # sheet s in outer sheet k, and theta swaps d = 2 and d = 3 in every sheet.
    degree = outer.image.degree
    witness = direct_sum([from_cycles(delta, [(2, 3)])] * (degree // delta))

    # Stab(x) = {1, e} exactly when the orbit of x has length |G|/2 and the
    # nonidentity e fixes x.
    orbit_length = [0] * degree
    for orbit in outer.image.orbits():
        for p in orbit:
            orbit_length[p] = len(orbit)
    phi_a, phi_b = outer.embed(a), outer.embed(b)
    for k, t in enumerate(outer.transversal):
        conj = outer.embed(t * b * t.inverse())
        for p in range(k * inner.image.degree, (k + 1) * inner.image.degree):
            expected = conj if p % delta < 2 else phi_a
            if orbit_length[p] * 2 != group.order or expected.is_identity() or expected.images[p] != p:
                raise InternalDefect("embedded point stabilizers disagree with the construction")
    # Stab(0) = {1, phi(b)}, so the joint stabilizer of points 0 and |Gamma|
    # is trivial exactly when phi(b) moves |Gamma|.
    if phi_b.images[inner.image.degree] == inner.image.degree:
        raise InternalDefect("the two fixed sheets have nontrivial joint stabilizer")

    parameters = {
        "central_involution": a.cycle_string(),
        "moved_involution": b.cycle_string(),
        "outer_coset_representative": outer.transversal[1].cycle_string(),
        "centralizer_order": centr.order,
        "inner_sheets": inner.quotient_order,
    }
    return _assemble(outer.image, witness, CONSTRUCTION_TWO_GROUP, parameters)


# ---------------------------------------------------------------------------
# odd p-groups with a normal noncentral p x p subgroup

def commutator(x: Permutation, y: Permutation) -> Permutation:
    return x.inverse() * y.inverse() * x * y


def _outer_element(group: PermGroup, b: Permutation) -> Permutation:
    """The first element, in canonical order, that does not commute with b."""
    for g in group.elements():
        if g * b != b * g:
            return g
    raise InternalDefect("no element outside the subgroup")


def odd_p_witness(group: PermGroup, pp_subgroup: PermGroup) -> WitnessCertificate:
    """Witness for an odd p-group with a normal p x p subgroup meeting the
    center in exactly one subgroup of order p.

    Acts on the cosets of <b> (b the noncentral generator); the witness
    multiplies exactly one t-exponent class of cosets by the central
    generator a, a move each pair orbit cannot see.  C_G(N) = C_G(b), as a
    is central; it is used only through commutation with b, and never built.
    """
    p, a, b = _noncentral_pp(group, pp_subgroup)
    if p == 2:
        raise PreconditionError("p must be odd; use the 2-group construction")
    _guard_certificate_degree(group.order // p)
    # |G : C_G(b)| = |b^G|: b's conjugates are closed under the strong
    # generators, and there are at most p of them.
    conjugates: set[Permutation] = set()
    grown = {b}
    while len(conjugates) < len(grown) <= p:
        conjugates = grown
        grown = conjugates | {x.conjugated_by(s) for x in conjugates for s in group.strong_generators}
    if len(grown) != p:
        raise InternalDefect("the subgroup centralizer must have index p")
    t = _outer_element(group, b)

    ca = coset_action(group, PermGroup(group.degree, (b,)))
    if ca.image.order != group.order:
        raise InternalDefect("<b> must be core-free")
    # Stab(1) meets Stab(t) trivially when t's point has a regular Stab(1)-orbit.
    stab_one = ca.image.point_stabilizer(ca.point_of_element[identity(group.degree)])
    if len(stab_one.orbit(ca.point_of_element[t])) != stab_one.order:
        raise InternalDefect("base coset stabilizers must intersect trivially")
    # rep = t^i·c with c in C_G(b) centralizing b^(t^i) in b<a>, so b^rep = b^(t^i).
    class_of = {b.conjugated_by(t**i): i for i in range(p)}

    def exponent_class(rep: Permutation) -> int:
        i = class_of.get(b.conjugated_by(rep))
        if i is None:
            raise InternalDefect("coset representative escapes the exponent classes")
        return i

    classes = [exponent_class(rep) for rep in ca.representatives]
    images = []
    for point, rep in enumerate(ca.representatives):
        if classes[point] == 2 % p:
            images.append(ca.point_of_element[rep * a])
        else:
            images.append(point)
    witness = Permutation(tuple(images))

    twist_exponents = {}
    twist_residues = {}
    bezout = {}
    for i in range(p):
        if i == 2 % p:
            continue
        twist = commutator(t ** (i - 2), b.inverse())
        s_i = next((s for s in range(p) if twist == a**s), None)
        if not s_i:
            raise InternalDefect("commutator landed outside <a> or vanished unexpectedly")
        # The twist is central, so [t^(i-2), b^-k] = a^(k s_i) = a for k = 1/s_i mod p.
        k_i = pow(s_i, -1, p)
        twist_residues[i] = s_i
        twist_exponents[i] = k_i
        bezout[i] = (1 - k_i * s_i) // p

    parameters = {
        "prime": p,
        "central_generator": a.cycle_string(),
        "noncentral_generator": b.cycle_string(),
        "outer_element": t.cycle_string(),
        "twist_exponents": {str(i): k for i, k in sorted(twist_exponents.items())},
        "twist_residues": {str(i): s for i, s in sorted(twist_residues.items())},
        "bezout_cofactors": {str(i): l for i, l in sorted(bezout.items())},
    }
    return _assemble(ca.image, witness, CONSTRUCTION_ODD_P, parameters)


# ---------------------------------------------------------------------------
# split nilpotent groups with an abelian core-free complement

def semidirect_witness(
    group: PermGroup,
    normal_part: PermGroup,
    complement: PermGroup,
) -> WitnessCertificate:
    """Witness for a nilpotent group splitting over a normal subgroup with an
    abelian, core-free complement.

    The group is redrawn on the complement's coset space plus one fresh cycle
    cell per cyclic factor of the complement; each complement generator turns
    its own cell in step with its coset action.  The bare cell cycle on the
    first cell preserves every pair orbit without belonging to the redrawn
    group.
    """
    if not is_nilpotent(group):
        raise PreconditionError("group must be nilpotent")
    if not is_normal(group, normal_part):
        raise PreconditionError("the first factor must be normal")
    if not complement.is_abelian():
        raise PreconditionError("the complement must be abelian")
    if len(intersection_elements(normal_part, complement)) != 1:
        raise PreconditionError("the factors must intersect trivially")
    if normal_part.order * complement.order != group.order:
        raise PreconditionError("the factors do not multiply up to the group")
    basis = abelian_basis(complement)
    cell_orders = [h.order() for h in basis]
    _guard_certificate_degree(group.order // complement.order + sum(cell_orders))

    ca = coset_action(group, complement)
    if ca.image.order != group.order:
        raise PreconditionError("the complement must be core-free")
    base_degree = ca.image.degree
    total = base_degree + sum(cell_orders)

    def lift(perm_on_cosets: Permutation, turned_cell: int | None) -> Permutation:
        cells = [_turn(size) if ci == turned_cell else identity(size) for ci, size in enumerate(cell_orders)]
        return direct_sum([perm_on_cosets, *cells])

    gens = [lift(ca.embed(m), None) for m in normal_part.strong_generators]
    gens += [lift(ca.embed(h), ci) for ci, h in enumerate(basis)]
    redrawn = PermGroup(total, tuple(gens))
    if redrawn.order != group.order:
        raise ConstructionFailure(
            f"redrawn group has order {redrawn.order}, expected {group.order}"
        )
    witness = lift(identity(base_degree), 0)
    parameters = {
        "complement_factor_orders": cell_orders,
        "complement_factors": [h.cycle_string() for h in basis],
        "normal_part_order": normal_part.order,
        "coset_degree": base_degree,
    }
    return _assemble(redrawn, witness, CONSTRUCTION_SEMIDIRECT, parameters)


# ---------------------------------------------------------------------------
# noncyclic centers

def _center_prime(z: PermGroup) -> tuple[int, PermGroup]:
    """The least prime p whose Sylow p-subgroup of a noncyclic center z is
    noncyclic, and that subgroup."""
    z_sylows = sylow_decomposition(z)
    for p in sorted(z_sylows):
        if not is_cyclic(z_sylows[p]):
            return p, z_sylows[p]
    raise InternalDefect("noncyclic abelian group has no noncyclic Sylow subgroup")


def center_witness(group: PermGroup) -> WitnessCertificate:
    """Witness for any group whose center is noncyclic.

    Picks a noncyclic Sylow subgroup N of the center, takes the cell witness
    for N, and transports it through the universal embedding on Delta x G/N:
    the lifted witness moves only the Delta coordinate, which central elements
    alone control, so every pair orbit is preserved while the group is missed.
    """
    z = center(group)
    if is_cyclic(z):
        raise PreconditionError("the center is cyclic")
    p, n_group = _center_prime(z)
    basis = sorted(abelian_basis(n_group), key=lambda g: (g.order(), g))
    exponents = [prime_factorization(g.order())[p] for g in basis]
    _guard_certificate_degree((sum(p**k for k in exponents) + p) * (group.order // n_group.order))

    inner = abelian_p_witness(p, exponents)
    if n_group.same_group(group):
        return inner

    d = inner.group.degree
    emb = universal_embedding(group, n_group, d, dict(zip(basis, inner.group.generators)))
    for x, block in emb.mapping.items():
        if emb.embed(x) != direct_sum([block] * emb.quotient_order):
            raise InternalDefect("central element moved the quotient coordinate")

    witness = direct_sum([inner.witness] * emb.quotient_order)
    parameters = {
        "prime": p,
        "exponents": list(exponents),
        "inner_degree": d,
        "quotient_order": emb.quotient_order,
        "inner_parameters": inner.parameters,
    }
    return _assemble(emb.image, witness, CONSTRUCTION_CENTER, parameters)


# ---------------------------------------------------------------------------
# direct products

def direct_factor_witness(inner: WitnessCertificate, complement: PermGroup, block_size: int) -> WitnessCertificate:
    """Witness for A x B from a certificate of A: the group H = cert(A) x B on
    X ⊔ Y, with X the inner certificate's points and Y the complement's, and
    theta = theta_A extended by the identity on Y.

    Every orbital of H lies inside X, where it is an orbital of cert(A),
    inside Y, or is a product O_A(x) x O_B(y); theta_A preserves each of them.
    theta fixes Y pointwise, so if it lay in H it would lie in cert(A).
    `block_size` is the number of input points A was certified on.
    """
    _guard_certificate_degree(inner.group.degree + complement.degree)
    group = disjoint_union_action([inner.group, complement])
    parameters = {
        "inner_construction": inner.construction,
        "inner_degree": inner.group.degree,
        "factor_order": inner.group.order,
        "complement_order": complement.order,
        "block_size": block_size,
        "inner_parameters": inner.parameters,
    }
    witness = direct_sum([inner.witness, identity(complement.degree)])
    return _assemble(group, witness, CONSTRUCTION_DIRECT_FACTOR, parameters)

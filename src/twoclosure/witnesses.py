"""Explicit constructions proving a group is not 2-closed.

Each construction returns a WitnessCertificate: a faithful permutation
representation of the group, a permutation theta outside the group, and a
per-pair evidence table proving theta lies in the 2-closure definitionally.
Certificates re-validate from scratch without the closure engine, so they
remain checkable at any degree.
"""

from __future__ import annotations

import itertools

from .actions import _shifted, action_hom, coset_action, universal_embedding
from .errors import ConstructionFailure, GuardExceeded, InternalDefect, PreconditionError
from .group import (
    PermGroup,
    as_subgroup,
    center,
    centralizer,
    core,
    intersection_elements,
    is_cyclic,
    is_nilpotent,
    is_normal,
    is_prime,
    prime_factorization,
    sylow_decomposition,
)
from .orbital import MembershipEvidence, membership_evidence, orbital_partition
from .perm import Permutation, from_cycles, identity

CONSTRUCTION_ABELIAN_P = "abelian-p"
CONSTRUCTION_TWO_GROUP = "two-group"
CONSTRUCTION_ODD_P = "odd-p"
CONSTRUCTION_SEMIDIRECT = "semidirect"
CONSTRUCTION_CENTER = "center"
CONSTRUCTION_DIRECT_FACTOR = "direct-factor"

# Largest certificate degree a construction builds, a lifted direct-factor
# certificate included.  Evidence covers all n² pairs: the degree-1024 center
# certificate of Q32xQ16xC2 takes 5 s, 112 MB.
CERTIFICATE_DEGREE_GUARD = 1024


def _guard_certificate_degree(degree: int) -> None:
    """Refuse a certificate whose predicted degree exceeds the guard; called
    before any action is built."""
    if degree > CERTIFICATE_DEGREE_GUARD:
        raise GuardExceeded(f"predicted certificate degree {degree} exceeds the certificate degree guard ({CERTIFICATE_DEGREE_GUARD})")


class WitnessCertificate:
    """A non-2-closedness proof: theta is outside the group but inside its
    2-closure, with a group element of evidence for every ordered pair.

    `problems` is the `check_certificate` result, taken once when the
    certificate is built."""

    __slots__ = ("group", "witness", "evidence", "construction", "parameters", "problems")

    def __init__(
        self, group: PermGroup, witness: Permutation, evidence: MembershipEvidence, construction: str, parameters: dict,
    ) -> None:
        self.group, self.witness, self.evidence = group, witness, evidence
        self.construction, self.parameters = construction, parameters
        self.problems = check_certificate(self)


def check_certificate(cert: WitnessCertificate) -> list[str]:
    """Re-validate a certificate from scratch; returns all violations found."""
    problems = []
    n = cert.group.degree
    if cert.witness.degree != n:
        problems.append("witness degree mismatch")
        return problems
    if cert.group.contains(cert.witness):
        problems.append("witness sifts into the group")
    elements, assignments = cert.evidence.elements, cert.evidence.assignments
    if len(assignments) != n * n or min(assignments) < 0 or max(assignments) >= len(elements):
        problems.append("evidence does not cover every ordered pair")
        return problems
    inside = [cert.group.contains(g) for g in elements]
    theta = cert.witness.images
    for flat, position in enumerate(assignments):
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
    try:
        evidence = membership_evidence(witness, orbital_partition(group))
    except PreconditionError as error:
        raise ConstructionFailure("constructed witness fails definitional closure membership") from error
    cert = WitnessCertificate(group, witness, evidence, construction, parameters)
    if cert.problems:
        raise ConstructionFailure("; ".join(cert.problems))
    return cert


# ---------------------------------------------------------------------------
# abelian bases

def abelian_basis(group: PermGroup) -> list[Permutation]:
    """Invariant-factor basis of an abelian group by greedy maximal-order peeling."""
    if not group.is_abelian():
        raise PreconditionError("group is not abelian")
    elements = group.elements()
    basis: list[Permutation] = []
    generated: set[Permutation] = {identity(group.degree)}
    by_preference = sorted(elements, key=lambda g: (-g.order(), g))
    while len(generated) < group.order:
        chosen = None
        for g in by_preference:
            if g in generated:
                continue
            powers = []
            h = g
            independent = True
            while not h.is_identity():
                if h in generated:
                    independent = False
                    break
                powers.append(h)
                h = h * g
            if independent:
                chosen = (g, powers)
                break
        if chosen is None:
            raise InternalDefect("abelian basis extraction got stuck")
        g, powers = chosen
        basis.append(g)
        generated = {a * p for a in generated for p in powers} | generated
    total = 1
    for g in basis:
        total *= g.order()
    if total != group.order:
        raise InternalDefect("abelian basis orders do not multiply to the group order")
    return basis


def abelian_p_basis(group: PermGroup, p: int) -> tuple[list[Permutation], list[int]]:
    """Basis of an abelian p-group sorted by element order, with the exponent
    k of each basis element's order p^k."""
    basis = sorted(abelian_basis(group), key=lambda g: (g.order(), g))
    exponents = []
    for g in basis:
        e = 0
        o = g.order()
        while o > 1:
            o //= p
            e += 1
        exponents.append(e)
    return basis, exponents


def element_coordinates(group: PermGroup, basis: list[Permutation]) -> dict[Permutation, tuple[int, ...]]:
    """Exponent coordinates of every element relative to an independent basis."""
    coords: dict[Permutation, tuple[int, ...]] = {}
    ranges = [range(g.order()) for g in basis]
    for exponents in itertools.product(*ranges):
        e = identity(group.degree)
        for g, k in zip(basis, exponents):
            e = e * g**k
        coords.setdefault(e, exponents)
    if len(coords) != group.order:
        raise InternalDefect("basis does not span the group")
    return coords


# ---------------------------------------------------------------------------
# noncyclic abelian p-groups

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
    _guard_certificate_degree(sum(sizes))
    offsets = []
    total = 0
    for size in sizes:
        offsets.append(total)
        total += size

    def cell_cycle(ci: int) -> tuple[int, ...]:
        return tuple(range(offsets[ci], offsets[ci] + sizes[ci]))

    n = len(exponents)
    gens = [from_cycles(total, [cell_cycle(n), cell_cycle(0)])]
    for i in range(1, n):
        gens.append(from_cycles(total, [cell_cycle(i - 1), cell_cycle(i)]))
    group = PermGroup(total, tuple(gens))
    expected = p ** sum(exponents)
    if group.order != expected:
        raise InternalDefect("cell generators are not independent")
    witness = from_cycles(total, [cell_cycle(n)])
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

def _first_outside(group: PermGroup, subgroup: PermGroup) -> Permutation:
    for g in group.elements():
        if not subgroup.contains(g):
            return g
    raise InternalDefect("no element outside the subgroup")


def two_group_witness(group: PermGroup, four_subgroup: PermGroup) -> WitnessCertificate:
    """Witness for a 2-group with a normal four-subgroup meeting the center
    in exactly one involution.

    The four-subgroup acts on four fresh points as <(1,2),(3,4)> with the
    central involution as (1,2); two nested embeddings (first of the
    four-subgroup's centralizer, then of the whole group) produce a faithful
    action on which swapping points 3 and 4 in every sheet preserves all pair
    orbits but avoids the group.
    """
    n_group = as_subgroup(group, four_subgroup)
    if len(prime_factorization(group.order)) != 1 or group.order % 2:
        raise PreconditionError("group must be a nontrivial 2-group")
    if n_group.order != 4 or is_cyclic(n_group):
        raise PreconditionError("subgroup must be a four-group")
    if not is_normal(group, n_group):
        raise PreconditionError("four-subgroup must be normal")
    central = [g for g in intersection_elements(n_group, center(group)) if not g.is_identity()]
    if len(central) == 3:
        raise PreconditionError(
            "four-subgroup is central; use the center construction instead"
        )
    if len(central) != 1:
        raise InternalDefect("a normal subgroup of a 2-group must meet the center")
    _guard_certificate_degree(group.order)
    a = central[0]
    b = next(g for g in n_group.elements() if not g.is_identity() and g != a)

    delta = 4
    act4 = action_hom(
        n_group,
        delta,
        {
            identity(group.degree): identity(delta),
            a: from_cycles(delta, [(0, 1)]),
            b: from_cycles(delta, [(2, 3)]),
            a * b: from_cycles(delta, [(0, 1), (2, 3)]),
        },
    )
    centr = centralizer(group, n_group)
    if group.order != 2 * centr.order:
        raise InternalDefect("the four-subgroup centralizer must have index 2")
    inner = universal_embedding(centr, n_group, act4)
    act_gamma = action_hom(centr, inner.image.degree, {c: inner.embed(c) for c in centr.elements()})
    outer = universal_embedding(group, centr, act_gamma)

    # Coset-major layout: point k*|Gamma| + s*4 + d is Delta point d of inner
    # sheet s in outer sheet k, and theta swaps d = 2 and d = 3 in every sheet.
    degree = outer.image.degree
    witness = Permutation(tuple(p ^ 1 if p % delta >= 2 else p for p in range(degree)))

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


def odd_p_witness(group: PermGroup, pp_subgroup: PermGroup) -> WitnessCertificate:
    """Witness for an odd p-group with a normal p x p subgroup meeting the
    center in exactly one subgroup of order p.

    Acts on the cosets of <b> (b the noncentral generator); the witness
    multiplies exactly one t-exponent class of cosets by the central
    generator a, a move each pair orbit cannot see.
    """
    n_group = as_subgroup(group, pp_subgroup)
    factors = prime_factorization(group.order)
    if len(factors) != 1:
        raise PreconditionError("group must be a p-group")
    p = next(iter(factors))
    if p == 2:
        raise PreconditionError("p must be odd; use the 2-group construction")
    if n_group.order != p * p or is_cyclic(n_group):
        raise PreconditionError("subgroup must be elementary abelian of order p^2")
    if not is_normal(group, n_group):
        raise PreconditionError("subgroup must be normal")
    central_part = [g for g in intersection_elements(n_group, center(group)) if not g.is_identity()]
    if len(central_part) == n_group.order - 1:
        raise PreconditionError("subgroup is central; use the abelian construction instead")
    if len(central_part) != p - 1:
        raise InternalDefect("subgroup must meet the center in order exactly p")
    _guard_certificate_degree(group.order // p)
    a = min(central_part)
    a_powers = {a**k for k in range(1, p)}
    b = next(g for g in n_group.elements() if not g.is_identity() and g not in a_powers)

    centr = centralizer(group, n_group)
    if group.order != p * centr.order:
        raise InternalDefect("the subgroup centralizer must have index p")
    t = _first_outside(group, centr)
    h_sub = PermGroup(group.degree, (b,))
    if core(group, h_sub).order != 1:
        raise InternalDefect("<b> must be core-free")

    ca = coset_action(group, h_sub)
    t_powers = [t**i for i in range(p)]

    def exponent_class(rep: Permutation) -> int:
        for i in range(p):
            if centr.contains(t_powers[i].inverse() * rep):
                return i
        raise InternalDefect("coset representative escapes the exponent classes")

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
        s_i = next(
            (s for s in range(p) if commutator(t ** (i - 2), b.inverse()) == a**s),
            None,
        )
        if not s_i:
            raise InternalDefect("commutator landed outside <a> or vanished unexpectedly")
        k_i = next(k for k in range(1, p) if commutator(t ** (i - 2), b ** (-k)) == a)
        twist_residues[i] = s_i
        twist_exponents[i] = k_i
        bezout[i] = (1 - k_i * s_i) // p

    stab_one = set(ca.image.point_stabilizer(ca.point_of_element[identity(group.degree)]).elements())
    stab_t = set(ca.image.point_stabilizer(ca.point_of_element[t]).elements())
    if len(stab_one & stab_t) != 1:
        raise InternalDefect("base coset stabilizers must intersect trivially")

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
    m_group = as_subgroup(group, normal_part)
    h_group = as_subgroup(group, complement)
    if not is_nilpotent(group):
        raise PreconditionError("group must be nilpotent")
    if not is_normal(group, m_group):
        raise PreconditionError("the first factor must be normal")
    if not h_group.is_abelian():
        raise PreconditionError("the complement must be abelian")
    if len(intersection_elements(m_group, h_group)) != 1:
        raise PreconditionError("the factors must intersect trivially")
    if m_group.order * h_group.order != group.order:
        raise PreconditionError("the factors do not multiply up to the group")
    if core(group, h_group).order != 1:
        raise PreconditionError("the complement must be core-free")
    basis = abelian_basis(h_group)
    cell_orders = [h.order() for h in basis]
    _guard_certificate_degree(group.order // h_group.order + sum(cell_orders))

    ca = coset_action(group, h_group)
    base_degree = ca.image.degree
    total = base_degree + sum(cell_orders)
    offsets = []
    off = base_degree
    for size in cell_orders:
        offsets.append(off)
        off += size

    def lift(perm_on_cosets: Permutation, turned_cell: int | None) -> Permutation:
        images = list(range(total))
        for i, j in enumerate(perm_on_cosets.images):
            images[i] = j
        if turned_cell is not None:
            off, size = offsets[turned_cell], cell_orders[turned_cell]
            for j in range(size):
                images[off + j] = off + (j + 1) % size
        return Permutation(tuple(images))

    gens = [lift(ca.embed(m), None) for m in m_group.strong_generators]
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
        "normal_part_order": m_group.order,
        "coset_degree": base_degree,
    }
    return _assemble(redrawn, witness, CONSTRUCTION_SEMIDIRECT, parameters)


# ---------------------------------------------------------------------------
# noncyclic centers

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
    z_sylows = sylow_decomposition(z)
    chosen = None
    for p in sorted(z_sylows):
        if not is_cyclic(z_sylows[p]):
            chosen = p
            break
    if chosen is None:
        raise InternalDefect("noncyclic abelian group has no noncyclic Sylow subgroup")
    p = chosen
    n_group = z_sylows[p]
    basis, exponents = abelian_p_basis(n_group, p)
    _guard_certificate_degree((sum(p**k for k in exponents) + p) * (group.order // n_group.order))

    inner = abelian_p_witness(p, exponents)
    if n_group.same_group(group):
        return inner

    coords = element_coordinates(n_group, basis)
    mapping = {}
    for elem, exps in coords.items():
        img = identity(inner.group.degree)
        for h, k in zip(inner.group.generators, exps):
            img = img * h**k
        mapping[elem] = img
    act = action_hom(n_group, inner.group.degree, mapping)
    emb = universal_embedding(group, n_group, act)

    d = inner.group.degree
    for x in n_group.elements():
        moved = emb.embed(x)
        block = act.of(x)
        for u in range(emb.quotient_order):
            for delta in range(d):
                if moved.images[u * d + delta] != u * d + block.images[delta]:
                    raise InternalDefect("central element moved the quotient coordinate")

    theta = inner.witness
    images = [u * d + theta.images[delta] for u in range(emb.quotient_order) for delta in range(d)]
    witness = Permutation(tuple(images))
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
    d = inner.group.degree
    degree = d + complement.degree
    _guard_certificate_degree(degree)
    generators = [_shifted(g, 0, degree) for g in inner.group.generators]
    generators += [_shifted(g, d, degree) for g in complement.generators]
    group = PermGroup(degree, generators, _order=inner.group.order * complement.order)
    parameters = {
        "inner_construction": inner.construction,
        "inner_degree": d,
        "factor_order": inner.group.order,
        "complement_order": complement.order,
        "block_size": block_size,
        "inner_parameters": inner.parameters,
    }
    return _assemble(group, _shifted(inner.witness, 0, degree), CONSTRUCTION_DIRECT_FACTOR, parameters)

"""Seeded inputs for the four benchmark workloads.

Everything here is plain Python and never imports twoclosure: the groups are
built from their textbook definitions, and each instance carries the facts the
oracle needs (the family name, or the input generators and, where theory
gives it, the exact closure order).  Permutations are 0-based image tuples.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from dataclasses import dataclass, field

Perm = tuple[int, ...]

WORKLOADS = ("classify-lattice", "witness-center", "closure-search", "verify-suites")

# classify -i: the three lattice-routed negatives (D64, E125, D32xC3), the
# center-routed negative Q8xC2, and the two theorem positives.
CLASSIFY_FAMILIES = ("D64", "E125", "D32xC3", "Q8xC2", "Q32xC3", "C1000")
# witness --family: center certificates of degree 32, 48, 81 and 96.
WITNESS_FAMILIES = ("Q8xC4", "D16xC2", "E27xC3", "D32xC2")
VERIFY_SUITES = ("axioms", "lemmas", "classification")
VERIFY_MAX_DEGREE = 7
# Degrees of the random 2-generator groups in closure-search.
RANDOM_DEGREES = (10, 11, 12, 13, 14)
# Sym(20) from (1,2) and a 20-cycle, the longest closure call.
CLOSURE_LARGEST = "sym20"


@dataclass
class Invocation:
    """One CLI call: its arguments, the spec file it reads, what the oracle knows."""

    name: str
    kind: str  # classify | witness | closure | verify
    args: list[str]
    expect: dict
    spec: dict | None = None
    spec_file: str | None = None


@dataclass
class Workload:
    name: str
    invocations: list[Invocation] = field(default_factory=list)
    # The longest call whose work does not change with the seed; `largest_s`
    # times it, so runs with different seeds time the same work.
    largest: str = ""


# ---------------------------------------------------------------------------
# permutations

def from_cycles(n: int, cycles) -> Perm:
    images = list(range(n))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
    return tuple(images)


def cycle_string(p: Perm) -> str:
    """1-based disjoint-cycle notation, ``()`` for the identity."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            continue
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = True
            cycle.append(str(i + 1))
            i = p[i]
        out.append("(" + ",".join(cycle) + ")")
    return "".join(out) or "()"


_CYCLE_RE = re.compile(r"\(([0-9,]*)\)")


def parse_cycle_string(text: str, n: int) -> Perm:
    """Inverse of `cycle_string`; raises ValueError on anything else."""
    if not text or _CYCLE_RE.sub("", text) != "":
        raise ValueError(f"not a cycle string: {text!r}")
    cycles = []
    used: set[int] = set()
    for body in _CYCLE_RE.findall(text):
        points = [int(x) - 1 for x in body.split(",")] if body else []
        if any(not 0 <= x < n or x in used for x in points) or len(set(points)) != len(points):
            raise ValueError(f"bad points in {text!r} for degree {n}")
        used.update(points)
        cycles.append(tuple(points))
    return from_cycles(n, cycles)


def relabel(gens: list[Perm], sigma: Perm) -> list[Perm]:
    """The same group with point i renamed sigma[i]."""
    out = []
    for g in gens:
        images = [0] * len(g)
        for i, j in enumerate(g):
            images[sigma[i]] = sigma[j]
        out.append(tuple(images))
    return out


def disjoint_union(parts: list[tuple[int, list[Perm]]]) -> tuple[int, list[Perm]]:
    """Direct product acting on the disjoint union of the parts' points."""
    total = sum(n for n, _ in parts)
    gens = []
    offset = 0
    for n, part_gens in parts:
        for g in part_gens:
            images = list(range(total))
            for i, j in enumerate(g):
                images[offset + i] = offset + j
            gens.append(tuple(images))
        offset += n
    return total, gens


def induced_action(points: list, gens: list, act) -> list[Perm]:
    """Generators acting on `points` through `act(point, generator)`."""
    index = {pt: i for i, pt in enumerate(points)}
    return [tuple(index[act(pt, g)] for pt in points) for g in gens]


# ---------------------------------------------------------------------------
# catalog families, built from their presentations

_ATOM_RE = re.compile(r"^(C|D|Q|E)(\d+)$")


def family_parts(name: str) -> list[tuple[str, int]]:
    parts = []
    for token in name.split("x"):
        m = _ATOM_RE.match(token)
        if not m:
            raise ValueError(f"unknown family token {token!r}")
        parts.append((m.group(1), int(m.group(2))))
    return parts


def _atom(kind: str, order: int) -> tuple[int, list[Perm]]:
    if kind == "C":
        return order, ([from_cycles(order, [tuple(range(order))])] if order > 1 else [])
    if kind == "D":
        n = order // 2
        return n, [from_cycles(n, [tuple(range(n))]), tuple((n - i) % n for i in range(n))]
    if kind == "Q":
        # Right-regular action on a^i b^e, with a^m = 1, b^2 = a^(m/2), a^b = a^-1.
        m = order // 2
        a = [0] * order
        b = [0] * order
        for i in range(m):
            a[i], a[m + i] = (i + 1) % m, m + (i - 1) % m
            b[i], b[m + i] = m + i, (i + m // 2) % m
        return order, [tuple(a), tuple(b)]
    if kind == "E":
        # Heisenberg group mod p on the cosets of a noncentral subgroup of order p.
        p = round(order ** (1 / 3))
        x_shift = tuple(((x + 1) % p) * p + z for x in range(p) for z in range(p))
        z_twist = tuple(x * p + (z + x) % p for x in range(p) for z in range(p))
        return p * p, [x_shift, z_twist]
    raise ValueError(kind)


def family_group(name: str) -> tuple[int, list[Perm]]:
    return disjoint_union([_atom(kind, order) for kind, order in family_parts(name)])


def family_order(name: str) -> int:
    return math.prod(order for _, order in family_parts(name))


# ---------------------------------------------------------------------------
# closure-search shapes; each returns (degree, generators, known closure order)

def _random_pair(rng: random.Random, n: int) -> tuple[int, list[Perm], None]:
    gens = []
    for _ in range(2):
        images = list(range(n))
        rng.shuffle(images)
        gens.append(tuple(images))
    # Almost always Sym(n) or Alt(n); the oracle derives the closure order
    # from the pair orbits (2-transitive means Sym(n)).
    return n, gens, None


def _vector_group(rng: random.Random, blocks: int, rank: int) -> tuple[int, list[Perm], int]:
    # C2^rank acting on `blocks` point pairs; block i is flipped by the
    # generators whose bit is set in its coordinate functional.  The closure
    # is every flip pattern constant on blocks with equal functionals.
    functionals = [rng.randrange(1, 2**rank) for _ in range(blocks)]
    gens = []
    for bit in range(rank):
        images = list(range(2 * blocks))
        for i, f in enumerate(functionals):
            if f >> bit & 1:
                images[2 * i], images[2 * i + 1] = 2 * i + 1, 2 * i
        gens.append(tuple(images))
    return 2 * blocks, gens, 2 ** len(set(functionals))


def _symmetric_gens(n: int) -> list[Perm]:
    return [from_cycles(n, [(0, 1)]), from_cycles(n, [tuple(range(n))])] if n > 1 else []


def _alternating_gens(n: int) -> list[Perm]:
    long_cycle = tuple(range(n)) if n % 2 else tuple(range(1, n))
    return [from_cycles(n, [(0, 1, 2)]), from_cycles(n, [long_cycle])]


def _wreath_imprimitive(inner: tuple[int, list[Perm]], m: int) -> tuple[int, list[Perm]]:
    """inner wr Sym(m), acting on m copies of the inner points."""
    n, gens = inner
    base = disjoint_union([(n, gens)] + [(n, [])] * (m - 1))[1]
    top = [tuple(b * n + i for b in s for i in range(n)) for s in _symmetric_gens(m)]
    return n * m, base + top


def _iterated_wreath(levels: tuple[int, ...]) -> tuple[int, list[Perm], int]:
    # Sym(a) wr Sym(b) wr ...: the automorphism group of a rooted tree's
    # leaves, hence 2-closed.
    first, *rest = levels
    group, order = (first, _symmetric_gens(first)), math.factorial(first)
    for m in rest:
        group, order = _wreath_imprimitive(group, m), order**m * math.factorial(m)
    return group[0], group[1], order


def _subset_action(n: int, k: int, alternating: bool) -> tuple[int, list[Perm], int]:
    # Closure of the k-subset action is the automorphism group of the Johnson
    # scheme: Sym(n), times 2 (complementation) when n = 2k.
    gens = _alternating_gens(n) if alternating else _symmetric_gens(n)
    points = list(itertools.combinations(range(n), k))
    action = induced_action(points, gens, lambda s, g: tuple(sorted(g[x] for x in s)))
    closure = math.factorial(n) * (2 if n == 2 * k else 1)
    return len(points), action, closure


def _product_action(q: int, d: int) -> tuple[int, list[Perm], int]:
    # Sym(q) wr Sym(d) on d-tuples: the automorphism group of the Hamming
    # scheme H(d, q), hence 2-closed.
    points = list(itertools.product(range(q), repeat=d))
    coordinate = [("coord", g) for g in _symmetric_gens(q)]
    shuffle = [("shuffle", s) for s in _symmetric_gens(d)]

    def act(pt, g):
        how, perm = g
        if how == "coord":
            return (perm[pt[0]],) + pt[1:]
        out = [0] * d
        for i, x in enumerate(pt):
            out[perm[i]] = x
        return tuple(out)

    order = math.factorial(q) ** d * math.factorial(d)
    return len(points), induced_action(points, coordinate + shuffle, act), order


def _affine_squares(rng: random.Random, p: int) -> tuple[int, list[Perm], int]:
    # x -> a x + b over GF(p), a a nonzero square: the automorphism group of
    # the Paley graph (p = 1 mod 4) or tournament (p = 3 mod 4), 2-closed.
    # The seed picks which generator of the squares is used.
    half = (p - 1) // 2
    a = rng.choice([
        s for s in range(2, p)
        if pow(s, half, p) == 1 and len({pow(s, k, p) for k in range(half)}) == half
    ])
    translate = tuple((x + 1) % p for x in range(p))
    scale = tuple(a * x % p for x in range(p))
    return p, [translate, scale], p * (p - 1) // 2


def closure_shapes(rng: random.Random) -> list[tuple[str, tuple[int, list[Perm], int | None]]]:
    """Fixed shapes; the seed draws the random pairs, the vector group's
    functionals and the affine multipliers."""
    shapes = [(f"random{n}", _random_pair(rng, n)) for n in RANDOM_DEGREES]
    shapes += [
        (CLOSURE_LARGEST, (20, _symmetric_gens(20), math.factorial(20))),
        ("vector32", _vector_group(rng, 16, 6)),
        ("wreath16", _iterated_wreath((2, 2, 2, 2))),
        ("wreath24", _iterated_wreath((2, 3, 2, 2))),
        ("A8-on-2-sets", _subset_action(8, 2, True)),
        ("S6-on-3-sets", _subset_action(6, 3, False)),
        ("S4-wr-S2-product", _product_action(4, 2)),
        ("S3-wr-S3-product", _product_action(3, 3)),
        ("affine29", _affine_squares(rng, 29)),
        ("affine31", _affine_squares(rng, 31)),
    ]
    return shapes


# ---------------------------------------------------------------------------
# workloads

def _random_relabel(rng: random.Random, degree: int, gens: list[Perm]) -> list[Perm]:
    sigma = list(range(degree))
    rng.shuffle(sigma)
    return relabel(gens, tuple(sigma))


def _spec(name: str, degree: int, gens: list[Perm]) -> dict:
    return {"name": name, "degree": degree, "generators": [cycle_string(g) for g in gens]}


def build_workload(name: str, seed: int) -> Workload:
    """The workload's invocations for this seed; spec paths are file names only."""
    rng = random.Random(f"{name}:{seed}")
    work = Workload(name)
    if name == "classify-lattice":
        for family in CLASSIFY_FAMILIES:
            degree, gens = family_group(family)
            spec = _spec(family, degree, _random_relabel(rng, degree, gens))
            path = f"classify-{family}.json"
            work.invocations.append(
                Invocation(family, "classify", ["classify", "-i", path], {"family": family}, spec, path)
            )
        work.largest = "D64"
    elif name == "witness-center":
        families = list(WITNESS_FAMILIES)
        rng.shuffle(families)
        for family in families:
            work.invocations.append(
                Invocation(family, "witness", ["witness", "--family", family], {"family": family})
            )
        work.largest = "D32xC2"
    elif name == "closure-search":
        for shape, (degree, gens, known) in closure_shapes(rng):
            # Relabeling moves a group's cost by 15-70%, so the largest
            # instance keeps its labels and `largest_s` times one input.
            if shape != CLOSURE_LARGEST:
                gens = _random_relabel(rng, degree, gens)
            spec = _spec(shape, degree, gens)
            path = f"closure-{shape}.json"
            expect = {"degree": degree, "generators": gens, "closure_order": known}
            work.invocations.append(Invocation(shape, "closure", ["closure", "-i", path], expect, spec, path))
        work.largest = CLOSURE_LARGEST
    elif name == "verify-suites":
        for suite in VERIFY_SUITES:
            args = ["verify", "--suite", suite, "--max-degree", str(VERIFY_MAX_DEGREE)]
            if suite == "axioms":
                args += ["--seed", str(seed)]
            work.invocations.append(Invocation(suite, "verify", args, {}))
        # The axioms suite runs longer, but its groups change with the seed.
        work.largest = "classification"
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return work


def write_specs(work: Workload, directory) -> None:
    for inv in work.invocations:
        if inv.spec is not None:
            (directory / inv.spec_file).write_text(json.dumps(inv.spec) + "\n")

"""Expected answers from outside twoclosure.

Verdicts come from the classification theorem and the family name; orders
come from sympy; closure generators are checked against pair orbits found by
a plain breadth-first search; closure orders are pinned where theory gives
them.  `check` returns every problem it finds; an empty list means the
invocation's answer is accepted.
"""

from __future__ import annotations

import json
import math

from sympy.combinatorics import Permutation as SymPerm
from sympy.combinatorics import PermutationGroup

from workloads import Invocation, family_order, family_parts, parse_cycle_string


def check(inv: Invocation, returncode: int | str, stdout: str) -> list[str]:
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        document = json.loads(stdout)
    except json.JSONDecodeError:
        return ["stdout is not one JSON document"]
    results = document.get("results") if isinstance(document, dict) else None
    if not isinstance(results, dict):
        return ["no results object"]
    try:
        return _CHECKS[inv.kind](inv.expect, results)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed results: {exc!r}"]


# ---------------------------------------------------------------------------
# classify and witness

def _is_power_of_two(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


def _pairwise_coprime(numbers) -> bool:
    numbers = [n for n in numbers if n > 1]
    return all(math.gcd(a, b) == 1 for i, a in enumerate(numbers) for b in numbers[i + 1:])


def expected_classification(family: str) -> tuple[str, str]:
    """(verdict, reason) by the theorem: 2-closed iff cyclic or Q2^k x odd cyclic."""
    parts = family_parts(family)
    for kind, order in parts:
        if kind in "DQ" and not _is_power_of_two(order):
            raise ValueError(f"{family} is not nilpotent")
    cyclic = [order for kind, order in parts if kind == "C"]
    if len(cyclic) == len(parts) and _pairwise_coprime(cyclic):
        return "TwoClosedGroup", "Cyclic"
    others = [kind for kind, _ in parts if kind != "C"]
    if others == ["Q"] and all(n % 2 for n in cyclic) and _pairwise_coprime(cyclic):
        return "TwoClosedGroup", "QuaternionTimesOddCyclic"
    # Centers: C_n is its own; D_2^k, Q_2^k have order 2; E_p^3 has order p,
    # which is coprime to the same numbers as p^3.
    centers = [2 if kind in "DQ" else order for kind, order in parts]
    if not _pairwise_coprime(centers):
        return "NotTwoClosedGroup", "NoncyclicCenter"
    odd_primes = {p for _, order in parts for p in _prime_divisors(order) if p > 2}
    for p in odd_primes:
        carriers = [kind for kind, order in parts if order % p == 0]
        if len(carriers) > 1 or carriers == ["E"]:
            return "NotTwoClosedGroup", "NoncyclicSylowOdd"
    return "NotTwoClosedGroup", "TwoGroupNotCyclicOrQuaternion"


def _prime_divisors(n: int) -> set[int]:
    out = set()
    p = 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


def _check_certificate(cert: dict, group_order: int) -> list[str]:
    problems = []
    degree = cert["degree"]
    if cert["valid"] is not True:
        problems.append("certificate is not valid")
    if cert["evidence_pairs"] != degree * degree:
        problems.append(f"evidence covers {cert['evidence_pairs']} pairs, not degree^2 = {degree * degree}")
    if group_order % cert["group_order"]:
        problems.append(f"certificate group order {cert['group_order']} does not divide {group_order}")
    if parse_cycle_string(cert["witness"], degree) == tuple(range(degree)):
        problems.append("certificate witness is the identity")
    return problems


def _check_classify(expect: dict, results: dict) -> list[str]:
    family = expect["family"]
    verdict, reason = expected_classification(family)
    problems = []
    if results["order"] != family_order(family):
        problems.append(f"order {results['order']} != {family_order(family)}")
    if (results["verdict"], results["reason"]) != (verdict, reason):
        problems.append(f"verdict {results['verdict']}/{results['reason']}, expected {verdict}/{reason}")
    certificate = results["certificate"]
    if verdict == "TwoClosedGroup":
        if results["justified_by"] != "classification-theorem" or certificate is not None:
            problems.append("a positive verdict must cite the theorem and carry no certificate")
    elif results["justified_by"] != "certificate" or certificate is None:
        problems.append("a negative verdict must carry a certificate")
    else:
        problems += _check_certificate(certificate, family_order(family))
    return problems


def _check_witness(expect: dict, results: dict) -> list[str]:
    family = expect["family"]
    problems = []
    if results["order"] != family_order(family):
        problems.append(f"order {results['order']} != {family_order(family)}")
    return problems + _check_certificate(results["certificate"], family_order(family))


# ---------------------------------------------------------------------------
# closure

def pair_orbits(degree: int, generators) -> list[int]:
    """Orbit id of every ordered pair (a, b), stored at a * degree + b."""
    ids = [-1] * (degree * degree)
    count = 0
    for seed in range(degree * degree):
        if ids[seed] >= 0:
            continue
        ids[seed] = count
        stack = [seed]
        while stack:
            a, b = divmod(stack.pop(), degree)
            for g in generators:
                image = g[a] * degree + g[b]
                if ids[image] < 0:
                    ids[image] = count
                    stack.append(image)
        count += 1
    return ids


def _keeps_orbits(g, ids: list[int], degree: int) -> bool:
    return all(
        ids[g[a] * degree + g[b]] == ids[a * degree + b] for a in range(degree) for b in range(degree)
    )


def _sympy_group(degree: int, generators) -> PermutationGroup:
    return PermutationGroup([SymPerm(list(g)) for g in generators] or [SymPerm(list(range(degree)))])


def _check_closure(expect: dict, results: dict) -> list[str]:
    degree = expect["degree"]
    if results["degree"] != degree:
        return [f"degree {results['degree']} != {degree}"]
    problems = []
    group = _sympy_group(degree, expect["generators"])
    if results["order"] != group.order():
        problems.append(f"order {results['order']} != sympy order {group.order()}")
    ids = pair_orbits(degree, expect["generators"])
    rank = max(ids) + 1
    if results["rank"] != rank:
        problems.append(f"rank {results['rank']} != {rank} pair orbits")
    generators = [parse_cycle_string(text, degree) for text in results["closure_generators"]]
    if not all(_keeps_orbits(g, ids, degree) for g in generators):
        problems.append("a closure generator moves a pair out of its orbit")
    closure = _sympy_group(degree, generators)
    if results["closure_order"] != closure.order():
        problems.append(f"closure_order {results['closure_order']} != sympy order {closure.order()}")
    if not all(closure.contains(SymPerm(list(g))) for g in expect["generators"]):
        problems.append("the closure does not contain the group")
    known = expect["closure_order"]
    if known is None and rank == 2:
        known = math.factorial(degree)  # 2-transitive, so Sym(n) keeps the coloring
    if known is not None and results["closure_order"] != known:
        problems.append(f"closure_order {results['closure_order']} != {known} from theory")
    closed = results["closure_order"] == results["order"]
    if results["closed"] is not closed:
        problems.append(f"closed is {results['closed']} but the orders say {closed}")
    witness = results["witness"]
    if closed != (witness is None):
        problems.append("a witness must be given exactly when the group is not closed")
    elif witness is not None:
        theta = parse_cycle_string(witness, degree)
        if group.contains(SymPerm(list(theta))) or not _keeps_orbits(theta, ids, degree):
            problems.append("the witness is in the group or outside the closure")
    return problems


# ---------------------------------------------------------------------------
# verify

def _check_verify(expect: dict, results: dict) -> list[str]:
    failed = [c["name"] for c in results["checks"] if c["passed"] is not True]
    if results["all_passed"] is not True or failed or not results["checks"]:
        return [f"suite did not pass: {failed}"]
    return []


_CHECKS = {
    "classify": _check_classify,
    "witness": _check_witness,
    "closure": _check_closure,
    "verify": _check_verify,
}

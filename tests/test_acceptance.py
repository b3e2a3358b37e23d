"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Expected values are either pinned worked-example facts or checked
against independent enumeration oracles; every tolerance is exact.
"""

import time

from helpers import brute_two_closure
from twoclosure.group import PermGroup
from twoclosure.orbital import two_closure
from twoclosure.perm import parse_cycles
from twoclosure.verify import (
    check_center_cyclic_suite,
    check_closure_axioms,
    check_commutation_and_center,
    check_positive_consistency,
    check_quotient_lemmas,
    check_truth_table,
    check_witness_certificates,
)


def report(number: int, name: str, passed: bool, elapsed: float, budget: float):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert passed, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.2f}s)"


def report_results(number: int, name: str, results, started: float, budget: float):
    """Report a criterion backed by verify checks, printing each failing detail."""
    for r in results:
        if not r.passed:
            print(f"  {r.name}: {r.detail}")
    report(number, name, all(r.passed for r in results), time.monotonic() - started, budget)


def test_a1_paired_involutions_closure():
    started = time.monotonic()
    group = PermGroup(6, (parse_cycles("(1,2)(3,4)", 6), parse_cycles("(3,4)(5,6)", 6)))
    closure = two_closure(group)
    expected = PermGroup(
        6, (parse_cycles("(1,2)", 6), parse_cycles("(3,4)", 6), parse_cycles("(5,6)", 6))
    )
    ok = closure.order == 8
    ok = ok and set(closure.elements()) == set(expected.elements())
    ok = ok and set(closure.elements()) == brute_two_closure(6, group.elements())
    for gen_text in ("(1,2)(3,4)", "(3,4)(5,6)"):
        part = PermGroup(6, (parse_cycles(gen_text, 6),))
        ok = ok and two_closure(part).same_group(part)
    report(1, "closure-of-paired-involutions", ok, time.monotonic() - started, 1.0)


def test_a2_closure_axioms_suite():
    started = time.monotonic()
    results = check_closure_axioms(seed=7, samples=200, max_degree=7)
    ok = all(r.passed for r in results)
    detail = "; ".join(f"{r.name}: {r.detail}" for r in results if not r.passed)
    elapsed = time.monotonic() - started
    print(f"  checks: {', '.join(r.name for r in results)}" + (f" | {detail}" if detail else ""))
    report(2, "closure-axioms", ok, elapsed, 60.0)


def test_a3_commutation_and_center_suite():
    started = time.monotonic()
    report_results(3, "commutation-and-center", check_commutation_and_center(), started, 60.0)


def test_a4_witness_certificates():
    started = time.monotonic()
    report_results(4, "witness-certificates", check_witness_certificates(), started, 120.0)


def test_a5_classification_truth_table():
    started = time.monotonic()
    report_results(5, "nilpotent-truth-table", check_truth_table(), started, 300.0)


def test_a6_positive_side_consistency():
    started = time.monotonic()
    results = check_positive_consistency(max_degree=16)
    report_results(6, "positive-side-consistency", results, started, 300.0)


def test_a7_cyclic_center_suite():
    started = time.monotonic()
    report_results(7, "cyclic-center-suite", check_center_cyclic_suite(), started, 120.0)


def test_a8_block_quotient_lemmas():
    started = time.monotonic()
    report_results(8, "block-quotient-lemmas", check_quotient_lemmas(), started, 60.0)

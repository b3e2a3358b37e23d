"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Expected values are either pinned worked-example facts or checked
against independent enumeration oracles; every tolerance is exact.
"""

import time

import pytest

from helpers import brute_two_closure
from twoclosure.group import PermGroup
from twoclosure.perm import parse_cycles
from twoclosure.verify import (
    check_closure_axioms,
    check_commutation_and_center,
    check_paired_involutions_example,
    check_quotient_lemmas,
    check_witness_certificates,
    suite_classification,
)


def report(number: int, name: str, passed: bool, elapsed: float, budget: float):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert passed, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.2f}s)"


def report_results(number: int, name: str, results, elapsed: float, budget: float):
    """Report a criterion backed by verify checks, printing each failing detail."""
    for r in results:
        if not r.passed:
            print(f"  {r.name}: {r.detail}")
    report(number, name, all(r.passed for r in results), elapsed, budget)


def test_a1_paired_involutions_closure():
    started = time.monotonic()
    results = check_paired_involutions_example()
    # The check pins the closure to <(1,2),(3,4),(5,6)>; so does brute force.
    group = PermGroup(6, (parse_cycles("(1,2)(3,4)", 6), parse_cycles("(3,4)(5,6)", 6)))
    expected = PermGroup(6, tuple(parse_cycles(t, 6) for t in ("(1,2)", "(3,4)", "(5,6)")))
    assert brute_two_closure(6, group.elements()) == set(expected.elements())
    report_results(1, "closure-of-paired-involutions", results, time.monotonic() - started, 1.0)


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
    results = check_commutation_and_center()
    report_results(3, "commutation-and-center", results, time.monotonic() - started, 60.0)


def test_a4_witness_certificates():
    started = time.monotonic()
    results = check_witness_certificates()
    report_results(4, "witness-certificates", results, time.monotonic() - started, 120.0)


@pytest.fixture(scope="module")
def classification():
    """One `verify --suite classification` run: its results by check name, and
    the time it took."""
    started = time.monotonic()
    results = suite_classification()
    return {r.name: r for r in results}, time.monotonic() - started


def report_classification(number: int, name: str, classification, checks: list[str], budget: float):
    """Report the named checks of the one classification run, against the
    run's time."""
    results, elapsed = classification
    report_results(number, name, [results[check] for check in checks], elapsed, budget)


def test_a5_classification_truth_table(classification):
    checks = ["classification-truth-table", "negative-verdict-certificates", "noncyclic-abelian-certificates"]
    report_classification(5, "nilpotent-truth-table", classification, checks, 300.0)


def test_a6_positive_side_consistency(classification):
    checks = ["positive-representations-closed", "coprime-product-certification", "trivial-stabilizer-instances"]
    report_classification(6, "positive-side-consistency", classification, checks, 300.0)


def test_a7_cyclic_center_suite(classification):
    checks = ["cyclic-center-test", "cyclic-center-filter"]
    report_classification(7, "cyclic-center-suite", classification, checks, 120.0)


def test_a8_block_quotient_lemmas():
    started = time.monotonic()
    results = check_quotient_lemmas()
    report_results(8, "block-quotient-lemmas", results, time.monotonic() - started, 60.0)

"""Tests for the benchmark's own code: oracle, input generator and spans."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

pytest.importorskip("sympy")

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from twoclosure import cli  # noqa: E402


def _run_cli(inv: workloads.Invocation, directory: Path) -> tuple[int, str]:
    if inv.spec is not None:
        (directory / inv.spec_file).write_text(json.dumps(inv.spec))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.chdir(directory):
        code = cli.main(list(inv.args))
    return code, out.getvalue()


def _invocation(workload: str, name: str, seed: int = 3) -> workloads.Invocation:
    work = workloads.build_workload(workload, seed)
    return next(inv for inv in work.invocations if inv.name == name)


def _tampered(stdout: str, edit) -> str:
    document = json.loads(stdout)
    edit(document["results"])
    return json.dumps(document)


def test_oracle_accepts_and_rejects_classify(tmp_path):
    inv = _invocation("classify-lattice", "Q8xC2")
    code, stdout = _run_cli(inv, tmp_path)
    assert oracle.check(inv, code, stdout) == []
    assert oracle.check(inv, 3, stdout) != []
    wrong_verdict = _tampered(stdout, lambda r: r.update(verdict="TwoClosedGroup"))
    assert oracle.check(inv, 0, wrong_verdict) != []
    invalid = _tampered(stdout, lambda r: r["certificate"].update(valid=False))
    assert oracle.check(inv, 0, invalid) != []
    short = _tampered(stdout, lambda r: r["certificate"].update(evidence_pairs=r["certificate"]["evidence_pairs"] - 1))
    assert oracle.check(inv, 0, short) != []
    assert oracle.check(inv, 0, "not json") != []


def test_oracle_accepts_and_rejects_closure(tmp_path):
    inv = _invocation("closure-search", "affine29")
    code, stdout = _run_cli(inv, tmp_path)
    assert oracle.check(inv, code, stdout) == []
    wrong_order = _tampered(stdout, lambda r: r.update(closure_order=r["closure_order"] * 2))
    assert oracle.check(inv, 0, wrong_order) != []
    wrong_closed = _tampered(stdout, lambda r: r.update(closed=not r["closed"]))
    assert oracle.check(inv, 0, wrong_closed) != []
    foreign = _tampered(stdout, lambda r: r["closure_generators"].append("(1,2)"))
    assert oracle.check(inv, 0, foreign) != []


def test_oracle_pins_closure_order_from_theory():
    inv = _invocation("closure-search", "vector32")
    degree, gens = inv.expect["degree"], inv.expect["generators"]
    # A report claiming the group is its own closure: the generators keep
    # every pair orbit and sympy agrees on the order, but theory does not.
    results = {
        "degree": degree,
        "order": oracle._sympy_group(degree, gens).order(),
        "rank": max(oracle.pair_orbits(degree, gens)) + 1,
        "closure_order": oracle._sympy_group(degree, gens).order(),
        "closed": True,
        "witness": None,
        "closure_generators": [workloads.cycle_string(g) for g in gens],
    }
    problems = oracle.check(inv, 0, json.dumps({"results": results}))
    assert any("from theory" in p for p in problems)


def test_oracle_rejects_failed_verify():
    inv = workloads.Invocation("lemmas", "verify", [], {})
    passing = {"results": {"checks": [{"name": "a", "passed": True, "detail": ""}], "all_passed": True}}
    assert oracle.check(inv, 0, json.dumps(passing)) == []
    failing = {"results": {"checks": [{"name": "a", "passed": False, "detail": ""}], "all_passed": False}}
    assert oracle.check(inv, 0, json.dumps(failing)) != []
    assert oracle.check(inv, 3, json.dumps(passing)) != []


@pytest.mark.parametrize(
    "family, expected",
    [
        ("C12", ("TwoClosedGroup", "Cyclic")),
        ("C4xC3", ("TwoClosedGroup", "Cyclic")),
        ("Q16xC3", ("TwoClosedGroup", "QuaternionTimesOddCyclic")),
        ("C2xC2", ("NotTwoClosedGroup", "NoncyclicCenter")),
        ("Q8xC2", ("NotTwoClosedGroup", "NoncyclicCenter")),
        ("E27", ("NotTwoClosedGroup", "NoncyclicSylowOdd")),
        ("Q8xE27", ("NotTwoClosedGroup", "NoncyclicSylowOdd")),
        ("D64", ("NotTwoClosedGroup", "TwoGroupNotCyclicOrQuaternion")),
    ],
)
def test_expected_classification(family, expected):
    assert oracle.expected_classification(family) == expected


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    def specs(seed):
        return [(inv.args, inv.spec) for inv in workloads.build_workload(name, seed).invocations]

    assert specs(11) == specs(11)
    if name != "witness-center":  # its seed only permutes the order
        assert specs(11) != specs(12)


def test_generated_specs_parse_with_their_orders():
    for inv in workloads.build_workload("classify-lattice", 5).invocations:
        group, echo = cli.parse_group_document(json.dumps(inv.spec))
        assert group.order == workloads.family_order(inv.expect["family"])
        assert echo["degree"] == inv.spec["degree"]
    for inv in workloads.build_workload("closure-search", 5).invocations:
        if inv.name.startswith("random"):
            continue  # Sym(n) chains are slow to build; the shape is two shuffles
        group, _ = cli.parse_group_document(json.dumps(inv.spec))
        assert group.order == oracle._sympy_group(inv.expect["degree"], inv.expect["generators"]).order()


def test_cycle_strings_round_trip():
    p = (2, 0, 1, 4, 3, 5)
    assert workloads.cycle_string(p) == "(1,3,2)(4,5)"
    assert workloads.parse_cycle_string("(1,3,2)(4,5)", 6) == p
    assert workloads.parse_cycle_string("()", 3) == (0, 1, 2)
    with pytest.raises(ValueError):
        workloads.parse_cycle_string("(1,1)", 3)


def test_self_time_on_synthetic_tree():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.child", 2.0, 3.0, 1],
        ["b", 5.0, 7.0, 0],
        ["c", 6.0, 8.0, 0],  # overlaps b: the union is counted once
    ]
    assert spans.self_times(tree) == [4.0, 2.0, 1.0, 2.0, 2.0]


def test_tracer_counts_a_classify_and_restores_the_program(tmp_path):
    inv = _invocation("classify-lattice", "Q8xC2")
    original_main, original_init = cli.main, cli.PermGroup.__init__
    tracer = spans.Tracer()
    tracer.install()
    try:
        code, stdout = _run_cli(inv, tmp_path)
    finally:
        tracer.uninstall()
    assert cli.main is original_main and cli.PermGroup.__init__ is original_init
    assert oracle.check(inv, code, stdout) == []
    metrics = spans.layer_metrics(tracer)
    assert metrics["cli.main.calls"][0] == 1
    assert metrics["classify.classify.calls"][0] == 1
    assert metrics["catalog.lattice.calls"][0] == 0
    assert metrics["witnesses.check.calls"][0] >= 2
    assert metrics["orbital.evidence.pairs"][0] >= json.loads(stdout)["results"]["certificate"]["evidence_pairs"]
    assert metrics["perm.products"][0] > 0
    assert set(metrics) == {f"{s}.{k}" for s in spans.SPAN_NAMES for k in ("calls", "self_s")} | set(spans.COUNT_NAMES)

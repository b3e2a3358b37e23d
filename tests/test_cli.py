import json
import time

import pytest

from helpers import loaded_modules
from twoclosure import cli
from twoclosure.cli import INPUT_DEGREE_GUARD, main, parse_group_document
from twoclosure.errors import InternalDefect, PreconditionError
from twoclosure.group import ENUMERATION_GUARD, PermGroup


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def write_spec(tmp_path, document):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(document))
    return str(path)


def test_parse_group_document_examples():
    group, echo = parse_group_document(
        json.dumps({"degree": 6, "generators": ["(1,2)(3,4)", "(3,4)(5,6)"]})
    )
    assert group.order == 4 and echo["degree"] == 6

    group, _ = parse_group_document(json.dumps({"degree": 4, "generators": []}))
    assert group.order == 1

    with pytest.raises(PreconditionError, match="generator 1, column 6"):
        parse_group_document(json.dumps({"degree": 4, "generators": ["(1,2,5)"]}))
    with pytest.raises(PreconditionError, match="degree"):
        parse_group_document(json.dumps({"degree": -2, "generators": []}))
    with pytest.raises(PreconditionError, match="JSON"):
        parse_group_document("{nope")
    with pytest.raises(PreconditionError, match="degree"):
        parse_group_document(json.dumps({"degree": True, "generators": []}))


def test_closure_command(tmp_path, capsys):
    path = write_spec(tmp_path, {"degree": 6, "generators": ["(1,2)(3,4)", "(3,4)(5,6)"]})
    code, report = run_cli(capsys, "closure", "-i", path)
    assert code == 0
    results = report["results"]
    assert results["order"] == 4
    assert results["rank"] == 12
    assert results["closure_order"] == 8
    assert results["closed"] is False
    assert results["witness"] is not None


def test_closure_report_is_deterministic(tmp_path, capsys):
    path = write_spec(tmp_path, {"degree": 6, "generators": ["(1,2)(3,4)", "(3,4)(5,6)"]})
    _, first = run_cli(capsys, "closure", "-i", path)
    _, second = run_cli(capsys, "closure", "-i", path)
    del first["timing"], second["timing"]
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_round_trip_of_printed_witness(tmp_path, capsys):
    from twoclosure.perm import parse_cycles

    path = write_spec(tmp_path, {"degree": 6, "generators": ["(1,2)(3,4)", "(3,4)(5,6)"]})
    _, report = run_cli(capsys, "closure", "-i", path)
    for text in report["results"]["closure_generators"]:
        assert parse_cycles(text, 6).cycle_string() == text


def test_classify_family(capsys):
    code, report = run_cli(capsys, "classify", "--family", "Q8xC2")
    assert code == 0
    results = report["results"]
    assert results["verdict"] == "NotTwoClosedGroup"
    assert results["justified_by"] == "certificate"
    assert results["certificate"]["construction"] == "center"
    assert results["certificate"]["degree"] == 24
    assert results["certificate"]["valid"] is True

    code, report = run_cli(capsys, "classify", "--family", "Q16xC3")
    assert code == 0
    assert report["results"]["verdict"] == "TwoClosedGroup"
    assert report["results"]["justified_by"] == "classification-theorem"


def test_witness_command(capsys):
    code, report = run_cli(capsys, "witness", "--family", "D8")
    assert code == 0
    assert report["results"]["certificate"]["construction"] == "two-group"

    code, report = run_cli(capsys, "witness", "--family", "Q8")
    assert code == 2
    assert report["error"]["kind"] == "precondition"


def test_verify_command(capsys):
    code, report = run_cli(capsys, "verify", "--suite", "axioms", "--max-degree", "5", "--seed", "7")
    assert code == 0
    assert report["input"]["ignored"] == []
    assert report["results"]["all_passed"] is True
    assert all(check["passed"] for check in report["results"]["checks"])


def test_verify_reports_the_flags_a_suite_ignores(capsys):
    code, report = run_cli(capsys, "verify", "--suite", "lemmas", "--seed", "3", "--max-degree", "5")
    assert code == 0
    assert report["input"] == {"suite": "lemmas", "seed": 3, "max_degree": 5, "ignored": ["seed", "max_degree"]}
    assert "ignored" not in report["results"]


@pytest.mark.parametrize("family", ["C1000", "C4000"])
def test_classify_cyclic_family_lists_no_element(monkeypatch, capsys, family):
    def refuse(self):
        raise AssertionError("PermGroup.elements was called")

    monkeypatch.setattr(PermGroup, "elements", refuse)
    code, report = run_cli(capsys, "classify", "--family", family)
    assert code == 0
    assert report["results"]["verdict"] == "TwoClosedGroup" and report["results"]["reason"] == "Cyclic"


def test_classify_symmetric_group_above_the_enumeration_guard(tmp_path, capsys):
    path = write_spec(tmp_path, {"degree": 8, "generators": ["(1,2)", "(1,2,3,4,5,6,7,8)"]})
    code, report = run_cli(capsys, "classify", "-i", path)
    assert code == 0
    assert report["results"]["order"] == 40320
    assert report["results"]["verdict"] == "NotNilpotent"
    assert report["results"]["justified_by"] == "none"
    assert report["results"]["certificate"] is None


def test_input_degree_guard_fails_before_any_chain(tmp_path, capsys):
    path = write_spec(tmp_path, {"degree": 20000, "generators": ["(1,2)", "(1,20000)"]})
    message = f"degree 20000 exceeds the input degree guard ({INPUT_DEGREE_GUARD})"
    for argv in (
        ("classify", "-i", path),
        ("classify", "--family", "C20000"),
        ("witness", "--family", "C20000"),
        ("witness", "--family", "D4000xC18000"),
    ):
        started = time.perf_counter()
        code, report = run_cli(capsys, *argv)
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert report["error"]["kind"] == "precondition"
        assert message in report["error"]["message"]


def test_extraspecial_orders_are_refused_without_factoring(capsys):
    # The first m is a prime, the second the cube of the prime 10^19 + 51:
    # trial division of either would not end.  A non-cube is refused at
    # once, and p is tested prime only after the input degree guard.
    for family, message in (
        ("E1000000000000000000000000000057", "extraspecial orders must be p^3 for an odd prime p"),
        ("E1000000000000000015300000000000000078030000000000000132651", f"exceeds the input degree guard ({INPUT_DEGREE_GUARD})"),
        ("E8", "extraspecial parameter must be an odd prime"),
    ):
        started = time.perf_counter()
        code, report = run_cli(capsys, "classify", "--family", family)
        assert time.perf_counter() - started < 1.0
        assert code == 2 and report["error"]["kind"] == "precondition"
        assert message in report["error"]["message"]


def test_long_integers_and_deep_json_are_precondition_errors(tmp_path, capsys):
    # int() refuses more than 4300 digits, and json.loads nesting past the
    # recursion limit.  The files are raw text: json.dumps refuses such an
    # int too.
    nines, half = "9" * 5000, "9" * 4300
    big, deep = tmp_path / "big.json", tmp_path / "deep.json"
    big.write_text('{"degree": ' + nines + ', "generators": []}')
    deep.write_text("[" * 200000)
    for argv, message in (
        (("classify", "--family", "C" + nines), "family token C9999999999... has an order of 5000 digits"),
        (("classify", "-i", str(big)), f"{big}: not valid JSON: "),
        (("closure", "-i", str(deep)), f"{deep}: not valid JSON: "),
        (("witness", "--family", f"C{half}xC{half}"), f"degree of over 4000 digits exceeds the input degree guard ({INPUT_DEGREE_GUARD})"),
    ):
        started = time.perf_counter()
        code = main(list(argv))
        assert time.perf_counter() - started < 1.0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == 2 and report["error"]["kind"] == "precondition", report
        assert message in report["error"]["message"]
        assert "internal defect:" not in captured.err


def test_enumeration_guard_names_its_limit(capsys):
    code, report = run_cli(capsys, "witness", "--family", "x".join(["C2"] * 16))
    assert code == 2 and report["error"]["kind"] == "precondition"
    assert report["error"]["message"] == f"group order 65536 exceeds the enumeration guard ({ENUMERATION_GUARD})"


def test_exit_codes(tmp_path, capsys):
    code, report = run_cli(capsys, "nonsense")
    assert code == 1
    assert report["command"] is None and report["error"]["kind"] == "usage"
    code, report = run_cli(capsys, "classify", "--family", "Z99")
    assert code == 2
    path = write_spec(tmp_path, {"degree": 4, "generators": ["(1,2,5)"]})
    code, report = run_cli(capsys, "closure", "-i", path)
    assert code == 2
    assert "column" in report["error"]["message"]
    path = write_spec(tmp_path, {"degree": 4, "generators": ["(1,2,1)"]})
    code, report = run_cli(capsys, "closure", "-i", path)
    assert code == 2
    assert "repeated point 1" in report["error"]["message"]
    code, _ = run_cli(capsys, "closure", "-i", str(tmp_path / "missing.json"))
    assert code == 2


def test_an_empty_family_is_a_precondition_error(capsys):
    for command in ("witness", "classify"):
        code, report = run_cli(capsys, command, "--family=")
        assert code == 2 and report["command"] == command
        assert report["error"] == {"kind": "precondition", "message": "unrecognized family token ''"}


@pytest.mark.parametrize(
    "argv, command",
    [(["--help"], None), (["classify", "-h"], "classify"), (["catalog", "--he"], "catalog")],
)
def test_help_is_one_json_document(capsys, argv, command):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out)  # exactly one document: trailing text fails
    assert code == 0 and report["command"] == command and captured.err == ""
    assert report["results"]["help"].startswith(f"usage: twoclosure{' ' + command if command else ''} [-h]")


def test_unreadable_inputs_are_precondition_errors(tmp_path, capsys):
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b'{"degree": 3, "name": "caf\xe9", "generators": []}')
    boolean = write_spec(tmp_path, {"degree": True, "generators": []})
    for path in (str(tmp_path), str(undecodable), boolean):
        code, report = run_cli(capsys, "closure", "-i", path)
        assert code == 2
        assert report["error"]["kind"] == "precondition"


def test_closure_degree_guard_fails_before_the_pair_partition(tmp_path, capsys):
    # The orbital partition of degree 2000 has four million pairs; the guard
    # must trip before any of them is colored.
    path = write_spec(tmp_path, {"degree": 2000, "generators": []})
    started = time.perf_counter()
    code, report = run_cli(capsys, "closure", "-i", path)
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert report["error"]["kind"] == "precondition"
    assert "closure search guard (32)" in report["error"]["message"]


def test_center_route_certificate_degree_guard(capsys):
    # Order 2048 with center C2^3, and no factor fails on its own: the center
    # certificate would have degree (2+2+2+2)·256 = 2048 and 4 million
    # evidence pairs.
    started = time.perf_counter()
    code, report = run_cli(capsys, "classify", "--family", "Q16xQ16xQ8")
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert report["error"]["kind"] == "precondition"
    assert "degree 2048 exceeds the certificate degree guard (1024)" in report["error"]["message"]


def test_a_product_with_a_failing_factor_gets_a_small_certificate(capsys):
    # Its center certificate would have degree 4096; D16 on its 8 points
    # gets degree 10, lifted by the identity on the other 16 points.
    started = time.perf_counter()
    code, report = run_cli(capsys, "classify", "--family", "D16xD16xD16")
    assert time.perf_counter() - started < 1.0
    assert code == 0
    certificate = report["results"]["certificate"]
    assert certificate["construction"] == "direct-factor" and certificate["degree"] == 26
    assert certificate["group_order"] == report["results"]["order"] == 4096 and certificate["valid"]


def test_unexpected_errors_are_reported_as_defects(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_catalog", broken)
    assert main(["catalog", "--list"]) == 3
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["command"] == "catalog"
    assert report["error"] == {"kind": "defect", "message": "unexpected RuntimeError: boom"}
    assert "Traceback" not in captured.err and "RuntimeError: boom" in captured.err


def test_a_failing_verify_check_exits_3_with_its_report(monkeypatch, capsys):
    from twoclosure import verify

    failing = verify.CheckResult("lemma_x", False, "2 of 3 groups failed")
    monkeypatch.setitem(verify.SUITES, "lemmas", lambda: [verify.CheckResult("lemma_y", True, ""), failing])
    assert main(["verify", "--suite", "lemmas"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "verify"
    assert report["results"]["all_passed"] is False
    assert {"name": "lemma_x", "passed": False, "detail": "2 of 3 groups failed"} in report["results"]["checks"]


def test_internal_defects_exit_3_without_the_unexpected_prefix(monkeypatch, capsys):
    def broken(args):
        raise InternalDefect("chain lost a point")

    monkeypatch.setattr(cli, "_cmd_catalog", broken)
    assert main(["catalog", "--list"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "catalog"
    assert report["error"] == {"kind": "defect", "message": "chain lost a point"}


def test_verify_max_degree_range_is_a_usage_error(capsys):
    for value in ("0", "2", "33", "seven"):
        assert main(["verify", "--suite", "lemmas", "--max-degree", value]) == 1
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["command"] == "verify"
        assert report["error"]["kind"] == "usage"
        assert "--max-degree" in report["error"]["message"]
        assert "results" not in report
        assert "--max-degree" in captured.err


def test_axioms_suite_degree_guard_refuses_before_any_group(monkeypatch, capsys):
    from twoclosure import verify

    monkeypatch.setattr(verify.PermGroup, "__init__", lambda *args, **kwargs: pytest.fail("a group was built"))
    started = time.perf_counter()
    code, report = run_cli(capsys, "verify", "--suite", "axioms", "--max-degree", "32")
    assert time.perf_counter() - started < 1.0
    assert code == 2 and report["error"]["kind"] == "precondition"
    assert report["error"]["message"] == f"max degree 32 exceeds the axioms suite guard ({verify.AXIOMS_DEGREE_GUARD})"


def test_catalog_list(capsys):
    code, report = run_cli(capsys, "catalog", "--list")
    assert code == 0
    assert "Q16xC3" in report["results"]["examples"]


def test_unknown_verify_suite_is_a_usage_error(capsys):
    assert main(["verify", "--suite", "bogus"]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    del report["timing"]
    assert report == {
        "command": "verify",
        "error": {
            "kind": "usage",
            "message": "argument --suite: invalid choice: 'bogus' (choose from 'axioms', 'classification', 'lemmas')",
        },
    }
    assert captured.err.startswith("usage error: argument --suite")


def cli_modules(*argv: str) -> list[str]:
    run = (
        "import contextlib, io, sys\n"
        "from twoclosure import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(sys.argv[1:]) == 0\n"
    )
    return loaded_modules(run, *argv)


def test_each_command_imports_only_its_modules(tmp_path):
    bare = loaded_modules("")
    path = write_spec(tmp_path, {"degree": 6, "generators": ["(1,2)(3,4)", "(3,4)(5,6)"]})
    closure = cli_modules("closure", "-i", path)
    assert {m for m in closure if m.startswith("twoclosure.")} == {
        "twoclosure.cli", "twoclosure.errors", "twoclosure.group", "twoclosure.orbital", "twoclosure.perm",
    }
    classify = cli_modules("classify", "--family", "D8")
    assert "twoclosure.classify" in classify and "twoclosure.verify" not in classify
    for modules in (closure, classify):
        assert ("dataclasses" in modules) <= ("dataclasses" in bare)

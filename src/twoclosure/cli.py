"""Command-line interface.

Commands: ``closure``, ``classify``, ``witness``, ``verify``, ``catalog``.
Every run writes a single JSON document to standard output; the ``results``
object is deterministic for a fixed input, timings live outside it.  Exit
codes: 0 success, 1 usage error, 2 precondition error, 3 internal defect
(any unexpected exception is reported as one).

Each command imports only the modules it uses: ``closure`` loads the
permutation, group and orbital layers, and the other commands import their
own modules inside their handlers.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import CycleParseError, InternalDefect, PreconditionError
from .group import PermGroup
from .orbital import CLOSURE_DEGREE_GUARD, _missing_generator, orbital_partition, two_closure
from .perm import parse_cycles


# Largest input degree that `closure`, `classify` and `witness` accept.  A
# chain level stores about 2**16 ints until it is used often, and an n-cycle's
# top level only its base and the points asked for, so `classify --family`
# C1000, C4000 and C5000 take about 0.2 s and 16.3, 18.0 and 18.5 MB, and
# C5000 with 19 membership tests 0.2 s and 18 MB.  A family is built with its
# known order, so `classify --family D10000` (degree 5000) takes about 0.25 s
# and 20 MB; from a spec file the same group's top level is used in full and
# stores n tuples of n points: about 6.5 s and 210 MB.
INPUT_DEGREE_GUARD = 5000

# The `verify --suite` names, each with the flags that suite reads as keyword
# arguments; the report lists the others as ignored.  `verify.SUITES` maps
# these names to the suite functions.
SUITE_FLAGS = {"axioms": ("seed", "max_degree"), "lemmas": (), "classification": ()}


def _check_input_degree(degree: int, source: str) -> None:
    """Refuse an input degree above the guard before any chain is built."""
    if degree > INPUT_DEGREE_GUARD:
        raise PreconditionError(f"{source}: degree {degree} exceeds the input degree guard ({INPUT_DEGREE_GUARD})")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    commands: tuple[str, ...] = ()  # the subcommand names, set on the top-level parser

    def error(self, message: str) -> None:  # exit 1, not argparse's default 2
        raise UsageError(message)


def parse_group_document(text: str, source: str = "<input>") -> tuple[PermGroup, dict]:
    """Parse a group spec document: degree, 1-based cycle generators, a name.

    Malformed generators are reported with their list position and the column
    inside the cycle string.
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"{source}: not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise PreconditionError(f"{source}: expected an object with degree and generators")
    degree = document.get("degree")
    if isinstance(degree, bool) or not isinstance(degree, int) or degree < 1:
        raise PreconditionError(f"{source}: degree must be a positive integer")
    _check_input_degree(degree, source)
    raw_generators = document.get("generators", [])
    if not isinstance(raw_generators, list) or not all(isinstance(s, str) for s in raw_generators):
        raise PreconditionError(f"{source}: generators must be a list of cycle strings")
    generators = []
    for line, text_gen in enumerate(raw_generators, start=1):
        try:
            generators.append(parse_cycles(text_gen, degree))
        except CycleParseError as exc:
            raise PreconditionError(
                f"{source}: generator {line}, column {exc.column}: {exc.reason}"
            ) from exc
    name = document.get("name")
    echo = {
        "name": name if isinstance(name, str) else None,
        "degree": degree,
        "generators": list(raw_generators),
    }
    return PermGroup(degree, tuple(generators)), echo


def _load_group(args) -> tuple[PermGroup, dict]:
    if getattr(args, "family", None):
        from .catalog import parse_family, realize

        spec = parse_family(args.family)
        _check_input_degree(spec.degree, spec.name)
        group = realize(spec)
        echo = {
            "family": spec.name,
            "degree": group.degree,
            "generators": [g.cycle_string() for g in group.generators],
        }
        return group, echo
    path = args.input
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionError(f"{path}: cannot read the group spec: {exc}") from exc
    return parse_group_document(text, source=path)


def _cmd_closure(args) -> dict:
    group, echo = _load_group(args)
    # two_closure checks the degree guard before it builds the n^2 orbital
    # partition, which it caches on the group for `rank`.
    closure = two_closure(group)
    partition = orbital_partition(group)
    witness = _missing_generator(group, closure)
    return {
        "command": "closure",
        "input": echo,
        "results": {
            "degree": group.degree,
            "order": group.order,
            "rank": partition.rank,
            "closure_order": closure.order,
            "closed": witness is None,
            "witness": witness.cycle_string() if witness is not None else None,
            "closure_generators": [g.cycle_string() for g in closure.strong_generators],
        },
    }


def _cmd_classify(args) -> dict:
    from .classify import STATUS_NOT_NILPOTENT, certificate_summary, classify_nilpotent

    group, echo = _load_group(args)
    verdict = classify_nilpotent(group)
    justified_by = "certificate" if verdict.certificate else "classification-theorem"
    if verdict.status == STATUS_NOT_NILPOTENT:
        justified_by = "none"  # outside the theorem's hypothesis: no claim is made
    return {
        "command": "classify",
        "input": echo,
        "results": {
            "order": group.order,
            "verdict": verdict.status,
            "reason": verdict.reason,
            "justified_by": justified_by,
            "certificate": certificate_summary(verdict.certificate) if verdict.certificate else None,
        },
    }


def _cmd_witness(args) -> dict:
    from .classify import certificate_summary, not_two_closed_witness

    group, echo = _load_group(args)
    certificate = not_two_closed_witness(group)
    return {
        "command": "witness",
        "input": echo,
        "results": {
            "order": group.order,
            "certificate": certificate_summary(certificate),
        },
    }


def _cmd_verify(args) -> dict:
    from .verify import SUITES

    suite, flags = SUITES[args.suite], SUITE_FLAGS[args.suite]
    results = suite(**{flag: getattr(args, flag) for flag in flags})
    checks = [
        {"name": r.name, "passed": r.passed, "detail": r.detail}
        for r in results
    ]
    all_passed = all(r.passed for r in results)
    report = {
        "command": "verify",
        "input": {
            "suite": args.suite,
            "seed": args.seed,
            "max_degree": args.max_degree,
            "ignored": [flag for flag in ("seed", "max_degree") if flag not in flags],
        },
        "results": {"checks": checks, "all_passed": all_passed},
    }
    if not all_passed:
        raise _VerificationFailed(report)
    return report


class _VerificationFailed(Exception):
    def __init__(self, report: dict) -> None:
        super().__init__("verification failed")
        self.report = report


def _cmd_catalog(args) -> dict:
    from .catalog import family_syntax_examples

    return {
        "command": "catalog",
        "input": {},
        "results": {
            "families": [
                "C<n>: cyclic of order n",
                "D<2n>: dihedral of order 2n (n >= 3)",
                "SD<2^n>: semidihedral of order 2^n (n >= 4)",
                "Q<2^n>: generalized quaternion of order 2^n (n >= 3)",
                "E<p^3>: extraspecial of order p^3 and exponent p (p odd)",
                "a x b x ...: direct product acting on the disjoint union",
            ],
            "examples": family_syntax_examples(),
        },
    }


def _max_degree(text: str) -> int:
    # The axioms suite samples degrees from 3..max_degree and computes each
    # sample's closure, which the closure search guard allows up to its limit.
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 3 <= value <= CLOSURE_DEGREE_GUARD:
        raise argparse.ArgumentTypeError(f"must be between 3 and {CLOSURE_DEGREE_GUARD}, got {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="twoclosure", description="2-closure computations for finite permutation groups")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    closure = sub.add_parser("closure", help="orbital partition and 2-closure of a group")
    closure.add_argument("-i", "--input", required=True, help="group spec file (JSON)")
    closure.set_defaults(handler=_cmd_closure, family=None)

    classify = sub.add_parser("classify", help="nilpotent 2-closedness verdict")
    source = classify.add_mutually_exclusive_group(required=True)
    source.add_argument("-i", "--input", help="group spec file (JSON)")
    source.add_argument("--family", help="catalog family, e.g. Q8xC2")
    classify.set_defaults(handler=_cmd_classify)

    witness = sub.add_parser("witness", help="non-2-closedness certificate for a family")
    witness.add_argument("--family", required=True, help="catalog family, e.g. D8")
    witness.set_defaults(handler=_cmd_witness, input=None)

    verify = sub.add_parser("verify", help="run a property suite")
    verify.add_argument("--suite", required=True, choices=sorted(SUITE_FLAGS))
    verify.add_argument("--max-degree", type=_max_degree, default=7, dest="max_degree")
    verify.add_argument("--seed", type=int, default=7)
    verify.set_defaults(handler=_cmd_verify)

    catalog = sub.add_parser("catalog", help="list the family syntax")
    catalog.add_argument("--list", action="store_true")
    catalog.set_defaults(handler=_cmd_catalog)

    parser.commands = tuple(sub.choices)
    return parser


def _emit(report: dict, started: float) -> None:
    report["timing"] = {"seconds": round(time.monotonic() - started, 6)}
    sys.stdout.write(json.dumps(report, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        parser.print_usage(sys.stderr)
        words = sys.argv[1:] if argv is None else argv
        command = words[0] if words and words[0] in parser.commands else None
        _emit({"command": command, "error": {"kind": "usage", "message": str(exc)}}, started)
        return 1
    try:
        report = args.handler(args)
    except _VerificationFailed as exc:
        _emit(exc.report, started)
        return 3
    except PreconditionError as exc:
        _emit({"command": args.subcommand, "error": {"kind": "precondition", "message": str(exc)}}, started)
        return 2
    except InternalDefect as exc:
        _emit({"command": args.subcommand, "error": {"kind": "defect", "message": str(exc)}}, started)
        return 3
    except Exception as exc:  # the CLI ends every run in one JSON document
        message = f"unexpected {type(exc).__name__}: {exc}"
        tb = exc.__traceback__
        while tb.tb_next is not None:  # the frame that raised
            tb = tb.tb_next
        code = tb.tb_frame.f_code
        sys.stderr.write(f"internal defect: {message} ({code.co_filename}:{tb.tb_lineno} in {code.co_name})\n")
        _emit({"command": args.subcommand, "error": {"kind": "defect", "message": message}}, started)
        return 3
    _emit(report, started)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

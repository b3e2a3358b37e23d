"""Fuzzing the CLI's group-spec input: whatever the document, `closure -i`
ends in exactly one JSON document on stdout, exit code 0, 1 or 2, and no
traceback on stderr, and `parse_group_document` either returns a group or
raises PreconditionError.

Documents are arbitrary JSON, arbitrary text, and objects shaped like a
group spec with wrong or nearly right fields.  Shaped specs stay at degree
at most 9 or go above a guard, so every run is quick.

`classify -i` is fuzzed with real groups: random words in the generators of
the catalog families of degree at most 16, with the points relabelled.

The whole argument vector is fuzzed too: each command with its flags,
families, integers of up to 60 digits, spec files, help flags and junk
tokens.  Every run prints one JSON document and exits 0, 1 or 2, or 3 from
a `verify` check that fails.
"""

import contextlib
import io
import json
import os
import tempfile
from functools import lru_cache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twoclosure.catalog import parse_family, realize_name
from twoclosure.cli import INPUT_DEGREE_GUARD, main, parse_group_document
from twoclosure.errors import PreconditionError
from twoclosure.group import PermGroup
from twoclosure.orbital import CLOSURE_DEGREE_GUARD
from twoclosure.perm import Permutation, identity
from twoclosure.verify import NOT_TWO_CLOSED_FAMILIES, TWO_CLOSED_FAMILIES

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
# Cycle strings over the notation's own characters, so many parse; the
# non-ASCII digits and the long run of digits must be refused, not crash.
cycle_text = st.text(alphabet="(),0123456789 \t²٣", max_size=16) | st.sampled_from(
    ["()", "(1,2)", "(1,2,3)(4,5)", "(1,9)", "(1,2)(2,3)", "(0,1)", "(1," + "9" * 5000 + ")"]
)
degrees = (
    st.integers(-2, 9)
    | st.integers(CLOSURE_DEGREE_GUARD + 1, INPUT_DEGREE_GUARD + 10)
    | st.integers(min_value=10**6)
    | st.sampled_from([True, 2.5, "4", None, [3]])
)
shaped = st.fixed_dictionaries(
    {"degree": degrees},
    optional={
        "generators": st.lists(cycle_text, max_size=3) | json_values,
        "name": json_values,
    },
)
documents = st.one_of(
    shaped.map(json.dumps),
    json_values.map(json.dumps),
    st.text(max_size=40),
)
FUZZ = settings(max_examples=150, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(documents)
def test_parse_group_document_returns_a_group_or_a_precondition_error(text):
    try:
        group, echo = parse_group_document(text)
    except PreconditionError:
        return
    assert isinstance(group, PermGroup) and echo["degree"] == group.degree


def run_cli(argv: list[str], text: str) -> tuple[int, str, str]:
    """Run the CLI on a spec file holding `text`; returns the exit code, stdout and stderr."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "group.json")
        with open(path, "w", encoding="utf-8", errors="surrogatepass") as handle:
            handle.write(text)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + [path])
    return code, stdout.getvalue(), stderr.getvalue()


@FUZZ
@given(documents)
def test_closure_command_is_total_on_any_document(text):
    code, out, err = run_cli(["closure", "-i"], text)
    assert code in (0, 1, 2), out
    report = json.loads(out)  # exactly one document: trailing text fails
    assert report["command"] == "closure"
    assert ("results" in report) == (code == 0)
    assert "Traceback" not in err


# Both halves of the truth table are drawn from alike, so that the 30 cyclic
# families do not crowd out the negatives.
small_families = st.one_of(
    st.sampled_from([name for name in names if parse_family(name).degree <= 16])
    for names in (TWO_CLOSED_FAMILIES, NOT_TWO_CLOSED_FAMILIES)
)
realized = lru_cache(maxsize=None)(realize_name)


@st.composite
def catalog_words(draw) -> str:
    """A spec of the subgroup generated by up to three random words in a
    catalog group's generators, on relabelled points."""
    name = draw(small_families)
    group = realized(name)
    n, gens = group.degree, group.generators
    relabel = Permutation(tuple(draw(st.permutations(range(n)))))
    words = draw(st.lists(st.lists(st.sampled_from(gens), min_size=1, max_size=4), min_size=1, max_size=3)) if gens else []
    generators = []
    for word in words:
        g = identity(n)
        for letter in word:
            g = g * letter
        generators.append(g.conjugated_by(relabel).cycle_string())
    return json.dumps({"degree": n, "generators": generators, "name": name})


@settings(max_examples=100, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(catalog_words())
def test_classify_command_is_total_on_catalog_subgroups(text):
    code, out, err = run_cli(["classify", "-i"], text)
    assert code in (0, 2), out
    report = json.loads(out)  # exactly one document: trailing text fails
    assert report["command"] == "classify"
    assert "Traceback" not in err
    if code == 0 and report["results"]["certificate"] is not None:
        certificate = report["results"]["certificate"]
        assert certificate["valid"] is True
        assert certificate["group_order"] == report["results"]["order"]


# The argument vector.  Each flag draws its own values; --max-degree is any
# int, since the axioms suite refuses a max degree above its guard before it
# builds a group.  A family joins up to three atoms: catalog
# families of order at most 64, and letters with a number of at most 64 or
# of 7 to 60 digits; it is kept when its order is at most 64 or it is
# refused at once.
COMMANDS = ("closure", "classify", "witness", "verify", "catalog")
SMALL_FAMILIES = [name for name in TWO_CLOSED_FAMILIES + NOT_TWO_CLOSED_FAMILIES if parse_family(name).order <= 64]
long_integers = st.integers(-(10**60) + 1, 10**60 - 1)
family_numbers = st.integers(0, 64) | st.integers(10**6, 10**60 - 1)
family_atoms = st.sampled_from(SMALL_FAMILIES) | st.builds(
    "{}{}".format, st.sampled_from(["C", "D", "SD", "Q", "E"]), family_numbers
)


def answered_at_once(text: str) -> bool:
    """Whether a family has order at most 64 or is refused by its syntax or
    by the input degree guard."""
    try:
        spec = parse_family(text)
    except PreconditionError:
        return True
    return spec.order <= 64 or spec.degree > INPUT_DEGREE_GUARD


families = st.lists(family_atoms, min_size=1, max_size=3).map("x".join).filter(answered_at_once)
junk = st.text(max_size=8) | st.sampled_from(["-", "--", "-x", "--list=1", "x", "C", "E", "--family=", "-h", "--help", "--he"])


class Spec:
    """A spec file's text, written to a file when the argument vector runs."""

    def __init__(self, text: str) -> None:
        self.text = text


FLAG_VALUES = {
    "-i": documents.map(Spec) | st.just("missing.json"),
    "--input": documents.map(Spec),
    "--family": families,
    "--suite": st.sampled_from(["axioms", "lemmas", "classification"]) | junk,
    "--max-degree": st.integers(3, 32).map(str) | long_integers.map(str) | junk,
    "--seed": long_integers.map(str) | junk,
    "--list": st.just(None),
}


# Per command: the flags of which one is required, and the optional ones.
COMMAND_FLAGS = {
    "closure": (("-i", "--input"), ()),
    "classify": (("-i", "--input", "--family"), ()),
    "witness": (("--family",), ()),
    "verify": (("--suite",), ("--max-degree", "--seed")),
    "catalog": ((), ("--list",)),
}


@st.composite
def argument_vectors(draw) -> list:
    """A command with one of its required flags, some optional ones, each
    with a value, and up to two stray tokens after the command: any flag, an
    integer or junk."""
    command = draw(st.sampled_from(COMMANDS))
    required, optional = COMMAND_FLAGS[command]
    flags = [draw(st.sampled_from(required))] if required else []
    flags += draw(st.lists(st.sampled_from(optional), max_size=2)) if optional else []
    argv = [command]
    for flag in flags:
        value = draw(FLAG_VALUES[flag])
        argv += [flag] if value is None else [flag, value]
    for _ in range(draw(st.integers(0, 2))):
        stray = draw(st.sampled_from(sorted(FLAG_VALUES)) | long_integers.map(str) | junk)
        argv.insert(draw(st.integers(1, len(argv))), stray)
    return argv


@settings(max_examples=150, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(argument_vectors())
def test_every_argument_vector_ends_in_one_json_document(argv):
    with tempfile.TemporaryDirectory() as directory:
        words = []
        for token in argv:
            if isinstance(token, Spec):
                path = os.path.join(directory, f"spec{len(words)}.json")
                with open(path, "w", encoding="utf-8", errors="surrogatepass") as handle:
                    handle.write(token.text)
                token = path
            words.append(token)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(words)
    report = json.loads(stdout.getvalue())  # exactly one document: trailing text fails
    assert "Traceback" not in stderr.getvalue()
    if code == 3:  # only a verify check that fails
        assert report["command"] == "verify" and report["results"]["all_passed"] is False, report
    else:
        assert code in (0, 1, 2), report
        assert ("results" in report) == (code == 0)

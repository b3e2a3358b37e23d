"""Fuzzing the CLI's group-spec input: whatever the document, `closure -i`
ends in exactly one JSON document on stdout, exit code 0, 1 or 2, and no
traceback on stderr, and `parse_group_document` either returns a group or
raises PreconditionError.

Documents are arbitrary JSON, arbitrary text, and objects shaped like a
group spec with wrong or nearly right fields.  Shaped specs stay at degree
at most 9 or go above a guard, so every run is quick.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twoclosure.cli import INPUT_DEGREE_GUARD, main, parse_group_document
from twoclosure.errors import PreconditionError
from twoclosure.group import PermGroup
from twoclosure.orbital import CLOSURE_DEGREE_GUARD

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


@FUZZ
@given(documents)
def test_closure_command_is_total_on_any_document(text):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "group.json")
        with open(path, "w", encoding="utf-8", errors="surrogatepass") as handle:
            handle.write(text)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["closure", "-i", path])
    assert code in (0, 1, 2), stdout.getvalue()
    report = json.loads(stdout.getvalue())  # exactly one document: trailing text fails
    assert report["command"] == "closure"
    assert ("results" in report) == (code == 0)
    assert "Traceback" not in stderr.getvalue()

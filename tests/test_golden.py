"""CLI `results` must stay byte-identical to the recorded golden outputs.

Each `<command>_<name>.json` file under `golden/` holds the `results` object
of one CLI run, written as `json.dumps(results, indent=2)` plus a newline,
the way the CLI prints it.  The witness files and `classify_Q8xC2`,
`classify_D16` were recorded before the transporter table replaced per-pair
path replay in membership evidence.  The other classify and verify files and
`representations.json` were recorded before the subgroup lattice moved onto
the element index; the classify families among them take the semidirect,
odd-p and two-group routes, and the verify suites and `representations.json`
pin the faithful representation sampler.  A deliberate change to any of them
is recorded in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from twoclosure.catalog import faithful_representations, realize_name
from twoclosure.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = [
    ("witness", "Q8xC4"),
    ("witness", "D16xC2"),
    ("witness", "E27xC3"),
    ("witness", "D32xC2"),
    ("classify", "Q8xC2"),
    ("classify", "D16"),
    ("classify", "D64"),
    ("classify", "E125"),
    ("classify", "D32xC3"),
    ("classify", "SD32"),
    ("classify", "D8xC3"),
    ("verify", "lemmas"),
    ("verify", "classification"),
]
# (family, max_degree) samples of the faithful representation sampler.
REPRESENTATION_CASES = [
    ("C12", 16),
    ("Q16", 16),
    ("Q8xC3", 16),
    ("D8", 12),
    ("C2xC4", 12),
    ("C2xC2xC2", 10),
    ("D16", 12),
]


@pytest.mark.parametrize("command,name", CASES)
def test_results_match_golden(capsys, command, name):
    option = "--suite" if command == "verify" else "--family"
    assert main([command, option, name]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    expected = (GOLDEN / f"{command}_{name}.json").read_text()
    assert json.dumps(results, indent=2) + "\n" == expected


def test_representation_entries_match_golden():
    expected = json.loads((GOLDEN / "representations.json").read_text())
    assert list(expected) == [f"{name}@{max_degree}" for name, max_degree in REPRESENTATION_CASES]
    for name, max_degree in REPRESENTATION_CASES:
        sample = faithful_representations(realize_name(name), max_degree)
        entries = [
            {
                "degree": e.degree,
                "subgroups": [[g.cycle_string() for g in s.strong_generators] for s in e.subgroups],
                "action": [g.cycle_string() for g in e.action.strong_generators],
            }
            for e in sample.entries
        ]
        assert entries == expected[f"{name}@{max_degree}"], name

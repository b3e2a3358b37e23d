"""CLI `results` must stay byte-identical to the recorded golden outputs.

Each file under `golden/` holds the `results` object of one CLI run, written
as `json.dumps(results, indent=2)` plus a newline, the way the CLI prints it.
The files were recorded before the transporter table replaced per-pair path
replay in membership evidence.  A deliberate change to any of them is
recorded in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from twoclosure.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = [
    ("witness", "Q8xC4"),
    ("witness", "D16xC2"),
    ("witness", "E27xC3"),
    ("witness", "D32xC2"),
    ("classify", "Q8xC2"),
    ("classify", "D16"),
]


@pytest.mark.parametrize("command,family", CASES)
def test_results_match_golden(capsys, command, family):
    assert main([command, "--family", family]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    expected = (GOLDEN / f"{command}_{family}.json").read_text()
    assert json.dumps(results, indent=2) + "\n" == expected

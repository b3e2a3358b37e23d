"""CLI `results` must stay byte-identical to the recorded golden outputs.

Each `<command>_<name>.json` file under `golden/` holds the `results` object
of one CLI run, written as `json.dumps(results, indent=2)` plus a newline,
the way the CLI prints it.  The witness files and `classify_Q8xC2`,
`classify_D16` were recorded before the transporter table replaced per-pair
path replay in membership evidence.  The other classify and verify files and
`representations.json` were recorded before the subgroup lattice moved onto
the element index.  The classify families among them take the semidirect,
odd-p and two-group routes; they, `classify_D16` and `verify_lemmas` were
recorded when those routes and the lemmas suite's certificate battery took
their subgroups from the lattice, and now pin the direct searches that
replaced it.  The verify suites and `representations.json` pin the faithful
representation sampler, the lattice's one remaining user.  Four entries of
`representations.json` were deleted on purpose, two each from `D8@12`
(25 -> 23) and `D16@12` (18 -> 16), with no entry added or changed, when
the sampler went from deduplicating subgroup pairs by simultaneous
conjugacy to one entry per multiset of subgroup conjugacy classes: each
deleted pair (H, K) had a kept pair (H, K') with K' conjugate to K, so
their actions are permutation-isomorphic.  The `closure_*`
files were recorded before the orbital partition was cached on its group;
their specs are in CLOSURE_SPECS.  One field was re-recorded on purpose when
Sylow subgroups stopped being rebuilt from their listed elements:
`classify_D8xC3.json` `certificate.parameters.outer_coset_representative`
went from "(1,2)(3,4)" to "(1,2,3,4)", because the transversal BFS in
`universal_embedding` reads the Sylow subgroup's strong generators.  Five
files were re-recorded on purpose when a product with a factor that fails
on its own orbits started to get a `direct-factor` certificate of the whole
input: `classify_D32xC3` and `classify_D8xC3` (the 2-part alone before,
now `group_order` 96 and 24), and `witness_D16xC2`, `witness_D32xC2` and
`witness_E27xC3` (center certificates of degree 48, 96 and 81 before, 12,
20 and 12 now).  `certificates.json` pins the certificate groups themselves (generators,
strong generators and theta as cycle strings) of the lemmas suite's battery
and of a few routed families; it was recorded before the block layouts of
the witness constructions moved onto `perm.direct_sum`.  A deliberate change
to any of them is recorded in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from twoclosure.catalog import faithful_representations, realize_name
from twoclosure.classify import center_cyclic_test, not_two_closed_witness
from twoclosure.cli import main
from twoclosure.verify import standard_witness_certificates

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
# name -> (degree, 1-based cycle generators) of the `closure -i` goldens.
CLOSURE_SPECS = {
    "klein-3orbits": (6, ["(1,2)(3,4)", "(3,4)(5,6)"]),
    "D8": (4, ["(1,2,3,4)", "(1,3)"]),
    "S4-on-2sets": (6, ["(2,4)(3,5)", "(1,4,6,3)(2,5)"]),
    "S2wrS3": (6, ["(1,2)", "(1,3,5)(2,4,6)", "(1,3)(2,4)"]),
    "S8": (8, ["(1,2,3,4,5,6,7,8)", "(1,2)"]),
}
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

# Families whose routed certificates `certificates.json` pins, besides the
# lemmas suite's battery.
WITNESS_CERTIFICATE_FAMILIES = ["D8xC3", "E27xC3", "D32xC2", "Q8xC4", "C2xC2xC2"]
CENTER_TEST_FAMILIES = ["C2xQ8xC3"]


def certificate_entries() -> dict:
    certificates = standard_witness_certificates()
    for name in WITNESS_CERTIFICATE_FAMILIES:
        certificates.append((f"witness({name})", not_two_closed_witness(realize_name(name))))
    for name in CENTER_TEST_FAMILIES:
        certificates.append((f"center-test({name})", center_cyclic_test(realize_name(name)).certificate))
    return {
        label: {
            "construction": cert.construction,
            "degree": cert.group.degree,
            "generators": [g.cycle_string() for g in cert.group.generators],
            "strong_generators": [g.cycle_string() for g in cert.group.strong_generators],
            "witness": cert.witness.cycle_string(),
        }
        for label, cert in certificates
    }


@pytest.mark.parametrize("command,name", CASES)
def test_results_match_golden(capsys, command, name):
    option = "--suite" if command == "verify" else "--family"
    assert main([command, option, name]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    expected = (GOLDEN / f"{command}_{name}.json").read_text()
    assert json.dumps(results, indent=2) + "\n" == expected


@pytest.mark.parametrize("name", CLOSURE_SPECS)
def test_closure_results_match_golden(tmp_path, capsys, name):
    degree, generators = CLOSURE_SPECS[name]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": name, "degree": degree, "generators": generators}))
    assert main(["closure", "-i", str(spec)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    expected = (GOLDEN / f"closure_{name}.json").read_text()
    assert json.dumps(results, indent=2) + "\n" == expected


def test_representation_entries_match_golden():
    expected = json.loads((GOLDEN / "representations.json").read_text())
    assert list(expected) == [f"{name}@{max_degree}" for name, max_degree in REPRESENTATION_CASES]
    for name, max_degree in REPRESENTATION_CASES:
        entries = [
            {
                "degree": e.degree,
                "subgroups": [[g.cycle_string() for g in s.strong_generators] for s in e.subgroups],
                "action": [g.cycle_string() for g in e.action.strong_generators],
            }
            for e in faithful_representations(realize_name(name), max_degree)
        ]
        assert entries == expected[f"{name}@{max_degree}"], name


def test_certificate_groups_match_golden():
    expected = json.loads((GOLDEN / "certificates.json").read_text())
    assert certificate_entries() == expected


def test_golden_certificates_are_about_the_input():
    for path in sorted(GOLDEN.glob("*_*.json")):
        results = json.loads(path.read_text())
        if isinstance(results, dict) and results.get("certificate"):
            assert results["certificate"]["group_order"] == results["order"], path.name

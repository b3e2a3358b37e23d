"""Identical input must always reproduce identical stabilizer chains.

`golden/chains.json` records, for seeded random groups of degree 3 to 14 and
for six catalog families, the chain's strong generators in chain order, each
level's orbit points in insertion order, the elements' image tuples (a
sha256 of them above SMALL_ORDER elements, null above the enumeration
guard) and, for degree at most 10, the 2-closure's strong generators.  It
was recorded before the chain moved onto image tuples with stored
transversal inverses; the file must stay byte-identical.  Regenerate it
only for a deliberate change, recorded in CHANGES.md, with

    PYTHONPATH=src python tests/test_chain_golden.py
"""

import hashlib
import json
import random
from pathlib import Path

from twoclosure.catalog import realize_name
from twoclosure.group import ENUMERATION_GUARD, PermGroup
from twoclosure.orbital import two_closure
from twoclosure.perm import Permutation

GOLDEN = Path(__file__).parent / "golden" / "chains.json"
SEED = 20160
SAMPLES = 200
FAMILIES = ("D64", "E125", "D32xC3", "Q8xC4", "SD32", "C1000")
SMALL_ORDER = 24
CLOSURE_MAX_DEGREE = 10


def random_generator_sets(seed: int = SEED, samples: int = SAMPLES):
    """(degree, generators) pairs; each generator shuffles a random subset of
    the points, so the groups range from small intransitive ones to Sym(n)."""
    rng = random.Random(seed)
    out = []
    for _ in range(samples):
        degree = rng.randint(3, 14)
        gens = []
        for _ in range(rng.randint(1, 3)):
            moved = rng.sample(range(degree), rng.randint(2, degree))
            targets = moved[:]
            rng.shuffle(targets)
            images = list(range(degree))
            for a, b in zip(moved, targets):
                images[a] = b
            gens.append(Permutation(tuple(images)))
        out.append((degree, gens))
    return out


def chain_record(name: str, group: PermGroup) -> dict:
    record = {
        "name": name,
        "degree": group.degree,
        "generators": [g.cycle_string() for g in group.generators],
        "order": group.order,
        "strong_generators": [g.cycle_string() for g in group._chain.strong_generators()],
        "orbits": [list(level.orbit) for level in group._chain.levels],
    }
    if group.order > ENUMERATION_GUARD:
        record["elements"] = None
    elif group.order <= SMALL_ORDER:
        record["elements"] = [list(g.images) for g in group.elements()]
    else:
        digest = hashlib.sha256()
        for g in group.elements():
            digest.update(repr(g.images).encode())
        record["elements"] = digest.hexdigest()
    if group.degree <= CLOSURE_MAX_DEGREE:
        record["closure"] = [g.cycle_string() for g in two_closure(group).strong_generators]
    return record


def chain_corpus() -> str:
    """A JSON list with one record per line."""
    records = [
        chain_record(f"random-{i}", PermGroup(degree, gens))
        for i, (degree, gens) in enumerate(random_generator_sets())
    ]
    records += [chain_record(name, realize_name(name)) for name in FAMILIES]
    return "[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n"


def test_chains_match_golden():
    assert chain_corpus() == GOLDEN.read_text()


def test_vector_levels_match_golden(monkeypatch):
    # Budget 1: every level with more than one point is a Schreier vector.
    import twoclosure.group as group_module

    monkeypatch.setattr(group_module, "LEVEL_BUDGET", 1)
    assert chain_corpus() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(chain_corpus())

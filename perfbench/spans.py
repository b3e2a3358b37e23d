"""In-process spans and counts around twoclosure's layers.

`Tracer.install` wraps each layer's public functions from outside the
program.  A function is replaced in its defining module and in every
twoclosure module that imported it, so calls through either name are seen.
Permutation products, inverses and constructions are counted rather than
spanned, because a span per product would swamp the work it measures.
Spans stay in memory until `layer_metrics` reads them.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, functions); the functions are looked up by name.
FUNCTION_SPANS = {
    "cli.main": ("twoclosure.cli", ["main"]),
    "cli.parse": ("twoclosure.cli", ["parse_group_document"]),
    "classify.classify": ("twoclosure.classify", ["classify_nilpotent"]),
    "classify.witness_route": ("twoclosure.classify", ["not_two_closed_witness"]),
    "classify.center_test": ("twoclosure.classify", ["center_cyclic_test"]),
    "catalog.realize": ("twoclosure.catalog", ["realize", "realize_name"]),
    "catalog.lattice": ("twoclosure.catalog", ["subgroup_lattice"]),
    "catalog.representations": ("twoclosure.catalog", ["faithful_representations"]),
    "witnesses.construct": ("twoclosure.witnesses", [
        "abelian_p_witness", "two_group_witness", "odd_p_witness", "semidirect_witness", "center_witness",
    ]),
    "witnesses.check": ("twoclosure.witnesses", ["check_certificate"]),
    "actions.build": ("twoclosure.actions", [
        "coset_action", "disjoint_union_action", "quotient_action", "action_hom", "universal_embedding",
    ]),
    "orbital.partition": ("twoclosure.orbital", ["orbital_partition"]),
    "orbital.evidence": ("twoclosure.orbital", ["membership_evidence"]),
    "orbital.closure": ("twoclosure.orbital", ["two_closure"]),
    "orbital.membership": ("twoclosure.orbital", ["is_in_two_closure"]),
    "group.operators": ("twoclosure.group", [
        "center", "centralizer", "core", "is_normal", "sylow_decomposition", "is_cyclic",
        "intersection_elements",
    ]),
    # Filled in at install time with every check_* that verify defines.
    "verify.check": ("twoclosure.verify", []),
}
# span name -> PermGroup methods
METHOD_SPANS = {
    "group.build": ["__init__"],
    "group.sift": ["contains", "sift"],
    "group.elements": ["elements"],
    "group.stabilizer": ["point_stabilizer"],
}
SPAN_NAMES = list(FUNCTION_SPANS) + list(METHOD_SPANS)
# Permutation methods -> count name
PERM_COUNTS = {"__mul__": "perm.products", "inverse": "perm.inverses", "__post_init__": "perm.constructions"}
# Counts taken from a span's return value.
RESULT_COUNTS = {
    "orbital.evidence": ("orbital.evidence.pairs", lambda evidence: len(evidence.assignments)),
    "catalog.lattice": ("catalog.lattice.subgroups", len),
}
COUNT_NAMES = list(PERM_COUNTS.values()) + [name for name, _ in RESULT_COUNTS.values()]


class Tracer:
    """Records spans as [name, start, end, parent index] and named counts."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        def spanned(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if on_result is not None:
                on_result(result)
            return result

        return spanned

    def _count(self, name: str, fn):
        counts = self.counts

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        from twoclosure.group import PermGroup
        from twoclosure.perm import Permutation

        modules = [m for n, m in list(sys.modules.items()) if n.startswith("twoclosure") and m is not None]
        verify = importlib.import_module("twoclosure.verify")
        verify_checks = [
            n for n, f in vars(verify).items()
            if n.startswith("check_") and getattr(f, "__module__", None) == verify.__name__
        ]
        for span, (module_name, names) in FUNCTION_SPANS.items():
            home = importlib.import_module(module_name)
            for attr in names or verify_checks:
                original = getattr(home, attr)
                on_result = None
                if span in RESULT_COUNTS:
                    count, measure = RESULT_COUNTS[span]
                    on_result = lambda result, count=count, measure=measure: self.counts.update({count: measure(result)})
                wrapped = self.wrap(span, original, on_result)
                for module in modules:
                    for bound, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, bound, wrapped)
        for span, methods in METHOD_SPANS.items():
            for attr in methods:
                self._set(PermGroup, attr, self.wrap(span, PermGroup.__dict__[attr]))
        for attr, count in PERM_COUNTS.items():
            self._set(Permutation, attr, self._count(count, Permutation.__dict__[attr]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start, child_end = max(child_start, reach), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """`<span>.calls`, `<span>.self_s` for every span name, and every count."""
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        calls[span[0]] += 1
        self_s[span[0]] += own
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    for name in COUNT_NAMES:
        metrics[name] = (tracer.counts[name], "count")
    return metrics

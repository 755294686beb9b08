"""Per-layer spans and counts, recorded from outside the program.

``Tracer.installed()`` replaces qslab's public functions (and the names
other qslab modules re-bound with ``from ... import``) by wrappers that
record a span or bump a counter, and restores the originals on exit.
Spans stay in memory; ``Tracer.end_pass()`` turns one pass of them into
per-layer numbers, with self time computed from span nesting.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from collections import Counter
from contextlib import contextmanager
from typing import NamedTuple

OP = "op"


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


# (module, attribute, span metric, count metric).  An attribute "Cls.meth"
# names a method.  Timed metrics sum self time; a function with several
# rows of one metric adds into it.
TARGETS = (
    ("qslab.alg", "parse_model", "alg.parse_s", None),
    ("qslab.groups", "build_group", "groups.build_s", None),
    ("qslab.groups", "FiniteGroup.conjugacy_classes", "groups.classes_s", None),
    ("qslab.groups", "FiniteGroup.enumerate_subgroups", "groups.lattice_s", None),
    ("qslab.groups", "FiniteGroup.enumerate_normal_subgroups", "groups.lattice_s", None),
    ("qslab.groups", "FiniteGroup.subgroup_closure", None, "groups.closure_calls"),
    ("qslab.groups", "FiniteGroup.right_transversal", None, "groups.transversal_calls"),
    (
        "qslab.characters",
        "compute_character_table",
        "characters.table_s",
        "characters.table_calls",
    ),
    (
        "qslab.characters",
        "CharacterTable.verify_orthogonality",
        "characters.orthogonality_s",
        "characters.orthogonality_calls",
    ),
    ("qslab.characters", "inner_product", None, "characters.inner_product_calls"),
    ("qslab.characters", "decompose", "characters.decompose_s", None),
    ("qslab.characters", "align_to_reference", "characters.align_s", None),
    ("qslab.characters", "reference_column_map", "characters.align_s", None),
    ("qslab.characters", "load_reference_table", "characters.align_s", None),
    ("qslab.characters", "table_from_cache_dict", "characters.cache_load_s", None),
    ("qslab.ramification", "validate_spherical", "ramification.validate_s", None),
    (
        "qslab.ramification",
        "fixed_point_count",
        "ramification.fixed_points_s",
        "ramification.fixed_points_calls",
    ),
    (
        "qslab.ramification",
        "fixed_point_count_by_membership",
        "ramification.fixed_points_s",
        "ramification.fixed_points_calls",
    ),
    ("qslab.ramification", "fixed_point_table", "ramification.fixed_points_s", None),
    (
        "qslab.ramification",
        "canonical_character",
        "ramification.canonical_s",
        "ramification.canonical_calls",
    ),
    ("qslab.ramification", "quotient_genus", "ramification.quotient_genus_s", None),
    (
        "qslab.ramification",
        "quotient_genus_by_character",
        "ramification.quotient_genus_char_s",
        None,
    ),
    ("qslab.ramification", "fiber_orbit_structure", "ramification.fiber_orbits_s", None),
    ("qslab.search", "search_all_pairs", "search.search_s", None),
    ("qslab.search", "cohomology_dims", None, "search.cohomology_calls"),
    ("qslab.verify", "verify_paper", "verify.battery_self_s", None),
    ("qslab.verify", "render_report", "verify.render_s", None),
    ("qslab.cli", "main", "cli.main_self_s", None),
)

TIMED = tuple(dict.fromkeys(t[2] for t in TARGETS if t[2]))
COUNTED = tuple(dict.fromkeys(t[3] for t in TARGETS if t[3])) + (
    "groups.subgroups",
    "verify.checks_passed",
)


class Tracer:
    """Records spans and counts while installed; one summary per pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, float]] = []
        self._next_id = 0
        self._seen_classes = weakref.WeakSet()
        self._seen_tables = weakref.WeakSet()

    # -- recording --------------------------------------------------------

    def _enter(self) -> None:
        self._next_id += 1
        self._stack.append((self._next_id, time.perf_counter()))

    def _exit(self, name: str) -> None:
        end = time.perf_counter()
        sid, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(Span(sid, parent, name, start, end))

    @contextmanager
    def op(self):
        """The span of one timed operation; layer spans nest under it."""
        self._enter()
        try:
            yield
        finally:
            self._exit(OP)

    def _after(self, attr: str, result) -> None:
        if attr in ("FiniteGroup.enumerate_subgroups", "FiniteGroup.enumerate_normal_subgroups"):
            self.counts["groups.subgroups"] += len(result)
        elif attr == "search_all_pairs":
            self.counts["admissible"] += sum(len(p.admissible) for p in result.pairs)
            self.counts["twists_tried"] += sum(len(p.dims) for p in result.pairs)
        elif attr == "verify_paper":
            self.counts["verify.checks_passed"] += sum(1 for c in result.checks if c.passed)

    def _wrap(self, attr: str, fn, span: str | None, count: str | None):
        tracer = self
        first_only = attr == "FiniteGroup.conjugacy_classes"
        memo = attr == "compute_character_table"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count:
                tracer.counts[count] += 1
            timed = span
            if first_only:
                if args[0] in tracer._seen_classes:
                    timed = None
                else:
                    tracer._seen_classes.add(args[0])
            if memo:
                if args[0] in tracer._seen_tables:
                    tracer.counts["table_memo_hits"] += 1
                else:
                    tracer._seen_tables.add(args[0])
            if timed is None:
                result = fn(*args, **kwargs)
            else:
                tracer._enter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit(timed)
            tracer._after(attr, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target, including names re-bound in other qslab modules."""
        restore = []
        replaced = {}
        try:
            for modname, attr, span, count in TARGETS:
                owner = importlib.import_module(modname)
                cls_name, _, name = attr.rpartition(".")
                if cls_name:
                    owner = getattr(owner, cls_name)
                original = vars(owner)[name]
                wrapper = self._wrap(attr, original, span, count)
                restore.append((owner, name, original))
                setattr(owner, name, wrapper)
                if not cls_name:
                    replaced[id(original)] = (original, wrapper)
            for modname, module in list(sys.modules.items()):
                if modname != "qslab" and not modname.startswith("qslab."):
                    continue
                for name, value in list(vars(module).items()):
                    hit = replaced.get(id(value))
                    if hit is not None and hit[0] is value:
                        restore.append((module, name, value))
                        setattr(module, name, hit[1])
            yield self
        finally:
            for owner, name, original in reversed(restore):
                setattr(owner, name, original)

    # -- summarising --------------------------------------------------------

    def end_pass(self, cache_events: Counter | None = None) -> dict[str, float]:
        """Per-layer numbers for the pass just recorded; clears the record."""
        selfs = self_times(self.spans)
        out = {name: 0.0 for name in TIMED}
        ops = {s.id: s for s in self.spans if s.name == OP}
        op_wall = sum(s.end - s.start for s in ops.values())
        covered = 0.0
        for s in self.spans:
            if s.name != OP:
                out[s.name] += selfs[s.id]
                if s.parent in ops:
                    covered += s.end - s.start
        counts = self.counts
        for name in COUNTED:
            out[name] = counts[name]
        events = cache_events or Counter()
        out["cli.cache_writes"] = events["write"]
        out["characters.table_memo_ratio"] = _ratio(
            counts["table_memo_hits"], counts["characters.table_calls"]
        )
        out["search.admissible_ratio"] = _ratio(counts["admissible"], counts["twists_tried"])
        out["cli.cache_hit_ratio"] = _ratio(events["hit"], events["hit"] + events["write"])
        out["trace.coverage"] = _ratio(covered, op_wall)
        self.spans.clear()
        self.counts.clear()
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0

"""Layer tracing for the benchmark's traced runs.

:class:`Tracer` wraps the public functions of each ``laminate`` module in
every module namespace that looks them up (``laminate.cli`` imports most of
them by name), and the methods on their classes.  Each wrapped call records
a span -- name, start, end, parent span, question id -- into in-memory
arrays; counters at the same boundaries record deterministic work.  At the
end of a run the spans are written to an ``.npz`` file and reduced to the
per-layer metrics: self time (span time minus the time of its child spans)
and counts, both per round of questions.

Two boundaries are counted without a span because they are called
thousands of times per question with almost no work: cache hits of
``LanguageOracle.words`` (a hit is a length the same oracle instance has
answered before -- the oracle caches per instance and by length and never
evicts) and ``GraphCovering.deck_transformation_from`` candidates, whose
time stays in ``deck_group``'s self time.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import weakref
from array import array
from collections import Counter

import numpy as np

# metric name -> span names whose self time it sums
SELF_MS = {
    "cli.self_ms": ["cli.main"],
    "formats.load_ms": ["formats.load"],
    "local_model.glue_classes_ms": ["local_model.glue_classes"],
    "branched_graph.compose_ms": ["branched_graph.compose"],
    "branched_graph.cellular_map_ms": ["branched_graph.cellular_map"],
    "branched_graph.flattening_witness_ms": ["branched_graph.flattening_witness"],
    "inverse_system.search_self_ms": ["inverse_system.search"],
    "inverse_system.certificate_ms": ["inverse_system.certificate"],
    "inverse_system.bond_ms": ["inverse_system.bond"],
    "subshift.words_ms": ["subshift.words"],
    "approximants.build_ms": ["approximants.build"],
    "approximants.bonding_map_self_ms": ["approximants.bonding_map"],
    "transversal.clopen_ms": ["transversal.clopen"],
    "transversal.shift_ms": ["transversal.shift"],
    "coverings.deck_group_ms": ["coverings.deck_group"],
    "coverings.composite_map_ms": ["coverings.composite_map"],
    "coverings.monodromy_ms": ["coverings.monodromy"],
    "profinite.rep_ms": ["profinite.rep"],
    "profinite.metric_ms": ["profinite.metric"],
    "profinite.pow_ms": ["profinite.pow"],
    "profinite.quotient_verify_ms": ["profinite.quotient_verify"],
}
# metric name -> span name whose calls it counts
CALLS = {
    "formats.load_calls": "formats.load",
    "local_model.glue_classes_calls": "local_model.glue_classes",
    "branched_graph.compose_calls": "branched_graph.compose",
    "branched_graph.cellular_map_calls": "branched_graph.cellular_map",
    "inverse_system.composites": "inverse_system.composite",
    "inverse_system.bond_calls": "inverse_system.bond",
    "approximants.build_calls": "approximants.build",
    "transversal.clopen_calls": "transversal.clopen",
}
# counters filled by the wrappers themselves
COUNTERS = ["formats.input_kb", "branched_graph.composed_steps", "subshift.words_hits",
            "subshift.words_misses", "subshift.words_out", "approximants.cells_built",
            "transversal.windows_out", "coverings.deck_candidates", "coverings.deck_elements",
            "profinite.component_ints"]


def unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    return "KiB" if metric.endswith("_kb") else "count"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.qid = array("l")
        self.stack: list[int] = []
        self.question = 0
        self.labels: list[str] = []
        self.counts: Counter = Counter()
        self.patches: list[tuple] = []
        self.seen_lengths = weakref.WeakKeyDictionary()

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.qid.append(self.question)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def begin_question(self, qid: int, label: str):
        """Spans until end_question belong to question ``qid`` (from 1)."""
        self.question = qid
        self.labels.append(label)
        self.open("question")

    def end_question(self):
        while self.stack:  # a raising question may leave spans open
            self.close(self.stack[-1])

    def spanned(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer.counts, args, out, tracer.stack)
            return out
        return wrapper

    # -- installing ------------------------------------------------------

    def patch_function(self, module, attr: str, name: str, after=None):
        """Replace a function in every laminate module that refers to it."""
        original = getattr(module, attr)
        wrapper = self.spanned(name, original, after)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("laminate"):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self.patches.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, wrapper_of):
        raw = cls.__dict__[attr]
        self.patches.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(wrapper_of(raw.__func__)))
        else:
            setattr(cls, attr, wrapper_of(raw))

    def install(self):
        from laminate import (approximants, branched_graph, cli, coverings, formats,
                              inverse_system, local_model, profinite, subshift, transversal)

        def load_after(c, args, out, stack):
            if args and isinstance(args[0], (str, os.PathLike)):
                c["formats.input_kb"] += os.path.getsize(args[0]) / 1024

        def compose_after(c, args, out, stack):
            c["branched_graph.composed_steps"] += sum(len(p) for p in out.edge_map.values())

        def build_after(c, args, out, stack):
            c["approximants.cells_built"] += len(out.graph.vertices) + len(out.graph.edges)

        def windows_after(c, args, out, stack):
            s = out[0] if isinstance(out, tuple) else getattr(out, "domain", out)
            if isinstance(s, transversal.ClopenSet):
                c["transversal.windows_out"] += len(s.windows)

        def ints_after(c, args, out, stack):
            if not stack or self.names[self.name[stack[-1]]] != "profinite.pow":
                c["profinite.component_ints"] += sum(len(x) for x in out.components)

        self.patch_function(cli, "main", "cli.main")
        for attr in ("load_system", "load_oracle", "load_tower"):
            self.patch_function(formats, attr, "formats.load", load_after)
        for attr in ("branch_tree_from_json", "clopen_from_json"):
            self.patch_function(formats, attr, "formats.load")
        self.patch_function(local_model, "glue_classes", "local_model.glue_classes")
        self.patch_function(branched_graph, "compose", "branched_graph.compose", compose_after)
        self.patch_function(branched_graph, "flattening_witness", "branched_graph.flattening_witness")
        self.patch_method(branched_graph.CellularMap, "__post_init__",
                          lambda f: self.spanned("branched_graph.cellular_map", f))
        self.patch_function(inverse_system, "is_flattening_system", "inverse_system.search")
        self.patch_function(inverse_system, "not_lamination_certificate", "inverse_system.certificate")
        self.patch_method(inverse_system.InverseSystem, "composite",
                          lambda f: self.spanned("inverse_system.composite", f))
        self.patch_method(inverse_system.InverseSystem, "bond",
                          lambda f: self.spanned("inverse_system.bond", f))
        self.patch_method(subshift.LanguageOracle, "words", self.words_wrapper)
        self.patch_function(approximants, "build_approximant", "approximants.build", build_after)
        self.patch_function(approximants, "bonding_map", "approximants.bonding_map")
        for attr in ("union", "intersect", "subtract", "complement", "is_equal", "is_subset",
                     "canonicalize", "compose_holonomy"):
            self.patch_function(transversal, attr, "transversal.clopen", windows_after)
        for attr in ("from_cylinder", "from_cylinders"):
            self.patch_method(transversal.ClopenSet, attr,
                              lambda f: self.spanned("transversal.clopen", f, windows_after))
        for attr in ("shift_set", "shift"):
            self.patch_function(transversal, attr, "transversal.shift", windows_after)
        cover = coverings.GraphCovering
        self.patch_method(cover, "deck_group", lambda f: self.spanned("coverings.deck_group", f))
        self.patch_method(cover, "deck_transformation_from", self.candidate_wrapper)
        self.patch_method(cover, "monodromy", lambda f: self.spanned("coverings.monodromy", f))
        self.patch_method(coverings.CoveringTower, "composite_map",
                          lambda f: self.spanned("coverings.composite_map", f))
        self.patch_function(profinite, "delta_infinity_rep", "profinite.rep", ints_after)
        self.patch_function(profinite, "profinite_pow", "profinite.pow", ints_after)
        self.patch_function(profinite, "metric", "profinite.metric")
        self.patch_method(profinite.QuotientHom, "verify",
                          lambda f: self.spanned("profinite.quotient_verify", f))

    def words_wrapper(self, fn):
        tracer, seen = self, self.seen_lengths
        spanned = self.spanned("subshift.words", fn)

        @functools.wraps(fn)
        def words(oracle, length):
            lengths = seen.get(oracle)
            if lengths is None:
                lengths = seen[oracle] = set()
            if length in lengths:
                tracer.counts["subshift.words_hits"] += 1
                return fn(oracle, length)
            out = spanned(oracle, length)
            lengths.add(length)
            tracer.counts["subshift.words_misses"] += 1
            tracer.counts["subshift.words_out"] += len(out)
            return out
        return words

    def candidate_wrapper(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def candidate(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts["coverings.deck_candidates"] += 1
            counts["coverings.deck_elements"] += out is not None
            return out
        return candidate

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    # -- results ---------------------------------------------------------

    def write(self, path, rounds: int) -> dict:
        """Save the spans and return {metric: (value per round, unit)}."""
        name = np.frombuffer(self.name, dtype=np.int_) if len(self.name) else np.zeros(0, int)
        start = np.frombuffer(self.start, dtype=np.float64) if len(self.start) else np.zeros(0)
        end = np.frombuffer(self.end, dtype=np.float64) if len(self.end) else np.zeros(0)
        parent = np.frombuffer(self.parent, dtype=np.int_) if len(self.parent) else np.zeros(0, int)
        qid = np.frombuffer(self.qid, dtype=np.int_) if len(self.qid) else np.zeros(0, int)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), name=name, start=start, end=end,
                            parent=parent, question=qid, labels=np.array(self.labels))
        dur = end - start
        child = parent >= 0
        self_time = dur - np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        per_name = np.bincount(name, weights=self_time, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        out = {}
        for metric, spans in SELF_MS.items():
            total = sum(per_name[self.ids[s]] for s in spans if s in self.ids)
            out[metric] = (total * 1e3 / rounds, "ms")
        for metric, span in CALLS.items():
            out[metric] = (int(calls[self.ids[span]]) / rounds if span in self.ids else 0, "count")
        for metric in COUNTERS:
            out[metric] = (self.counts[metric] / rounds, unit(metric))
        return out

"""Spans and counts at the program's layer boundaries, from outside ``src/``.

The tracer replaces functions on the program's modules with timing
wrappers while a traced round runs, and puts the originals back after
it.  A function is wrapped under every name its callers look it up by:
``validate``, for one, is imported by name into ``poset``, ``canonical``
and ``serialize``, so it is wrapped in each of them under one layer name.

Every wrapped call is a span (id, parent id, layer, start, end).  The
per-layer aggregates (calls, self time, total time, results counted) are
kept for every call.  Full span records are kept only for the first
``SPAN_CAP`` calls of each layer: the hot layers, such as
``SpanReducer.reduce``, run millions of times a run, and their records
would not fit in memory.  ``SpanReducer.add_reduced`` and ``.copy`` are
only counted (no spans, no time): their metrics are call counts, and
timing them would add to the overhead.  A layer's self time is its
duration minus the durations of the wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter


COUNT_ONLY = "count only"
SPAN_CAP = 2000   # span records kept per layer


def layer_targets(prog):
    """(owner, attribute, layer name, result counter) for every wrap site.

    A result counter adds up a number per result; COUNT_ONLY marks a hot
    layer whose calls are counted but not timed, so its time stays in
    its caller's self time.
    """
    young, poset, canonical = prog.young, prog.poset, prog.canonical
    linalg, subspace, serialize = prog.linalg, prog.subspace, prog.serialize
    reducer = linalg.SpanReducer
    return [
        (poset, "enumerate_orbits", "poset.enumerate_orbits", len),
        (poset, "raise_candidate", "poset.raise_candidate",
         lambda res: res is not None),
        (poset, "_dimension_sets", "young._dimension_sets", None),
        (young, "_dimension_sets", "young._dimension_sets", None),
        (young, "validate", "young.validate", None),
        (poset, "validate", "young.validate", None),
        (canonical, "validate", "young.validate", None),
        (serialize, "validate", "young.validate", None),
        (young, "dimension", "young.dimension", None),
        (serialize, "dimension", "young.dimension", None),
        (poset, "build_graph", "poset.build_graph", None),
        (poset, "desingularization_table", "poset.desingularization_table",
         None),
        (poset, "desingularization", "poset.desingularization", None),
        (serialize, "graph_to_json", "serialize.graph_to_json", None),
        (serialize, "desing_to_json", "serialize.desing_to_json", None),
        (serialize, "parse_matrix_text", "serialize.parse_matrix_text", None),
        (canonical, "_canonical_datum", "canonical._canonical_datum", None),
        (canonical, "stabilizer_system_prop2",
         "canonical.stabilizer_system_prop2", None),
        (canonical, "stabilizer_dim_oracle",
         "canonical.stabilizer_dim_oracle", None),
        (canonical, "int_matrix_rank", "linalg.int_matrix_rank", None),
        (linalg, "rref", "linalg.rref", None),
        (subspace, "rref", "linalg.rref", None),
        (reducer, "reduce", "linalg.SpanReducer.reduce", None),
        (reducer, "add_reduced", "linalg.SpanReducer.add_reduced", COUNT_ONLY),
        (reducer, "copy", "linalg.SpanReducer.copy", COUNT_ONLY),
        (subspace.Subspace, "__init__", "subspace.Subspace.init", None),
    ]


class Tracer:
    """Wraps the targets between install() and uninstall(); keeps the
    per-layer aggregates and the first ``SPAN_CAP`` spans of each layer."""

    def __init__(self, targets):
        self.targets = targets
        self.spans = []          # (id, parent id, layer, start, end)
        self.kept = Counter()    # span records kept, per layer
        self.stats = {}          # layer -> [calls, self_s, total_s, counted]
        self.stack = []          # open calls: [span id, time in wrapped calls]
        self.last_id = 0
        self.saved = []

    def install(self):
        for owner, attr, layer, counter in self.targets:
            original = owner.__dict__[attr]
            self.saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, counter))

    def uninstall(self):
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, layer, counter):
        stats = self.stats.setdefault(layer, [0, 0.0, 0.0, 0])
        if counter is COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                stats[0] += 1
                return fn(*args, **kwargs)

            return counted

        stack, spans, kept = self.stack, self.spans, self.kept
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.last_id += 1
            span_id = self.last_id
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stats[0] += 1
                stats[1] += duration - frame[1]
                stats[2] += duration
                if kept[layer] < SPAN_CAP:
                    kept[layer] += 1
                    spans.append((span_id, parent, layer, start, end))
            if counter is not None:
                stats[3] += counter(result)
            return result

        return traced

    def layer(self, name):
        """(calls, self_s, total_s, counted) summed over the traced rounds."""
        return tuple(self.stats.get(name, (0, 0.0, 0.0, 0)))

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, layer, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": layer, "start": start,
                                     "end": end}) + "\n")


UNITS = {
    "calls": "calls/round",
    "self_s": "s/round",
    "data": "data/round",
    "bytes": "B/round",
    "accept_ratio": "ratio",
    "per_raise": "calls/raise",
    "us_per_pair": "us",
    "per_pair": "calls/pair",
    "overhead_s": "s/round",
}


def unit_of(metric):
    return UNITS[metric.rsplit(".", 1)[1]]


def per_layer_metrics(tracer, rounds, graph_json_bytes, overhead_s):
    """The per-layer metrics, each averaged over the traced rounds."""
    def calls(name):
        return tracer.layer(name)[0]

    def self_s(name):
        return tracer.layer(name)[1] / rounds

    def ratio(a, b):
        return a / b if b else 0.0

    raises = calls("poset.raise_candidate")
    pairs = calls("canonical._canonical_datum")
    values = {
        "poset.enumerate_orbits.self_s": self_s("poset.enumerate_orbits"),
        "poset.enumerate_orbits.data":
            tracer.layer("poset.enumerate_orbits")[3] / rounds,
        "poset.raise_candidate.calls": raises / rounds,
        "poset.raise_candidate.self_s": self_s("poset.raise_candidate"),
        "poset.raise_candidate.accept_ratio":
            ratio(tracer.layer("poset.raise_candidate")[3], raises),
        "young._dimension_sets.calls":
            calls("young._dimension_sets") / rounds,
        "young._dimension_sets.self_s": self_s("young._dimension_sets"),
        "young._dimension_sets.per_raise":
            ratio(calls("young._dimension_sets"), raises),
        "young.validate.calls": calls("young.validate") / rounds,
        "young.validate.self_s": self_s("young.validate"),
        "poset.desingularization_table.self_s":
            self_s("poset.desingularization_table"),
        "poset.desingularization.calls":
            calls("poset.desingularization") / rounds,
        "poset.desingularization.self_s": self_s("poset.desingularization"),
        "poset.build_graph.self_s": self_s("poset.build_graph"),
        "serialize.graph_to_json.self_s": self_s("serialize.graph_to_json"),
        "serialize.graph_json.bytes": graph_json_bytes,
        "serialize.desing_to_json.self_s": self_s("serialize.desing_to_json"),
        "canonical._canonical_datum.calls": pairs / rounds,
        "canonical._canonical_datum.self_s":
            self_s("canonical._canonical_datum"),
        "canonical._canonical_datum.us_per_pair":
            1e6 * ratio(tracer.layer("canonical._canonical_datum")[2], pairs),
        "linalg.SpanReducer.reduce.calls":
            calls("linalg.SpanReducer.reduce") / rounds,
        "linalg.SpanReducer.reduce.self_s":
            self_s("linalg.SpanReducer.reduce"),
        "linalg.SpanReducer.reduce.per_pair":
            ratio(calls("linalg.SpanReducer.reduce"), pairs),
        "linalg.SpanReducer.add_reduced.calls":
            calls("linalg.SpanReducer.add_reduced") / rounds,
        "linalg.SpanReducer.copy.calls":
            calls("linalg.SpanReducer.copy") / rounds,
        "linalg.rref.calls": calls("linalg.rref") / rounds,
        "linalg.rref.self_s": self_s("linalg.rref"),
        "linalg.int_matrix_rank.self_s": self_s("linalg.int_matrix_rank"),
        "canonical.stabilizer_system_prop2.self_s":
            self_s("canonical.stabilizer_system_prop2"),
        "canonical.stabilizer_dim_oracle.self_s":
            self_s("canonical.stabilizer_dim_oracle"),
        "young.dimension.self_s": self_s("young.dimension"),
        "subspace.Subspace.init.calls":
            calls("subspace.Subspace.init") / rounds,
        "subspace.Subspace.init.self_s": self_s("subspace.Subspace.init"),
        "serialize.parse_matrix_text.self_s":
            self_s("serialize.parse_matrix_text"),
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": v, "unit": unit_of(name)}
            for name, v in values.items()}

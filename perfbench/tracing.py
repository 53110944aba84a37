"""Spans around the library's layer entry points, recorded from outside.

Each layer is wrapped at the module attributes its callers look it up
through, so the library itself is not edited.  A binding whose module or
attribute no longer exists (after a rename, say) is skipped and its layer
reported as absent; the traced run carries on without it.

Spans are kept in memory as [name, start, end, parent index, query id,
counts] lists and written out once at the end.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict


def _len_result(key):
    return lambda args, result: {key: len(result)}


def _graph_counts(args, result):
    return {"edges": result.edge_count, "nodes": len(result.nodes)}


def _unknowns(args, result):
    return {"unknowns": len(args[0])}


# (layer, bindings as (module, attribute path), counts taken from a call)
LAYERS = (
    ("qualitative.decide", (("qpa", "decide"),), None),
    ("qualitative.reachable_supports", (("qpa.qualitative", "reachable_supports"),), _len_result("supports")),
    (
        "profiles.build_profile_monoid",
        (("qpa.qualitative", "build_profile_monoid"), ("qpa.supportgraph", "build_profile_monoid")),
        _len_result("size"),
    ),
    ("profiles.build_safe_monoid", (("qpa.qualitative", "build_safe_monoid"),), _len_result("size")),
    (
        "profiles.profile_image",
        (("qpa.qualitative", "profile_image"), ("qpa.supportgraph", "profile_image")),
        None,
    ),
    (
        "profiles.class_minima",
        (("qpa.qualitative", "class_minima"), ("qpa.lasso", "class_minima"), ("qpa.semantics", "class_minima")),
        None,
    ),
    ("classify.is_structurally_simple", (("qpa.classify", "is_structurally_simple"),), None),
    ("supportgraph.gate_graph", (("qpa.classify", "ExtendedSupportGraph"),), _graph_counts),
    (
        "supportgraph.build_extended_support_graph",
        (("qpa.supportgraph", "build_extended_support_graph"),),
        _graph_counts,
    ),
    ("supportgraph.reachable_with_steps", (("qpa.supportgraph", "ExtendedSupportGraph.reachable_with_steps"),), None),
    ("supportgraph.sharp_reachable", (("qpa", "sharp_reachable"),), None),
    (
        "supportgraph.synthesize_limit_word",
        (("qpa", "synthesize_limit_word"), ("qpa.supportgraph", "synthesize_limit_word")),
        _len_result("word_len"),
    ),
    ("supportgraph.replay_steps", (("qpa.supportgraph", "replay_steps"),), None),
    (
        "lasso.lasso_acceptance_probability",
        (
            ("qpa", "lasso_acceptance_probability"),
            ("qpa.qualitative", "lasso_acceptance_probability"),
            ("qpa.lasso", "lasso_acceptance_probability"),
        ),
        None,
    ),
    ("lasso.lasso_jet_decomposition", (("qpa", "lasso_jet_decomposition"),), None),
    ("lasso.build_lasso_chain", (("qpa.lasso", "build_lasso_chain"),), None),
    ("semantics.chain_analysis", (("qpa.lasso", "chain_analysis"),), None),
    ("semantics.solve_linear", (("qpa.semantics", "solve_linear"), ("qpa.lasso", "solve_linear")), _unknowns),
    ("semantics.chain_parity_almost", (("qpa.supportgraph", "chain_parity_almost"),), None),
)

# Span fields
NAME, START, END, PARENT, QID, COUNTS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.qid: int | None = None
        self._installed: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.missing_bindings: list[str] = []
        # (arguments, edge count) of each gate-graph construction
        self.gate_calls: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.qid, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if counter is not None:
                rec[COUNTS] = counter(args, result)
            if name == "supportgraph.gate_graph":
                tracer.gate_calls.append((args, result.edge_count))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing the wrappers ----------------------------------------------

    def install(self) -> None:
        for name, bindings, counter in LAYERS:
            found = 0
            for module_name, path in bindings:
                try:
                    owner = importlib.import_module(module_name)
                except ImportError:
                    self.missing_bindings.append(f"{module_name}.{path}")
                    continue
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.missing_bindings.append(f"{module_name}.{path}")
                    continue
                # on a class the wrapper becomes a method: self arrives first
                setattr(owner, attr, self._wrap(name, original, counter))
                self._installed.append((owner, attr, original))
                found += 1
            if not found:
                self.absent.append(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- reading the spans ------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: outermost time and calls, self time, summed counts."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child_time[rec[PARENT]] += rec[END] - rec[START]
        out: dict[str, dict] = defaultdict(
            lambda: {"ms": 0.0, "calls": 0, "self_ms": 0.0, "counts": defaultdict(int)}
        )
        for i, rec in enumerate(spans):
            name = rec[NAME]
            dur = rec[END] - rec[START]
            entry = out[name]
            entry["self_ms"] += (dur - child_time[i]) * 1000
            if not self._has_ancestor(i, lambda r: r[NAME] == name):
                entry["ms"] += dur * 1000
                entry["calls"] += 1
                for k, v in (rec[COUNTS] or {}).items():
                    entry["counts"][k] += v
        return out

    def group_ms(self, prefixes: tuple[str, ...]) -> float:
        """Time inside spans whose name starts with one of the prefixes,
        counting nested spans of the group once."""
        total = 0.0
        for i, rec in enumerate(self.spans):
            if rec[NAME].startswith(prefixes) and not self._has_ancestor(
                i, lambda r: r[NAME].startswith(prefixes)
            ):
                total += rec[END] - rec[START]
        return total * 1000

    def _has_ancestor(self, i: int, pred) -> bool:
        p = self.spans[i][PARENT]
        while p >= 0:
            if pred(self.spans[p]):
                return True
            p = self.spans[p][PARENT]
        return False

    def write(self, path) -> None:
        with open(path, "w") as f:
            f.write("index\tname\tstart_s\tend_s\tparent\tquery\tcounts\n")
            t0 = self.spans[0][START] if self.spans else 0.0
            for i, rec in enumerate(self.spans):
                counts = ",".join(f"{k}={v}" for k, v in sorted((rec[COUNTS] or {}).items()))
                f.write(
                    f"{i}\t{rec[NAME]}\t{rec[START] - t0:.6f}\t{rec[END] - t0:.6f}"
                    f"\t{rec[PARENT]}\t{rec[QID]}\t{counts}\n"
                )

"""Closed-loop benchmark of the qpa decision procedures.

    python3 perfbench/run.py --workload simple-omega --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload simple-omega --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload simple-omega --seed 1 --check-only

One caller, one thread: each query is sent when the previous one returns.
The library is imported from ./src of the checkout this file sits in.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
from queries import DECIDED, run_query  # noqa: E402

SETUP_REPEATS = 5
# a run stops mid-pass only past this many times --seconds
HARD_STOP = 2.0
# share of the run's queries the traced run replays, from the start
TRACE_SHARE = 0.25
OUT_DIR = HERE / "out"

# per-layer metrics of the traced run, by the span names of tracing.LAYERS
MS_LAYERS = (
    "profiles.build_profile_monoid",
    "profiles.build_safe_monoid",
    "profiles.profile_image",
    "profiles.class_minima",
    "qualitative.reachable_supports",
    "classify.is_structurally_simple",
    "supportgraph.gate_graph",
    "supportgraph.build_extended_support_graph",
    "supportgraph.reachable_with_steps",
    "supportgraph.synthesize_limit_word",
    "supportgraph.replay_steps",
    "lasso.lasso_jet_decomposition",
    "lasso.build_lasso_chain",
    "semantics.chain_analysis",
    "semantics.solve_linear",
    "lasso.lasso_acceptance_probability",
    "semantics.chain_parity_almost",
)
COUNTED = (
    ("profiles.build_profile_monoid", "size"),
    ("qualitative.reachable_supports", "supports"),
    ("supportgraph.gate_graph", "edges"),
    ("supportgraph.build_extended_support_graph", "edges"),
    ("supportgraph.build_extended_support_graph", "nodes"),
    ("supportgraph.synthesize_limit_word", "word_len"),
    ("semantics.solve_linear", "unknowns"),
)
PER_QUERY = (
    "profiles.build_profile_monoid",
    "classify.is_structurally_simple",
    "lasso.lasso_acceptance_probability",
)


def _purge_qpa() -> None:
    for name in list(sys.modules):
        if name == "qpa" or name.startswith("qpa."):
            del sys.modules[name]


def setup(workload: str, seed: int):
    """Import qpa, draw the run's queries and parse their automata.

    Repeated SETUP_REPEATS times from a fresh import; returns the last
    repetition's objects with every repetition's time.  automata maps each
    pool text to the parsed relabelled copy the run uses.
    """
    times, parse_times = [], []
    for _ in range(SETUP_REPEATS):
        _purge_qpa()
        t0 = time.perf_counter()
        qpa = importlib.import_module("qpa")
        queries, texts = corpus.draw(workload, seed)
        t1 = time.perf_counter()
        automata = {canon: qpa.parse_automaton(text) for canon, text in texts.items()}
        t2 = time.perf_counter()
        times.append(t2 - t0)
        parse_times.append(t2 - t1)
    budgets = qpa.Budgets(**corpus.BUDGETS[workload])
    return qpa, queries, automata, budgets, times, parse_times


def load_expected(workload: str, queries) -> dict[int, dict]:
    path = HERE / "expected" / f"{workload}.json"
    data = json.loads(path.read_text())
    entries = {e["qid"]: e for e in data["entries"]}
    stale = [q.qid for q in queries if entries.get(q.qid, {}).get("digest") != q.digest]
    if stale or len(entries) != len(queries):
        raise SystemExit(
            f"{path} does not match the generated pool ({len(stale)} stale entries);"
            " regenerate it with perfbench/confirm.py"
        )
    return entries


def timed_loop(qpa, queries, automata, budgets, seconds: float):
    """Run the queries in whole passes, in order.

    The first pass sets the count: as many whole passes as fit in
    seconds, at least one.  Past HARD_STOP times seconds the loop stops
    even inside a pass.
    """
    latencies: list[float] = []
    first: dict[int, object] = {}
    repeats_differ: list[int] = []
    hard = seconds * HARD_STOP
    passes = 1
    start = time.perf_counter()
    i = 0
    while True:
        q = queries[i % len(queries)]
        t0 = time.perf_counter()
        r = run_query(qpa, q, automata[q.text], budgets)
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        if q.qid not in first:
            first[q.qid] = r
        elif first[q.qid].outcome != r.outcome:
            repeats_differ.append(q.qid)
        i += 1
        if i == len(queries):
            passes = max(1, int(seconds // (t1 - start)))
        if i == passes * len(queries) or t1 - start >= hard:
            break
    return latencies, first, repeats_differ, time.perf_counter() - start, i


def check(queries, automata, results: dict, expected: dict[int, dict]):
    """Tally outcomes against expectations and oracles, outside any timing."""
    from checks import compare, witness_ok

    tally = {k: 0 for k in ("right", "wrong", "failed", "undecided", "unchecked", "refuted")}
    notes = []
    by_qid = {q.qid: q for q in queries}
    for qid, r in results.items():
        q = by_qid[qid]
        verdict = compare(expected[qid], r)
        tally[verdict] += 1
        if verdict in ("wrong", "failed"):
            notes.append(f"{verdict}: {q.label()} expected {expected[qid]['outcome']}, got {r.outcome} {r.detail}")
        ok = witness_ok(q, automata[q.text], r)
        if ok is False:
            tally["refuted"] += 1
            notes.append(f"refuted: {q.label()} witness fails the oracle")
    return tally, notes


def outcome_counts(results: dict) -> dict[str, int]:
    counts: dict[str, int] = {}
    for r in results.values():
        counts[r.outcome] = counts.get(r.outcome, 0) + 1
    return counts


def untraced(args) -> dict:
    qpa, queries, automata, budgets, setup_times, _ = setup(args.workload, args.seed)
    expected = load_expected(args.workload, queries)
    latencies, first, repeats_differ, wall, attempted = timed_loop(
        qpa, queries, automata, budgets, args.seconds
    )
    # every attempt of a query ends like its first one, or repeats_differ says so
    per_attempt = [first[queries[i % len(queries)].qid].outcome for i in range(attempted)]
    tally, notes = check(queries, automata, first, expected)
    decided = sum(o in DECIDED for o in per_attempt)
    errors = sum(o == "error" for o in per_attempt)
    wrong = tally["wrong"] + tally["refuted"] + len(repeats_differ)
    lat_ms = sorted(x * 1000 for x in latencies)
    p90 = statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) >= 10 else lat_ms[-1]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for line in notes[:20]:
        print(line)
    print(
        f"workload {args.workload} seed {args.seed}: {attempted} queries"
        f" ({len(first)} distinct of {len(queries)}) in {wall:.2f}s;"
        f" latency samples {len(lat_ms)}, {sum(x > p90 for x in lat_ms)} beyond p90"
    )
    print(f"outcomes {outcome_counts(first)}; checks {tally}; repeats that changed outcome {len(repeats_differ)}")
    print(f"wrong_answers {wrong}; failed_share {errors / attempted:.4f}")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "query_p50_ms": (statistics.median(lat_ms), "ms"),
        "query_p90_ms": (p90, "ms"),
        "queries_per_s": ((attempted - errors) / wall, "1/s"),
        "decided_share": (decided / attempted, "share"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _pass(qpa, queries, automata, budgets, tracer=None):
    results = {}
    start = time.perf_counter()
    for q in queries:
        if tracer is not None:
            tracer.qid = q.qid
            root = tracer.open("query")
        try:
            results[q.qid] = run_query(qpa, q, automata[q.text], budgets)
        finally:
            if tracer is not None:
                tracer.close(root)
    return results, time.perf_counter() - start


def _plain_key_ratio(qpa, gate_calls) -> float | None:
    """Plain-keyed gate-graph edges per label-keyed edge of the same graph.

    The label-keyed graph is built here, after the traced pass, from the
    arguments each gate construction received; None when that fails.
    """
    plain = label = 0
    seen = set()
    for call_args, edges in gate_calls:
        a, budgets, seeds = call_args[:3]
        if (id(a), tuple(seeds)) in seen:
            continue
        seen.add((id(a), tuple(seeds)))
        try:
            label += qpa.supportgraph.ExtendedSupportGraph(a, budgets, seeds).edge_count
        except Exception as e:  # a changed constructor must not stop the run
            print(f"label-keyed side build failed: {type(e).__name__}: {e}")
            return None
        plain += edges
    return plain / label if label else None


def traced(args) -> dict:
    from tracing import Tracer

    qpa, queries, automata, budgets, _, parse_times = setup(args.workload, args.seed)
    expected = load_expected(args.workload, queries)
    k = max(10, round(len(queries) * TRACE_SHARE))
    queries = queries[:k]
    base, wall_plain = _pass(qpa, queries, automata, budgets)
    summaries, walls, tracers, changed = [], [], [], []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            results, wall = _pass(qpa, queries, automata, budgets, tracer)
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())
        walls.append(wall)
        tracers.append(tracer)
        changed += [qid for qid in base if results[qid].outcome != base[qid].outcome]
    tracer, summary = tracers[0], summaries[0]
    # exact repeat of every count across the two traced passes
    mismatched = []
    for name in set(summaries[0]) | set(summaries[1]):
        a, b = summaries[0].get(name), summaries[1].get(name)
        if a is None or b is None or a["calls"] != b["calls"] or dict(a["counts"]) != dict(b["counts"]):
            mismatched.append(name)
    tally, notes = check(queries, automata, base, expected)
    for line in notes[:20]:
        print(line)
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.tsv"
    tracer.write(trace_path)
    ratio = _plain_key_ratio(qpa, tracer.gate_calls) if tracer.gate_calls else 0.0
    if ratio is None:
        print("layer supportgraph.gate_graph.plain_key_ratio: absent")

    print(f"{'layer':48} {'calls':>8} {'ms':>10} {'self_ms':>10}")
    for name, entry in sorted(summary.items(), key=lambda kv: -kv[1]["self_ms"]):
        print(f"{name:48} {entry['calls']:8d} {entry['ms']:10.1f} {entry['self_ms']:10.1f}")
    # summary is a defaultdict: a layer that never ran reads as zeros
    query_ms = summary["query"]["ms"]

    def share(*prefixes):
        return tracer.group_ms(prefixes) / query_ms if query_ms else 0.0

    metrics = {f"{name}.ms": (summary[name]["ms"], "ms") for name in MS_LAYERS}
    for name, key in COUNTED:
        metrics[f"{name}.{key}"] = (summary[name]["counts"][key], "count")
    for name in PER_QUERY:
        metrics[f"{name}.calls_per_query"] = (summary[name]["calls"] / k, "calls/query")
    metrics.update({
        "profiles.profile_image.calls": (summary["profiles.profile_image"]["calls"], "count"),
        "qualitative.decide.self_ms": (summary["qualitative.decide"]["self_ms"], "ms"),
        "supportgraph.gate_graph.plain_key_ratio": (ratio or 0.0, "ratio"),
        "formats.parse_automaton.ms": (statistics.median(parse_times) * 1000, "ms"),
        "share.profiles": (share("profiles."), "share"),
        "share.gate_graph": (share("supportgraph.gate_graph"), "share"),
        "share.extended_graph": (share("supportgraph.build_extended_support_graph"), "share"),
        "share.lasso_exact": (share("lasso.lasso_jet_decomposition", "semantics."), "share"),
        "trace.queries": (k, "count"),
        "trace.query_ms": (query_ms, "ms"),
        "trace.overhead_ratio": (walls[0] / wall_plain if wall_plain else 0.0, "ratio"),
    })
    print(f"traced {k} queries: untraced {wall_plain:.2f}s, traced {walls[0]:.2f}s and {walls[1]:.2f}s; spans in {trace_path.relative_to(ROOT)}")
    for name in tracer.absent:
        print(f"layer {name}: absent")
    for binding in tracer.missing_bindings:
        print(f"binding {binding}: absent")
    if mismatched:
        print(f"counts differ between the two traced passes: {sorted(mismatched)}")
    if changed:
        print(f"tracing changed the outcome of queries {changed}")
    wrong = tally["wrong"] + tally["refuted"]
    failed = sum(r.outcome == "error" for r in base.values())
    return {
        "correct": wrong == 0 and not mismatched and not changed,
        "attempted": k,
        "failed": failed,
        "metrics": {k2: {"value": v, "unit": u} for k2, (v, u) in metrics.items()},
    }


def check_only(args) -> int:
    qpa, queries, automata, budgets, _, _ = setup(args.workload, args.seed)
    expected = load_expected(args.workload, queries)
    results, wall = _pass(qpa, queries, automata, budgets)
    tally, notes = check(queries, automata, results, expected)
    for line in notes:
        print(line)
    print(f"workload {args.workload} seed {args.seed}: {len(queries)} queries in {wall:.2f}s")
    print(f"outcomes {outcome_counts(results)}; checks {tally}")
    return 0 if tally["wrong"] == tally["refuted"] == tally["failed"] == 0 else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check-only", action="store_true", help="run the drawn queries once and check them; no metrics")
    args = p.parse_args(argv)
    for needed in (ROOT / "src" / "qpa", ROOT / "tests" / "oracles.py"):
        if not needed.exists():
            print(f"{needed} is missing: run from a full checkout of the repository", file=sys.stderr)
            return 2
    if args.check_only:
        return check_only(args)
    result = traced(args) if args.trace else untraced(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

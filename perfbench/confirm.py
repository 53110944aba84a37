"""Record each pool query's expected outcome, confirmed once by the oracles.

    python3 perfbench/confirm.py --workload structsimple-gate --jobs 2

Runs every query of the workload's pool once under the workload's budgets,
checks the outcome against the independent oracles of tests/oracles.py and
writes expected/<workload>.json.  It refuses to write when an oracle
disagrees.  Oracles used, beyond the per-run witness checks of checks.py:

  simple-mode no          a bounded LassoOracle.sweep finds no lasso;
  struct-simple outcomes  ostructurally_simple agrees with the gate (rejected
                          exactly when the automaton is not structurally
                          simple); an almost no also gets the bounded sweep;
  sharp no, synth         a bounded #-reachability search over the oracle's
  rejected                layered graphs finds no (subset of the) target.

Queries with no independent oracle beyond their expected outcome: limit
"no" answers in struct-simple mode, jet decompositions, and every budget
stop.  They are marked "oracle": "none".
"""
from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import time

import run  # also puts src/ and this directory on sys.path
import corpus
from queries import run_query

SWEEP = {2: (4, 4), 3: (3, 3)}
GATE_WORD_LEN = 6
SHARP_WORD_LEN = 3


def _bounded_sharp_closure(O, a, start: int) -> set[int]:
    """Supports #-reachable from start through words of bounded length."""
    n_letters = len(a.alphabet)
    seen = {start}
    frontier = [start]
    while frontier:
        s = frontier.pop()
        org = frozenset(O.obits(s))
        for word in O.all_words(n_letters, 1, SHARP_WORD_LEN):
            for dset in O.osharp_dests(a, org, word):
                d = sum(1 << i for i in dset)
                if d and d not in seen:
                    seen.add(d)
                    frontier.append(d)
    return seen


_GATE_TRUTH: dict[str, bool] = {}
_POOLS: dict[str, list] = {}


def confirm_one(args) -> dict:
    workload, qid = args
    import qpa
    import checks
    O = checks.O

    if workload not in _POOLS:
        _POOLS[workload] = corpus.pool(workload)
    q = _POOLS[workload][qid]
    a = qpa.parse_automaton(q.text)
    budgets = qpa.Budgets(**corpus.BUDGETS[workload])
    r = run_query(qpa, q, a, budgets)
    entry = {"qid": qid, "digest": q.digest, "kind": q.kind, "outcome": r.outcome, "value": r.value}
    used: list[str] = []
    problems: list[str] = []
    if r.outcome == "error":
        problems.append(f"error: {r.detail}")
    ok = checks.witness_ok(q, a, r)
    if ok is not None:
        used.append("witness")
        if not ok:
            problems.append("witness refuted")
    if q.kind == "decide" and r.outcome != "budget":
        problem, mode = q.args
        if mode == "struct-simple":
            if q.text not in _GATE_TRUTH:
                _GATE_TRUTH[q.text] = O.ostructurally_simple(a, GATE_WORD_LEN)
            simple = _GATE_TRUTH[q.text]
            used.append(f"ostructurally_simple({GATE_WORD_LEN})")
            if simple != (r.outcome != "rejected"):
                problems.append(f"gate says {r.outcome}, oracle says simple={simple}")
        if r.outcome == "no" and problem in ("almost", "positive"):
            found = O.LassoOracle(a).sweep(*SWEEP[len(a.alphabet)])[problem]
            used.append("sweep{}".format(SWEEP[len(a.alphabet)]))
            if found is not None:
                problems.append(f"sweep found a {problem} lasso {found}")
    if (q.kind == "sharp" and r.outcome == "no") or (q.kind == "synth" and r.outcome == "rejected"):
        start = checks._mask(a, q.args[0] if q.kind == "sharp" else [a.states[i] for i, p in enumerate(a.initial) if p])
        target = checks._mask(a, q.args[1] if q.kind == "sharp" else q.args[0])
        reached = _bounded_sharp_closure(O, a, start)
        used.append(f"bounded-sharp({SHARP_WORD_LEN})")
        hit = target in reached if q.kind == "sharp" else any(d & ~target == 0 for d in reached)
        if hit:
            problems.append("bounded #-search reaches the target")
    entry["oracle"] = "+".join(used) if used else "none"
    entry["problems"] = problems
    return entry


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    p.add_argument("--jobs", type=int, default=1)
    args = p.parse_args(argv)
    pool = corpus.pool(args.workload)
    work = [(args.workload, q.qid) for q in pool]
    t0 = time.perf_counter()
    if args.jobs > 1:
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(args.jobs) as workers:
            entries = workers.map(confirm_one, work, chunksize=1)
    else:
        entries = [confirm_one(w) for w in work]
    bad = [e for e in entries if e["problems"]]
    for e in bad:
        print(f"query {e['qid']} ({e['kind']}): {'; '.join(e['problems'])}")
    counts: dict[str, int] = {}
    for e in entries:
        counts[f"{e['kind']}:{e['outcome']}:{e['oracle']}"] = counts.get(f"{e['kind']}:{e['outcome']}:{e['oracle']}", 0) + 1
    for k in sorted(counts):
        print(f"{counts[k]:5d}  {k}")
    print(f"{len(entries)} queries confirmed in {time.perf_counter() - t0:.1f}s")
    if bad:
        print("not written: an oracle disagrees")
        return 1
    out = run.HERE / "expected" / f"{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    lines = [json.dumps({k: v for k, v in e.items() if k != "problems"}, sort_keys=True) for e in entries]
    header = {
        "workload": args.workload,
        "pool_seed": corpus.POOL_SEEDS[args.workload],
        "budgets": corpus.BUDGETS[args.workload],
    }
    text = json.dumps(header)[:-1] + ', "entries": [\n' + ",\n".join(lines) + "\n]}\n"
    out.write_text(text)
    print(f"wrote {out.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

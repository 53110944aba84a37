"""Outcome checks against the expected outcomes and the independent oracles.

The oracles come from `tests/oracles.py`, which recomputes answers from the
raw matrices without calling the algorithmic modules.  Per query kind:

  decide, yes       the lasso witness is re-verified by LassoOracle.verdict
                    (almost-sure for almost and safety-limit queries,
                    positive for positive ones); a limit yes on reach
                    replays its #-steps through the oracle's layered
                    graphs; a limit yes on parity has its period checked by
                    LassoOracle from the witnessed support.
  sharp, yes        the witness steps replay through the oracle's layered
                    graphs to exactly the target set.
  synth, yes        the word's exact probability of ending in the target,
                    computed here from the raw matrices, is at least 1 - eps.
  lasso_prob        p = 1 and p > 0 agree with LassoOracle.verdict, and p
                    equals the expected exact value.
  jets              no independent oracle: compared with its expected
                    digest only.
  any no, rejected  compared with the expected outcome only at run time;
                    confirm.py checks them once with a bounded oracle
                    search (see there).
"""
from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

from corpus import Query
from queries import DECIDED, Result

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import oracles as O  # noqa: E402


def _mask(a, names) -> int:
    m = 0
    for q in names:
        m |= 1 << a.states.index(q)
    return m


def _letters(a, names) -> tuple[int, ...]:
    return tuple(a.alphabet.index(x) for x in names)


def replay_oracle(a, start: int, steps: list[dict]) -> int:
    """Fold witness steps through the oracle's layered graphs."""
    cur = start
    for step in steps:
        org = frozenset(O.obits(cur))
        layers = O.olayers(a, org, _letters(a, step["word"]))
        for border in step["borders"]:
            layers = O.oapply_border(org, layers, tuple(border))
        bounds = O.oboundaries(org, layers)
        cur = sum(1 << i for i in bounds[step["cut"]])
    return cur


def target_mass(a, word: tuple[int, ...], target: int) -> Fraction:
    """Exact probability of being in target after word, from the raw matrices."""
    vec = list(a.initial)
    n = len(vec)
    for k in word:
        mat = a.matrices[k]
        nxt = [Fraction(0)] * n
        for i, p in enumerate(vec):
            if p:
                row = mat[i]
                for j in range(n):
                    if row[j]:
                        nxt[j] += p * row[j]
        vec = nxt
    return sum((vec[i] for i in O.obits(target)), Fraction(0))


def _decide_witness_ok(a, q: Query, witness: dict) -> bool:
    problem, _ = q.args
    oracle = O.LassoOracle(a)
    kind = a.acceptance.kind
    if problem == "limit" and kind == "reach":
        steps = witness.get("steps")
        if steps is None:
            return False
        support = _mask(a, witness["support"])
        return (
            replay_oracle(a, oracle.init_mask, steps) == support
            and support & ~oracle.fmask == 0
        )
    if problem == "limit" and kind != "safety":
        # the period must make the chain on the witnessed support accept a.s.
        oracle.init_mask = _mask(a, witness["support"])
        almost, _ = oracle.verdict((), _letters(a, witness["period"]))
        return almost
    almost, positive = oracle.verdict(
        _letters(a, witness["prefix"]), _letters(a, witness["period"])
    )
    return positive if problem == "positive" else almost


def witness_ok(q: Query, a, r: Result) -> bool | None:
    """Independent check of a returned answer; None when no oracle applies."""
    if r.outcome != "yes":
        return None
    if q.kind == "decide":
        return _decide_witness_ok(a, q, r.raw.witness)
    if q.kind == "sharp":
        start, target = q.args
        steps = r.raw.witness["steps"]
        return steps is not None and replay_oracle(a, _mask(a, start), steps) == _mask(a, target)
    if q.kind == "synth":
        target, eps = q.args
        return target_mass(a, _letters(a, r.raw), _mask(a, target)) >= 1 - Fraction(eps)
    if q.kind == "lasso_prob":
        prefix, period = q.args
        almost, positive = O.LassoOracle(a).verdict(_letters(a, prefix), _letters(a, period))
        return almost == (r.raw == 1) and positive == (r.raw > 0)
    return None


def compare(expected: dict, r: Result) -> str:
    """right, wrong, failed, undecided or unchecked, against one expected entry.

    A budget stop is never wrong: it is an undecided query.  A decided
    outcome where the expected entry is a budget stop has nothing to be
    compared with and is unchecked, unless an oracle checks it.
    """
    if r.outcome == "error":
        return "failed"
    if r.outcome == "budget":
        return "right" if expected["outcome"] == "budget" else "undecided"
    if expected["outcome"] not in DECIDED:
        return "unchecked"
    if r.outcome != expected["outcome"]:
        return "wrong"
    if expected.get("value") is not None and r.value != expected["value"]:
        return "wrong"
    return "right"

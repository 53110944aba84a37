"""Run one pool query against the library and classify how it ended.

Outcome classes:
  yes, no, undecidable_in_general  the verdict of a decision call; a call
                                   that returns a value (a probability, a
                                   jet decomposition, a word) ends in yes;
  rejected                         an expected InputError;
  budget                           BudgetExceededError, an undecided query;
  error                            anything else.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction

from corpus import Query

DECIDED = ("yes", "no", "undecidable_in_general", "rejected")


@dataclass
class Result:
    outcome: str
    # comparable summary for calls whose return value is fixed by the input
    value: str | None = None
    # the raw return value, kept for the oracle checks
    raw: object = None
    detail: str = ""


def _jets_value(d) -> str:
    """Digest of a jet decomposition in terms of state names, so that it
    does not depend on the order in which the states were declared."""
    a = d.automaton

    def names(mask):
        return sorted(q for i, q in enumerate(a.states) if mask >> i & 1)

    def seq(s):
        return [[names(m) for m in s.head], [names(m) for m in s.cycle]]

    parts = [sorted(seq(j) for j in d.jets), seq(d.j0), d.stabilization_index, str(d.lambda_bound)]
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def call(qpa, q: Query, a, budgets):
    """The library call for q on the parsed automaton a, returning its raw value."""
    if q.kind == "decide":
        problem, mode = q.args
        return qpa.decide(a, problem, mode, budgets)
    if q.kind == "sharp":
        start, target = q.args
        return qpa.sharp_reachable(a, list(start), list(target), budgets)
    if q.kind == "synth":
        target, eps = q.args
        return qpa.synthesize_limit_word(a, list(target), Fraction(eps), budgets)
    prefix, period = q.args
    word = qpa.LassoWord(tuple(prefix), tuple(period))
    if q.kind == "lasso_prob":
        return qpa.lasso_acceptance_probability(a, word)
    return qpa.lasso_jet_decomposition(a, word)


def classify(qpa, q: Query, raw) -> Result:
    if q.kind in ("decide", "sharp"):
        return Result(raw.answer, None, raw)
    if q.kind == "synth":
        return Result("yes", None, raw)
    if q.kind == "lasso_prob":
        return Result("yes", str(raw), raw)
    return Result("yes", _jets_value(raw), raw)


def run_query(qpa, q: Query, a, budgets) -> Result:
    """Call and classify; never raises for a failure of the library."""
    try:
        raw = call(qpa, q, a, budgets)
    except qpa.BudgetExceededError as e:
        return Result("budget", detail=str(e))
    except qpa.InputError as e:
        return Result("rejected", detail=str(e))
    except Exception as e:  # a failing library call is counted, not fatal
        return Result("error", detail=f"{type(e).__name__}: {e}")
    return classify(qpa, q, raw)

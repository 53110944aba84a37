"""Decision procedures for positive, almost-sure, and limit acceptance.

The existential word quantification is replaced by finite closures, scanned
as they are discovered.  An almost-sure "yes" is an exactly reachable
support that a profile maps into itself and accepts from almost surely.  A
positive "yes" is a set that a period accepts from almost surely, out of
each of its states, and that a plain path reaches state by state from the
initial support.  Every yes ships a lasso witness that is re-verified
exactly before it is returned.

A word accepted almost surely is accepted with positive probability, so a
positive "no" is an almost "no".  Almost coBüchi uses this: positive
coBüchi is decided over all words on the small safe monoid, so its "no"
answers the almost question before the profile monoid is closed.
"""
from __future__ import annotations

from . import classify
from .core import (
    Automaton,
    Budgets,
    DEFAULT_BUDGETS,
    LassoWord,
    Verdict,
    bits,
)
from .errors import BudgetExceededError, InputError
from .graphs import image, shortest_words
from .lasso import lasso_acceptance_probability
from .profiles import almost_period, class_minima, iter_checked_profiles, iter_safe_monoid
from .semantics import reach_as_buchi
from .supportgraph import _limit_parity, _limit_reach, reachable_supports

PROBLEMS = ("positive", "almost", "limit")
MODES = ("simple", "general", "lasso", "struct-simple")
# (problem, kind) pairs that general mode decides besides safety
_GENERAL_DECIDABLE = {
    ("almost", "reach"), ("almost", "buchi"), ("positive", "reach"), ("positive", "cobuchi")
}


def _lasso(a: Automaton, rho1: tuple[int, ...], rho2: tuple[int, ...]) -> LassoWord:
    return LassoWord(a.letters(rho1), a.letters(rho2))


def _verified_yes(a: Automaton, w: LassoWord, need_one: bool, extra: dict) -> Verdict:
    p = lasso_acceptance_probability(a, w)
    if (p != 1) if need_one else (p <= 0):
        raise RuntimeError(f"witness {w} failed exact re-verification (probability {p})")
    witness = {
        "prefix": list(w.prefix),
        "period": list(w.period),
        "probability": str(p),
    }
    witness.update(extra)
    return Verdict("yes", witness)


def _path_words(a: Automaton, start: int, within: int) -> dict[int, tuple[int, ...]]:
    """States reached from start by positive paths inside within, each with
    its shortest word: graphs.shortest_words over single states, letters in
    alphabet order; the states of start map to the empty word."""
    rels = [a.relation(k) for k in range(len(a.alphabet))]

    def steps(q: int):
        for k, rel in enumerate(rels):
            for t in bits(rel[q] & within):
                yield k, t

    return dict(shortest_words(((q, ()) for q in bits(start)), steps))


def _first_reached(a: Automaton, start: int, within: int, candidates):
    """The first candidate set C, read lazily with a period that accepts
    almost surely from every state of C, that meets a state reached from
    start by a path inside within, as (C, the shortest such path word, the
    period); None once the candidates run out."""
    words = _path_words(a, start, within)
    reached = sum(1 << q for q in words)
    for c, rho2 in candidates:
        if c & reached:
            rho1 = next(w for q, w in words.items() if c >> q & 1)
            return c, rho1, rho2
    return None


def _positive_yes(a: Automaton, start: int, within: int, candidates) -> Verdict:
    """_first_reached as a verdict: the path word glued to the period is the witness."""
    found = _first_reached(a, start, within, candidates)
    if found is None:
        return Verdict("no", reason="no set that a period accepts almost surely is reachable")
    c, rho1, rho2 = found
    return _verified_yes(a, _lasso(a, rho1, rho2), False, {"class": list(a.names(c))})


def _fully_safe_sets(a: Automaton, fmask: int, budget: int):
    """Per safe profile of F in BFS order, with its word, the greatest set of
    states whose whole tree stays in F and which the profile maps into
    itself, when nonempty: under the repeated word a run in it stays in F."""
    for (rows, full), rho in iter_safe_monoid(a, fmask, budget):
        c = full
        while True:
            nxt = 0
            for i in bits(c):
                if rows[i] & ~c == 0:
                    nxt |= 1 << i
            if nxt == c:
                break
            c = nxt
        if c:
            yield c, rho


def _reach_as_buchi_yes(a: Automaton, budgets: Budgets) -> Verdict:
    """Almost reach on the Buchi reduction; a "yes" is re-verified on a itself."""
    v = decide_almost_simple(reach_as_buchi(a), budgets)
    if v.answer != "yes":
        return v
    w = LassoWord(tuple(v.witness["prefix"]), tuple(v.witness["period"]))
    return _verified_yes(a, w, True, {"support": v.witness["support"]})


def _positive_cobuchi_refuted(a: Automaton, budgets: Budgets) -> bool:
    """Positive coBüchi answers "no": no fully safe set meets a state that a
    plain path reaches from the initial support.  False, not a raise, when
    the safe monoid trips the monoid budget first."""
    safe = _fully_safe_sets(a, a.acceptance_mask(), budgets.monoid)
    try:
        return _first_reached(a, a.initial_support, -1, safe) is None
    except BudgetExceededError:
        return False


def decide_almost_simple(a: Automaton, budgets: Budgets = DEFAULT_BUDGETS) -> Verdict:
    """Is some word accepted with probability one?

    Yes iff some exactly reachable support G admits a profile P that maps G
    into G with every bottom component of P's graph on G having an even
    internal minimum; the witness lasso glues the support word to P's
    generating word.  The scan is profiles.almost_period over the supports
    in subset BFS order; the monoid budget raises only if it trips before
    the witness profile is found, and a "no" closes the whole monoid.

    A word accepted almost surely is accepted with positive probability, so
    for coBüchi the positive criterion, which is decided over all words on
    the much smaller safe monoid, runs first: when it has no witness the
    answer is "no" without the profile monoid.  When its own scan trips the
    monoid budget, the almost scan decides as above.
    """
    acc = a.acceptance
    if acc is None:
        raise InputError("acceptance condition required")
    if acc.kind == "safety":
        return decide_safety(a, "almost", budgets)
    if acc.kind == "reach":
        return _reach_as_buchi_yes(a, budgets)
    if acc.kind == "cobuchi" and _positive_cobuchi_refuted(a, budgets):
        return Verdict("no", reason="no word is accepted with positive probability")
    supports = reachable_supports(a, a.initial_support, budgets.subset)
    found = almost_period(a, supports, budgets.monoid)
    if found is None:
        return Verdict("no", reason="no reachable support admits an almost-surely accepting period")
    g, rho2 = found
    return _verified_yes(a, _lasso(a, supports[g], rho2), True, {"support": list(a.names(g))})


def decide_positive_simple(a: Automaton, budgets: Budgets = DEFAULT_BUDGETS) -> Verdict:
    """Is some word accepted with positive probability?

    Yes iff some set C, which a period accepts almost surely from each of
    its states, meets a state that a plain path reaches from the initial
    support.  C is F for reach, the greatest fully safe set of a safe
    profile of F for coBüchi, and an even-minimum bottom class of a profile
    for Büchi and parity: the class is strongly connected under the period,
    so from any of its states the run sees the class minimum infinitely
    often, almost surely.  Those classes are read off the checked profiles
    only, the letters and the idempotents (profiles.iter_checked_profiles):
    the even-minimum bottom classes of a profile's idempotent power cover
    the same states as the profile's own, so the same states are reached.
    The monoid budget raises only if it trips before the witness is found;
    a "no" closes the whole monoid.
    """
    acc = a.acceptance
    if acc is None:
        raise InputError("acceptance condition required")
    if acc.kind == "safety":
        return decide_safety(a, "positive", budgets)
    if acc.kind == "reach":
        candidates = [(a.acceptance_mask(), (0,))]
    elif acc.kind == "cobuchi":
        candidates = _fully_safe_sets(a, a.acceptance_mask(), budgets.monoid)
    else:
        candidates = (
            (comp, rho)
            for prof, rho in iter_checked_profiles(a, budgets.monoid)
            for comp, mn in class_minima(prof, a.full_mask)
            if mn % 2 == 0
        )
    return _positive_yes(a, a.initial_support, -1, candidates)


def _safe_subset_walk(a: Automaton, start: int, fmask: int, budget: int):
    """Lasso through supports that stay inside F, or None.

    Nodes are supports contained in F; an edge exists only when the letter
    image stays inside F.  A lasso exists iff some node keeps an outgoing
    edge after sink-stripping, and the walk then never leaves such nodes.
    """
    nodes = reachable_supports(a, start, budget, within=fmask)
    rels = [a.relation(k) for k in range(len(a.alphabet))]
    succ: dict[int, list[tuple[int, int]]] = {}
    for s in nodes:
        steps = [(k, image(rel, s)) for k, rel in enumerate(rels)]
        succ[s] = [(k, t) for k, t in steps if not t & ~fmask]
    alive = set(nodes)
    changed = True
    while changed:
        changed = False
        for s in list(alive):
            if not any(t in alive for _, t in succ[s]):
                alive.discard(s)
                changed = True
    if start not in alive:
        return None
    cur = start
    index = {start: 0}
    letters: list[int] = []
    while True:
        k, t = next((k, t) for k, t in succ[cur] if t in alive)
        letters.append(k)
        cur = t
        if cur in index:
            i = index[cur]
            return tuple(letters[:i]), tuple(letters[i:])
        index[cur] = len(letters)


def decide_safety(a: Automaton, problem: str, budgets: Budgets = DEFAULT_BUDGETS) -> Verdict:
    """Safety decisions; the limit and almost variants coincide here.

    Almost: the initial support must sit inside F and some support cycle of
    F-contained supports must be reachable through F-contained images.
    Positive: the greatest set C that a word keeps inside F and closed, tree
    and all, must meet a path inside F from the initial support; the safe
    monoid is scanned as it is discovered, for the first such word.
    """
    acc = a.acceptance
    if acc is None or acc.kind != "safety":
        raise InputError("decide_safety needs a safety acceptance condition")
    if problem not in PROBLEMS:
        raise InputError(f"unknown problem {problem!r}")
    fmask = a.acceptance_mask()
    alpha = a.initial_support
    if problem in ("almost", "limit"):
        if alpha & ~fmask:
            return Verdict("no", reason="the initial support already leaves the safe set")
        found = _safe_subset_walk(a, alpha, fmask, budgets.subset)
        if found is None:
            return Verdict("no", reason="every word eventually pushes the support out of the safe set")
        rho1, rho2 = found
        return _verified_yes(a, _lasso(a, rho1, rho2), True, {})
    a0 = alpha & fmask
    if not a0:
        return Verdict("no", reason="the initial support misses the safe set")
    return _positive_yes(a, a0, fmask, _fully_safe_sets(a, fmask, budgets.monoid))


def decide(a: Automaton, problem: str, mode: str, budgets: Budgets = DEFAULT_BUDGETS) -> Verdict:
    """Dispatch a decision query to the procedure that is actually decidable.

    simple and lasso modes share the simple procedures; general mode is a
    filter in front of them that reports every corner outside safety and
    _GENERAL_DECIDABLE as undecidable; the struct-simple mode raises
    InputError("automaton not structurally simple") unless classify's gate
    proves the automaton structurally simple, and may then answer limit
    questions through the support-graph procedures, which it alone calls.
    The error's verdict attribute is the gate's "no", with its replayed
    witness.  The gate runs once per automaton and Budgets value (see
    classify.is_structurally_simple), so every further struct-simple
    question on the same automaton reads its kept verdict.
    """
    if problem not in PROBLEMS:
        raise InputError(f"unknown problem {problem!r}")
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    acc = a.acceptance
    if acc is None:
        raise InputError("acceptance condition required")
    kind = acc.kind
    if mode == "general" and kind != "safety" and (problem, kind) not in _GENERAL_DECIDABLE:
        reason = f"the {problem} problem is undecidable for {kind} acceptance on general automata"
        return Verdict("undecidable_in_general", reason=reason)
    if mode == "struct-simple":
        gate = classify.is_structurally_simple(a, budgets)
        if not gate:
            exc = InputError("automaton not structurally simple")
            exc.verdict = gate
            raise exc
    if problem == "almost":
        return decide_almost_simple(a, budgets)
    if problem == "positive":
        return decide_positive_simple(a, budgets)
    if kind == "safety":
        return decide_safety(a, "limit", budgets)
    if mode != "struct-simple":
        reason = f"the simple limit problem is undecidable for {kind} acceptance"
        return Verdict("undecidable_in_general", reason=reason)
    if kind == "reach":
        return _limit_reach(a, budgets)
    return _limit_parity(a, budgets)

"""Decision procedures for positive, almost-sure, and limit acceptance.

decide is the one decision entry point: it checks the query once and
dispatches on (problem, acceptance kind) to the private procedures below.
The existential word quantification is replaced by finite closures, scanned
as they are discovered.  An almost-sure "yes" is an exactly reachable
support that a profile maps into itself and accepts from almost surely.  A
positive "yes" is a set that a period accepts from almost surely, out of
each of its states, and that a plain path reaches state by state from the
initial support.  The profiles read the automaton's own acceptance
(Automaton.priorities).  Every yes ships a lasso witness that is
re-verified exactly before it is returned.

Every safety-shaped question, almost and limit safety, positive safety
and positive coBüchi, is one depth-first lasso search over the supports
inside F (_safe_lasso).  A word accepted almost surely is accepted with
positive probability, so a positive "no" is an almost "no".  Almost
coBüchi uses this: the positive coBüchi search runs first, and its "no"
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
from .graphs import image_table, shortest_words
from .lasso import lasso_acceptance_probability
from .profiles import almost_period, class_minima, iter_checked_profiles
from .semantics import reach_as_buchi
from .supportgraph import _limit_parity, _limit_reach, probability_text, reachable_supports

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
        raise RuntimeError(
            f"witness {w} failed exact re-verification (probability {probability_text(p)})"
        )
    witness = {
        "prefix": list(w.prefix),
        "period": list(w.period),
        "probability": probability_text(p),
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


def _positive_yes(a: Automaton, candidates) -> Verdict:
    """The first candidate set C, read lazily with a period that accepts
    almost surely from every state of C, that meets a state a plain path
    reaches from the initial support; the shortest such path word glued to
    the period is the witness."""
    words = _path_words(a, a.initial_support, -1)
    reached = sum(1 << q for q in words)
    for c, rho2 in candidates:
        if c & reached:
            rho1 = next(w for q, w in words.items() if c >> q & 1)
            return _verified_yes(a, _lasso(a, rho1, rho2), False, {"class": list(a.names(c))})
    return Verdict("no", reason="no set that a period accepts almost surely is reachable")


def _safe_lasso(a: Automaton, starts, fmask: int, budget: int):
    """The first lasso that keeps a support inside F forever, as (its start,
    the support S its cycle returns to, the prefix to S, the period from S
    back to S); None when no start has one.

    Depth first over the supports inside F, from the starts in order,
    along the letters whose image stays inside F.  Entering a support, it
    first takes the edge back to the deepest support on the path, so a loop
    at hand is never passed over for a longer cycle.  A support left
    without a cycle has none and is not entered again; a new support past
    budget raises BudgetExceededError.

    Started from the singletons of the states of F that a path reaches, it
    decides the criterion of a word v whose greatest set C, inside the
    states whose whole v-tree stays in F and mapped by v into C, meets a
    reached state.  If C meets the reached q, v^omega keeps {q} inside C,
    so the finite support graph has a cycle that {q} reaches.  Conversely,
    if u.v^omega keeps {q}'s support inside F, S = {q}.u has S.v = S with
    every step inside F, so S lies in C(v), and every state of S is reached
    from q by a path inside F, so C(v) meets a reached state.
    """
    imgs = [image_table(a.relation(k)) for k in range(len(a.alphabet))]
    # a support on the current path: its depth; one left without a cycle: None
    depth: dict[int, int | None] = {}
    # word[d] is the letter into path[d]; the starts come in on None
    path: list[int] = []
    word: list[int | None] = []
    stack = [iter([(None, s) for s in starts])]
    while stack:
        for k, t in stack[-1]:
            if t in depth:  # left without a cycle: edges into the path return on entry
                continue
            if len(depth) >= budget:
                raise BudgetExceededError(f"subset construction exceeded {budget} elements")
            depth[t] = len(path)
            path.append(t)
            word.append(k)
            out = [(j, u) for j, img in enumerate(imgs) if not (u := img(t)) & ~fmask]
            back = [(depth[u], j) for j, u in out if depth.get(u) is not None]
            if back:
                d, j = max(back, key=lambda b: b[0])  # the first letter among the deepest
                return path[0], path[d], tuple(word[1:d + 1]), tuple(word[d + 1:]) + (j,)
            stack.append(iter(out))
            break
        else:
            stack.pop()
            if path:
                depth[path.pop()] = None
                word.pop()
    return None


def _safe_from_paths(a: Automaton, start: int, within: int, budget: int):
    """The path words from start inside within (_path_words), and the
    _safe_lasso search from the singletons of the states of F among them."""
    fmask = a.acceptance_mask()
    words = _path_words(a, start, within)
    return words, _safe_lasso(a, [1 << q for q in words if fmask >> q & 1], fmask, budget)


def _positive_safe_yes(a: Automaton, start: int, within: int, budgets: Budgets) -> Verdict:
    """Positive safety or coBüchi: the path word to the search's start, glued
    to its lasso, is the witness."""
    words, found = _safe_from_paths(a, start, within, budgets.subset)
    if found is None:
        return Verdict("no", reason="no word keeps the support of a reached state of F inside F")
    q, s, rho1, rho2 = found
    w = _lasso(a, words[q.bit_length() - 1] + rho1, rho2)
    return _verified_yes(a, w, False, {"class": list(a.names(s))})


def _almost(a: Automaton, budgets: Budgets) -> Verdict:
    """Almost Büchi, coBüchi or parity: is some word accepted with probability one?

    Yes iff some exactly reachable support G admits a profile P that maps G
    into G with every bottom component of P's graph on G having an even
    internal minimum; the witness lasso glues the support word to P's
    generating word.  The scan is profiles.almost_period over the supports
    in subset BFS order; the monoid budget raises only if it trips before
    the witness profile is found, and a "no" closes the whole monoid.
    """
    supports = reachable_supports(a, a.initial_support, budgets.subset)
    found = almost_period(a, supports, budgets.monoid)
    if found is None:
        return Verdict("no", reason="no reachable support admits an almost-surely accepting period")
    g, rho2 = found
    return _verified_yes(a, _lasso(a, supports[g], rho2), True, {"support": list(a.names(g))})


def _almost_reach(a: Automaton, budgets: Budgets) -> Verdict:
    """Almost reach on the Buchi reduction; a "yes" is re-verified on a itself."""
    v = _almost(reach_as_buchi(a), budgets)
    if v.answer != "yes":
        return v
    w = LassoWord(tuple(v.witness["prefix"]), tuple(v.witness["period"]))
    return _verified_yes(a, w, True, {"support": v.witness["support"]})


def _almost_cobuchi(a: Automaton, budgets: Budgets) -> Verdict:
    """Almost coBüchi: a word accepted almost surely is accepted with
    positive probability, so when the positive coBüchi search has no lasso
    the answer is "no" without the profile monoid; otherwise _almost.  A
    lasso the search finds is thrown away unverified, and its subset
    budget stop is not a "no"."""
    try:
        refuted = _safe_from_paths(a, a.initial_support, -1, budgets.subset)[1] is None
    except BudgetExceededError:
        refuted = False
    if refuted:
        return Verdict("no", reason="no word is accepted with positive probability")
    return _almost(a, budgets)


def _positive(a: Automaton, budgets: Budgets) -> Verdict:
    """Positive Büchi or parity: is some word accepted with positive probability?

    Yes iff some even-minimum bottom class C of a profile meets a state
    that a plain path reaches from the initial support (_positive_yes): C
    is strongly connected under the period, so from any of its states the
    run sees the class minimum infinitely often, almost surely.  Those
    classes are read off the checked profiles only, the letters and the
    idempotents (profiles.iter_checked_profiles): the even-minimum bottom
    classes of a profile's idempotent power cover the same states as the
    profile's own, so the same states are reached.  The monoid budget
    raises only if it trips before the witness is found; a "no" closes
    the whole monoid.
    """
    return _positive_yes(a, (
        (comp, rho)
        for prof, rho in iter_checked_profiles(a, budgets.monoid)
        for comp, mn in class_minima(prof, a.full_mask)
        if mn % 2 == 0
    ))


def _safety(a: Automaton, problem: str, budgets: Budgets) -> Verdict:
    """Safety decisions; the limit and almost variants coincide here.

    Each is a _safe_lasso search over the supports inside F, bounded by
    Budgets.subset.  Almost: the initial support must sit inside F, and the
    search starts from it.  Positive: the search starts from the singletons
    of the states that a path inside F reaches from the initial support's
    states in F; the path word glued to the lasso is the witness.
    """
    fmask = a.acceptance_mask()
    alpha = a.initial_support
    if problem in ("almost", "limit"):
        if alpha & ~fmask:
            return Verdict("no", reason="the initial support already leaves the safe set")
        found = _safe_lasso(a, [alpha], fmask, budgets.subset)
        if found is None:
            return Verdict("no", reason="every word eventually pushes the support out of the safe set")
        _, _, rho1, rho2 = found
        return _verified_yes(a, _lasso(a, rho1, rho2), True, {})
    a0 = alpha & fmask
    if not a0:
        return Verdict("no", reason="the initial support misses the safe set")
    return _positive_safe_yes(a, a0, fmask, budgets)


def decide(a: Automaton, problem: str, mode: str, budgets: Budgets = DEFAULT_BUDGETS) -> Verdict:
    """Is some word accepted positively, almost surely or in the limit?

    The one decision entry point.  It checks the problem, the mode and the
    acceptance once, then dispatches on (problem, kind) once.  simple and
    lasso modes run the procedures as they are; general mode is a filter
    in front of them that reports every corner outside safety and
    _GENERAL_DECIDABLE as undecidable; the struct-simple mode raises
    InputError("automaton not structurally simple") unless classify's gate
    proves the automaton structurally simple, and may then answer limit
    questions through the support-graph procedures, which it alone calls.
    The error's verdict attribute is the gate's "no", with its replayed
    witness.  The gate runs once per automaton and Budgets value (see
    classify.is_structurally_simple), so every further struct-simple
    question on the same automaton reads its kept verdict.  Positive reach
    is a plain path into F, and positive coBüchi the safe-lasso search over
    the supports inside F, bounded by Budgets.subset and not by the monoid
    budget.
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
    if kind == "safety":
        return _safety(a, problem, budgets)
    if problem == "almost":
        if kind == "reach":
            return _almost_reach(a, budgets)
        if kind == "cobuchi":
            return _almost_cobuchi(a, budgets)
        return _almost(a, budgets)
    if problem == "positive":
        if kind == "reach":
            return _positive_yes(a, [(a.acceptance_mask(), (0,))])
        if kind == "cobuchi":
            return _positive_safe_yes(a, a.initial_support, -1, budgets)
        return _positive(a, budgets)
    if mode != "struct-simple":
        reason = f"the simple limit problem is undecidable for {kind} acceptance"
        return Verdict("undecidable_in_general", reason=reason)
    if kind == "reach":
        return _limit_reach(a, budgets)
    return _limit_parity(a, budgets)

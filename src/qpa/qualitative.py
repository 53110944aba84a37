"""Decision procedures for positive, almost-sure, and limit acceptance.

The existential word quantification is replaced by two finite closures: the
subset construction enumerates every exactly reachable support, and the
profile monoid enumerates the finitely many ways a nonempty word can act on
state pairs together with the minimal priority seen along the way.  A yes
answer always ships a lasso witness that is re-verified exactly before it
is returned.
"""
from __future__ import annotations

from collections import deque

from .core import (
    Automaton,
    Budgets,
    DEFAULT_BUDGETS,
    LassoWord,
    Verdict,
    bits,
)
from .errors import BudgetExceededError, InputError
from .graphs import image, image_table
from .lasso import lasso_acceptance_probability
from .profiles import build_safe_monoid, class_minima, iter_profile_monoid, safe_identity
from .semantics import reach_as_buchi

PROBLEMS = ("positive", "almost", "limit")
MODES = ("simple", "general", "lasso", "struct-simple")


def reachable_supports(
    a: Automaton, start: int, budget: int, within: int = -1
) -> dict[int, tuple[int, ...]]:
    """Exact supports reachable from start, each with its shortest word.

    Breadth-first over the subset construction, letters in alphabet order,
    so dict order is shortest-word-first with lexicographic tie-breaking.
    A step whose support leaves the mask within is not taken.
    """
    out: dict[int, tuple[int, ...]] = {start: ()}
    queue: deque[int] = deque([start])
    rels = [a.relation(k) for k in range(len(a.alphabet))]
    while queue:
        s = queue.popleft()
        w = out[s]
        for k, rel in enumerate(rels):
            t = image(rel, s)
            if t & ~within:
                continue
            if t not in out:
                if len(out) >= budget:
                    raise BudgetExceededError(f"subset construction exceeded {budget} supports")
                out[t] = w + (k,)
                queue.append(t)
    return out


def _lasso(a: Automaton, rho1: tuple[int, ...], rho2: tuple[int, ...]) -> LassoWord:
    return LassoWord(
        tuple(a.alphabet[k] for k in rho1),
        tuple(a.alphabet[k] for k in rho2),
    )


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


def _reach_as_buchi_yes(decide, a: Automaton, budgets: Budgets, need_one: bool, key: str) -> Verdict:
    """Decide reach on the Buchi reduction; a "yes" is re-verified on a itself."""
    v = decide(reach_as_buchi(a), budgets)
    if v.answer != "yes":
        return v
    w = LassoWord(tuple(v.witness["prefix"]), tuple(v.witness["period"]))
    return _verified_yes(a, w, need_one, {key: v.witness.get(key, [])})


def decide_almost_simple(a: Automaton, budgets: Budgets = DEFAULT_BUDGETS) -> Verdict:
    """Is some word accepted with probability one?

    Yes iff some exactly reachable support G admits a profile P that maps G
    into G with every bottom component of P's graph on G having an even
    internal minimum; the witness lasso glues the support word to P's
    generating word.

    Profiles are scanned as the monoid closure discovers them, supports
    inside each profile, so the witness is the first profile in BFS order
    that admits a reachable support, with the first such support in the
    subset BFS order.  The monoid budget raises only if it trips before
    that profile is found; a "no" closes the whole monoid.  Since a bottom
    component of P's graph that meets a closed G lies inside G and is a
    bottom component of the graph on G, the parity check reads as G
    missing every odd-minimum bottom component of P's whole graph, found
    once per profile.
    """
    acc = a.acceptance
    if acc is None:
        raise InputError("acceptance condition required")
    if acc.kind == "safety":
        return decide_safety(a, "almost", budgets)
    if acc.kind == "reach":
        return _reach_as_buchi_yes(decide_almost_simple, a, budgets, True, "support")
    supports = reachable_supports(a, a.initial_support, budgets.subset)
    for prof, rho2 in iter_profile_monoid(a, None, budgets.monoid):
        img = image_table(prof[-1])
        odd = None
        for g, rho1 in supports.items():
            if img(g) & ~g:
                continue
            if odd is None:
                odd = 0
                for comp, mn in class_minima(prof, a.full_mask):
                    if mn % 2:
                        odd |= comp
            if g & odd == 0:
                return _verified_yes(
                    a, _lasso(a, rho1, rho2), True, {"support": list(a.names(g))}
                )
    return Verdict("no", reason="no reachable support admits an almost-surely accepting period")


def decide_positive_simple(a: Automaton, budgets: Budgets = DEFAULT_BUDGETS) -> Verdict:
    """Is some word accepted with positive probability?

    Yes iff some profile has a bottom component C with even internal minimum
    that fits inside a reachable support; positive mass lands on C after the
    support word and then never leaves it.  Profiles are scanned as the
    monoid closure discovers them, in BFS order, so the monoid budget raises
    only if it trips before the witness profile is found; a "no" closes the
    whole monoid.
    """
    acc = a.acceptance
    if acc is None:
        raise InputError("acceptance condition required")
    if acc.kind == "safety":
        return decide_safety(a, "positive", budgets)
    if acc.kind == "reach":
        return _reach_as_buchi_yes(decide_positive_simple, a, budgets, False, "class")
    supports = reachable_supports(a, a.initial_support, budgets.subset)
    for prof, rho2 in iter_profile_monoid(a, None, budgets.monoid):
        for comp, mn in class_minima(prof, a.full_mask):
            if mn % 2:
                continue
            for s, rho1 in supports.items():
                if comp & ~s == 0:
                    return _verified_yes(
                        a, _lasso(a, rho1, rho2), False, {"class": list(a.names(comp))}
                    )
    return Verdict("no", reason="no profile component accepts from a reachable support")


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
    Positive: a fixed set C inside F must be closed under some word whose
    whole positive tree stays in F, with C touched by an F-only path from
    the initial support.
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
    monoid = build_safe_monoid(a, fmask, budgets.monoid)
    r1_options = [(safe_identity(a, fmask), ())]
    r1_options.extend((e, w) for e, w in monoid.items())
    for (rows2, full2), rho2 in monoid.items():
        c = full2
        while True:
            nxt = 0
            for i in bits(c):
                if rows2[i] & ~c == 0:
                    nxt |= 1 << i
            if nxt == c:
                break
            c = nxt
        if not c:
            continue
        for (rows1, _), rho1 in r1_options:
            if image(rows1, a0) & c:
                return _verified_yes(
                    a, _lasso(a, rho1, rho2), False, {"class": list(a.names(c))}
                )
    return Verdict("no", reason="no safe set is closed under any word with a fully safe tree")


def decide(a: Automaton, problem: str, mode: str, budgets: Budgets = DEFAULT_BUDGETS) -> Verdict:
    """Dispatch a decision query to the procedure that is actually decidable.

    simple and lasso modes share the simple procedures; general mode answers
    only the decidable corners and reports the rest as undecidable; the
    struct-simple mode first proves the automaton structurally simple and may
    then answer limit questions through the support-graph procedures.
    """
    if problem not in PROBLEMS:
        raise InputError(f"unknown problem {problem!r}")
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    acc = a.acceptance
    if acc is None:
        raise InputError("acceptance condition required")
    kind = acc.kind
    if mode in ("simple", "lasso"):
        if problem == "almost":
            return decide_almost_simple(a, budgets)
        if problem == "positive":
            return decide_positive_simple(a, budgets)
        if kind == "safety":
            return decide_safety(a, "limit", budgets)
        return Verdict(
            "undecidable_in_general",
            reason=f"the simple limit problem is undecidable for {kind} acceptance",
        )
    if mode == "general":
        if kind == "safety":
            return decide_safety(a, problem, budgets)
        if problem == "almost" and kind in ("reach", "buchi"):
            return decide_almost_simple(a, budgets)
        if problem == "positive" and kind in ("reach", "cobuchi"):
            return decide_positive_simple(a, budgets)
        return Verdict(
            "undecidable_in_general",
            reason=f"the {problem} problem is undecidable for {kind} acceptance on general automata",
        )
    verdict = _structural_gate(a, budgets)
    if verdict.answer != "yes":
        raise InputError("struct-simple mode needs a structurally simple automaton")
    if problem == "almost":
        return decide_almost_simple(a, budgets)
    if problem == "positive":
        return decide_positive_simple(a, budgets)
    if kind == "safety":
        return decide_safety(a, "limit", budgets)
    # The gate above is the one the public limit procedures would repeat.
    from .supportgraph import _limit_parity, _limit_reach

    if kind == "reach":
        return _limit_reach(a, budgets)
    return _limit_parity(a, budgets)


def _structural_gate(a: Automaton, budgets: Budgets) -> Verdict:
    from .classify import is_structurally_simple

    return is_structurally_simple(a, budgets)

import random
from collections import Counter, deque
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qpa.core import DEFAULT_BUDGETS, Acceptance, Automaton, Budgets, LassoWord, Verdict, bits, support_mask
from qpa.classify import is_structurally_simple
from qpa.errors import BudgetExceededError, InputError
from qpa.formats import parse_automaton
from qpa.lasso import lasso_acceptance_probability
from qpa.qualitative import (
    MODES,
    PROBLEMS,
    decide,
    reachable_supports,
    _almost,
    _almost_cobuchi,
    _almost_reach,
    _path_words,
    _positive,
    _positive_safe_yes,
    _positive_yes,
    _safety,
)
from qpa.graphs import image
from qpa.profiles import almost_period, class_minima, iter_profile_monoid
from qpa.semantics import make_accepting_absorbing, reach_as_buchi
from qpa.supportgraph import build_extended_support_graph

from conftest import random_automaton
from oracles import LassoOracle, ochecked_profile


def indices(a, verdict):
    """The witness lasso's prefix and period as letter indices."""
    return tuple(
        tuple(a.alphabet.index(x) for x in verdict.witness[part]) for part in ("prefix", "period")
    )


def replay(a, verdict) -> Fraction:
    w = LassoWord(tuple(verdict.witness["prefix"]), tuple(verdict.witness["period"]))
    return lasso_acceptance_probability(a, w)


def test_reachable_supports(ex2):
    sup = reachable_supports(ex2, ex2.mask("1"), 1 << 16)
    assert sup[ex2.mask("1")] == ()
    assert sup[ex2.mask("1 3")] == (0,)
    assert ex2.mask("1 2 4") in sup
    assert ex2.mask("4") not in sup


# The breadth-first loops as they were written out before graphs.shortest_words
# served them all; each search must give their dicts in their order.


def old_reachable_supports(a, start, budget, within=-1):
    out = {start: ()}
    queue = deque([start])
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


def old_path_words(a, start, within):
    out = {q: () for q in bits(start)}
    queue = deque(out)
    rels = [a.relation(k) for k in range(len(a.alphabet))]
    while queue:
        q = queue.popleft()
        w = out[q]
        for k, rel in enumerate(rels):
            for t in bits(rel[q] & within):
                if t not in out:
                    out[t] = w + (k,)
                    queue.append(t)
    return out


def old_reachable_with_steps(g, start):
    by_src = {}
    for eid, (src, _, _) in enumerate(g.edges):
        by_src.setdefault(src, []).append(eid)
    out = {start: []}
    queue = deque([start])
    while queue:
        s = queue.popleft()
        for eid in by_src.get(s, ()):
            d = g.edges[eid][2]
            if d not in out:
                out[d] = out[s] + g.witness_steps(eid)
                queue.append(d)
    return out


def search_outcome(search, *args):
    """The items of a search's dict in order, or the error type it raised."""
    try:
        return list(search(*args).items())
    except BudgetExceededError:
        return BudgetExceededError


def check_searches_against_old_loops(rng):
    n = rng.randint(1, 5)
    a = random_automaton(rng, n, n_letters=rng.randint(1, 3))
    start = rng.randrange(1, 1 << n)
    within = rng.randrange(1 << n)
    full = search_outcome(old_reachable_supports, a, start, 10**6)
    assert search_outcome(reachable_supports, a, start, 10**6) == full
    for budget in range(1, len(full) + 1):
        want = search_outcome(old_reachable_supports, a, start, budget)
        assert search_outcome(reachable_supports, a, start, budget) == want
    for w in (-1, within):
        assert search_outcome(_path_words, a, start, w) == search_outcome(old_path_words, a, start, w)
    if n <= 4:
        g = build_extended_support_graph(a, seeds=[start])
        for s in (start, a.initial_support):
            want = search_outcome(old_reachable_with_steps, g, s)
            assert search_outcome(g.reachable_with_steps, s) == want


def test_searches_match_old_loops_seeded():
    rng = random.Random(1107)
    for _ in range(60):
        check_searches_against_old_loops(rng)


def test_almost_simple_gadget(hrd):
    v = decide(hrd, "almost", "simple")
    assert v.answer == "yes"
    assert replay(hrd, v) == 1


def test_almost_simple_parity(ex1):
    a = ex1.with_acceptance(Acceptance.parity({"s": 1, "t": 1, "u": 0}))
    v = decide(a, "almost", "simple")
    assert v.answer == "yes"
    assert replay(a, v) == 1


def test_almost_simple_all_odd(ex1):
    a = ex1.with_acceptance(Acceptance.parity({"s": 1, "t": 1, "u": 3}))
    assert decide(a, "almost", "simple").answer == "no"


def test_positive_simple_parity(ex1):
    a = ex1.with_acceptance(Acceptance.parity({"s": 1, "t": 1, "u": 0}))
    v = decide(a, "positive", "simple")
    assert v.answer == "yes"
    assert replay(a, v) > 0
    b = ex1.with_acceptance(Acceptance.parity({"s": 1, "t": 3, "u": 1}))
    assert decide(b, "positive", "simple").answer == "no"


def test_positive_reach_via_supports(ex2):
    a = ex2.with_acceptance(Acceptance.reach({"4"}))
    v = decide(a, "positive", "simple")
    assert v.answer == "yes"
    assert replay(a, v) > 0
    assert decide(a, "almost", "simple").answer == "no"


def test_almost_reach(ex2):
    a = ex2.with_acceptance(Acceptance.reach({"3"}))
    v = decide(a, "almost", "simple")
    assert v.answer == "yes"
    assert replay(a, v) == 1


def test_safety_almost(ex1):
    a = ex1.with_acceptance(Acceptance.safety({"s"}))
    v = decide(a, "almost", "simple")
    assert v.answer == "yes"
    assert replay(a, v) == 1
    assert decide(a, "limit", "simple").answer == "yes"
    b = ex1.with_acceptance(Acceptance.safety({"t", "u"}))
    assert decide(b, "almost", "simple").answer == "no"


def test_safety_almost_needs_contained_cycle(exlg):
    # {1} steps to {2} or {1,3} and both of those leave F = {1,3} eventually
    a = exlg.with_acceptance(Acceptance.safety({"1"}))
    assert decide(a, "almost", "simple").answer == "no"


def test_safety_positive(ex1, ex2):
    a = ex2.with_acceptance(Acceptance.safety({"1", "3"}))
    v = decide(a, "positive", "simple")
    assert v.answer == "yes"
    assert v.witness["period"] == ["a"]
    assert replay(a, v) > 0
    b = ex2.with_acceptance(Acceptance.safety({"1"}))
    assert decide(b, "positive", "simple").answer == "no"
    c = ex1.with_acceptance(Acceptance.safety({"u"}))
    assert decide(c, "positive", "simple").answer == "no"


def test_safety_full_set(ex1):
    a = ex1.with_acceptance(Acceptance.safety({"s", "t", "u"}))
    for problem in ("positive", "almost", "limit"):
        assert decide(a, problem, "simple").answer == "yes"


def test_safety_input_checks(ex1):
    a = ex1.with_acceptance(Acceptance.safety({"s"}))
    with pytest.raises(InputError):
        decide(a, "sometimes", "simple")


def test_budget_errors(ex1):
    # the letter profile of a is already a witness, found before the monoid
    # budget trips
    a = ex1.with_acceptance(Acceptance.parity({"s": 1, "t": 1, "u": 0}))
    v = decide(a, "almost", "simple", Budgets(monoid=1))
    assert v.answer == "yes"
    assert (v.witness["prefix"], v.witness["period"]) == (["a", "a"], ["a"])
    assert LassoOracle(a).verdict(*indices(a, v)) == (True, True)
    # a "no" needs the whole monoid
    odd = ex1.with_acceptance(Acceptance.parity({"s": 1, "t": 1, "u": 3}))
    with pytest.raises(BudgetExceededError):
        decide(odd, "almost", "simple", Budgets(monoid=1))
    with pytest.raises(BudgetExceededError):
        decide(odd, "positive", "simple", Budgets(monoid=1))
    # the positive scan walks states, not supports, so the subset budget
    # does not bind it
    v = decide(a, "positive", "simple", Budgets(subset=1))
    assert v.answer == "yes"
    assert LassoOracle(a).verdict(*indices(a, v))[1]


def test_decide_dispatch(hrd, ex1):
    assert decide(hrd, "almost", "lasso").answer == "yes"
    assert decide(hrd, "almost", "simple").answer == "yes"
    cob = ex1.with_acceptance(Acceptance.cobuchi({"s"}))
    assert decide(cob, "almost", "general").answer == "undecidable_in_general"
    assert decide(cob, "positive", "general").answer == "yes"
    bu = ex1.with_acceptance(Acceptance.buchi({"u"}))
    assert decide(bu, "limit", "simple").answer == "undecidable_in_general"
    assert decide(bu, "positive", "general").answer == "undecidable_in_general"
    assert decide(bu, "limit", "general").answer == "undecidable_in_general"
    sf = ex1.with_acceptance(Acceptance.safety({"s"}))
    assert decide(sf, "limit", "general").answer == "yes"
    assert decide(sf, "limit", "lasso").answer == "yes"
    with pytest.raises(InputError):
        decide(bu, "often", "simple")
    with pytest.raises(InputError):
        decide(bu, "almost", "sideways")
    with pytest.raises(InputError):
        decide(ex1, "almost", "simple")


def old_decide(a, problem, mode, budgets=DEFAULT_BUDGETS):
    """decide as it dispatched before general mode became a filter in front
    of the simple procedures; almost and positive dispatch on the kind as
    the public almost and positive procedures did."""
    from qpa.supportgraph import _limit_parity, _limit_reach

    if problem not in PROBLEMS:
        raise InputError(f"unknown problem {problem!r}")
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    acc = a.acceptance
    if acc is None:
        raise InputError("acceptance condition required")
    kind = acc.kind

    def almost():
        if kind == "safety":
            return _safety(a, "almost", budgets)
        if kind == "reach":
            return _almost_reach(a, budgets)
        if kind == "cobuchi":
            return _almost_cobuchi(a, budgets)
        return _almost(a, budgets)

    def positive():
        if kind == "safety":
            return _safety(a, "positive", budgets)
        if kind == "cobuchi":
            return _positive_safe_yes(a, a.initial_support, -1, budgets)
        if kind == "reach":
            return _positive_yes(a, [(a.acceptance_mask(), (0,))])
        return _positive(a, budgets)
    if mode in ("simple", "lasso"):
        if problem == "almost":
            return almost()
        if problem == "positive":
            return positive()
        if kind == "safety":
            return _safety(a, "limit", budgets)
        return Verdict(
            "undecidable_in_general",
            reason=f"the simple limit problem is undecidable for {kind} acceptance",
        )
    if mode == "general":
        if kind == "safety":
            return _safety(a, problem, budgets)
        if problem == "almost" and kind in ("reach", "buchi"):
            return almost()
        if problem == "positive" and kind in ("reach", "cobuchi"):
            return positive()
        return Verdict(
            "undecidable_in_general",
            reason=f"the {problem} problem is undecidable for {kind} acceptance on general automata",
        )
    if is_structurally_simple(a, budgets).answer != "yes":
        raise InputError("struct-simple mode needs a structurally simple automaton")
    if problem == "almost":
        return almost()
    if problem == "positive":
        return positive()
    if kind == "safety":
        return _safety(a, "limit", budgets)
    if kind == "reach":
        return _limit_reach(a, budgets)
    return _limit_parity(a, budgets)


def dispatch_outcome(f, *args):
    """A verdict's answer, reason and witness, or the type of the error raised."""
    try:
        v = f(*args)
    except (InputError, BudgetExceededError) as exc:
        return type(exc)
    return v.answer, v.reason, v.witness


def test_decide_table_matches_old_dispatch(ex1, ex2, hrd, exlg):
    rng = random.Random(17)
    automata = [ex1, ex2, hrd, exlg] + [random_automaton(rng, 3) for _ in range(3)]
    for a in automata:
        f = list(a.states[: 1 + a.n // 2])
        prios = {q: i % 3 for i, q in enumerate(a.states)}
        accs = [Acceptance.safety(f), Acceptance.reach(f), Acceptance.buchi(f)]
        accs += [Acceptance.cobuchi(f), Acceptance.parity(prios)]
        for acc in accs:
            b = a.with_acceptance(acc)
            for mode in MODES:
                for problem in PROBLEMS:
                    want = dispatch_outcome(old_decide, b, problem, mode)
                    assert dispatch_outcome(decide, b, problem, mode) == want, (mode, problem, acc)


def _relabelled(a: Automaton, rng: random.Random) -> Automaton:
    """A copy of a with its states permuted and renamed, and its letters
    reordered and renamed."""
    perm = rng.sample(range(a.n), a.n)
    order = rng.sample(range(len(a.alphabet)), len(a.alphabet))
    name = {a.states[i]: f"r{j}" for j, i in enumerate(perm)}
    mats = [[[a.matrices[k][i][j] for j in perm] for i in perm] for k in order]
    acc = a.acceptance
    if acc.kind == "parity":
        acc = Acceptance.parity({name[q]: p for q, p in acc.priorities})
    else:
        acc = Acceptance(acc.kind, frozenset(name[q] for q in acc.states))
    return Automaton(
        [name[a.states[i]] for i in perm],
        [f"x{k}" for k in order],
        mats,
        [a.initial[i] for i in perm],
        acc,
    )


def test_decide_is_invariant_under_relabelling():
    # every copy is a distinct Automaton, so the gate's kept verdict of one
    # can never answer for another
    rng = random.Random(5)
    budgets = Budgets(monoid=3000, path_cap=800)
    kinds = ("safety", "reach", "buchi", "cobuchi", "parity")

    def outcome(a, problem, mode):
        try:
            return decide(a, problem, mode, budgets).answer
        except BudgetExceededError:
            return "budget"
        except InputError:
            return "rejected"

    seen, order_dependent_stops = Counter(), 0
    for d in range(160):
        a = random_automaton(rng, rng.randrange(3, 5), 2, acceptance=kinds[d % 5])
        b = _relabelled(a, rng)
        for mode in MODES:
            for problem in PROBLEMS:
                got = outcome(a, problem, mode), outcome(b, problem, mode)
                seen[got[0]] += 1
                if got[0] == got[1]:
                    continue
                # the gate's phase 1 stops at the first refuted minimal
                # support in mask order, so a state order can meet the
                # path_cap first where another meets a returner; beyond
                # the cap both orders refute
                assert mode == "struct-simple" and set(got) == {"budget", "rejected"}
                more = Budgets(monoid=3000, path_cap=20_000)
                assert [is_structurally_simple(c, more).answer for c in (a, b)] == ["no", "no"]
                order_dependent_stops += 1
    assert set(seen) == {"yes", "no", "undecidable_in_general", "rejected", "budget"}
    assert order_dependent_stops < seen["budget"]


def test_absorbing_preserves_reach(ex1):
    a = ex1.with_acceptance(Acceptance.reach({"u"}))
    b = make_accepting_absorbing(ex1, ex1.mask("u")).with_acceptance(Acceptance.reach({"u"}))
    w = LassoWord((), ("a", "b"))
    assert lasso_acceptance_probability(a, w) == 1
    assert lasso_acceptance_probability(b, w) == 1


@pytest.mark.parametrize("seed", range(10))
def test_reach_complements_safety(seed):
    # hitting F and forever avoiding F split every run exactly
    rng = random.Random(7200 + seed)
    a = random_automaton(rng, rng.randrange(2, 5))
    k = rng.randrange(1, a.n + 1)
    f = rng.sample(a.states, k)
    rest = [q for q in a.states if q not in f]
    prefix = tuple(rng.randrange(2) for _ in range(rng.randrange(3)))
    period = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 4)))
    w = LassoWord(prefix, period)
    p_reach = lasso_acceptance_probability(a.with_acceptance(Acceptance.reach(f)), w)
    p_avoid = lasso_acceptance_probability(a.with_acceptance(Acceptance.safety(rest)), w)
    assert p_reach + p_avoid == 1


@pytest.mark.parametrize("seed", range(10))
def test_absorbing_preserves_reach_random(seed):
    rng = random.Random(8300 + seed)
    a = random_automaton(rng, rng.randrange(2, 5))
    k = rng.randrange(1, a.n + 1)
    f = frozenset(rng.sample(a.states, k))
    b = make_accepting_absorbing(a, a.mask(f))
    prefix = tuple(rng.randrange(2) for _ in range(rng.randrange(4)))
    period = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 4)))
    w = LassoWord(prefix, period)
    ra = a.with_acceptance(Acceptance.reach(f))
    rb = b.with_acceptance(Acceptance.reach(f))
    assert lasso_acceptance_probability(ra, w) == lasso_acceptance_probability(rb, w)


@pytest.mark.parametrize("seed", range(20))
def test_bounded_completeness_random(seed):
    rng = random.Random(5100 + seed)
    kind = ["parity", "buchi", "cobuchi", "reach", "safety"][seed % 5]
    a = random_automaton(rng, rng.randrange(2, 5), acceptance=kind)
    oracle = LassoOracle(a)
    found = oracle.sweep(3, 4)
    almost = decide(a, "almost", "simple")
    positive = decide(a, "positive", "simple")
    if found["almost"] is not None:
        assert almost.answer == "yes"
    if found["positive"] is not None:
        assert positive.answer == "yes"
    if almost.answer == "yes":
        assert replay(a, almost) == 1
    if positive.answer == "yes":
        assert replay(a, positive) > 0
    # an almost-surely accepting word is in particular positively accepting
    if almost.answer == "yes":
        assert positive.answer == "yes"


# -- the on-the-fly scans against the eager scans they replace ------------------


def eager_witnesses(supports, monoid):
    """The monoid positions of the checked profiles (letters and idempotents)
    that witness almost "yes" in the eager scan, each mapped to that
    profile's first witness: the first support the profile maps into itself
    with only even bottom minima."""
    almost = {}
    for pos, (prof, rho2) in enumerate(monoid.items()):
        if not ochecked_profile(prof[-1], rho2):
            continue
        for g, rho1 in supports.items():
            if image(prof[-1], g) & ~g == 0 and all(
                mn % 2 == 0 for _, mn in class_minima(prof, g)
            ):
                almost.setdefault(pos, (rho1, rho2, g))
    return almost


def eager_almost(a, supports, monoid):
    """The almost scan with supports outer and the whole monoid inner."""
    for g, rho1 in supports.items():
        for prof, rho2 in monoid.items():
            if image(prof[-1], g) & ~g:
                continue
            if all(mn % 2 == 0 for _, mn in class_minima(prof, g)):
                return rho1, rho2, g
    return None


def old_positive(a) -> bool:
    """The positive criterion before plain paths: an even-minimum bottom class
    of some profile fits inside an exactly reachable support.  Reach is read
    through reach_as_buchi, and safety as coBuchi on the automaton whose
    unsafe states are sinks, where a run stays safe iff it ends up in F."""
    acc = a.acceptance
    if acc.kind == "reach":
        b = reach_as_buchi(a)
    elif acc.kind == "safety":
        unsafe = a.full_mask & ~a.acceptance_mask()
        b = make_accepting_absorbing(a, unsafe).with_acceptance(Acceptance.cobuchi(acc.states))
    else:
        b = a
    supports = reachable_supports(b, b.initial_support, 1 << 16)
    return any(
        mn % 2 == 0 and any(comp & ~s == 0 for s in supports)
        for prof, _ in iter_profile_monoid(b)
        for comp, mn in class_minima(prof, b.full_mask)
    )


def plain_reach(a):
    """The states that some positive path reaches from the initial support."""
    seen, grown = 0, a.initial_support
    while grown != seen:
        seen = grown
        for k in range(len(a.alphabet)):
            grown |= image(a.relation(k), seen)
    return seen


def positive_scan(a):
    """The words of the profile monoid that the Buchi and parity positive
    scan reads, in BFS order, with the position and set of its first
    witness (None, None when there is none): the even-minimum bottom
    classes of each checked profile (a letter or an idempotent).  A witness
    set must meet a state that a plain path reaches."""
    reached = plain_reach(a)
    monoid = dict(iter_profile_monoid(a))
    words = list(monoid.values())
    for pos, (prof, rho) in enumerate(monoid.items()):
        if not ochecked_profile(prof[-1], rho):
            continue
        for c, mn in class_minima(prof, a.full_mask):
            if mn % 2 == 0 and c & reached:
                return words, pos, c
    return words, None, None


def check_lazy_scans(rng):
    """Returns whether positive answered under a monoid budget that stops
    short of the whole monoid."""
    kind = rng.choice(["parity", "buchi", "cobuchi", "reach"])
    a = random_automaton(rng, rng.randint(2, 5), rng.randint(1, 3), acceptance=kind)
    b = reach_as_buchi(a) if kind == "reach" else a
    supports = reachable_supports(b, support_mask(b.initial), 1 << 16)
    monoid = dict(iter_profile_monoid(b))
    words = list(monoid.values())
    almost_at = eager_witnesses(supports, monoid)
    oracle = LassoOracle(a)

    def names(w):
        return [a.alphabet[k] for k in w]

    almost = decide(a, "almost", "simple")
    assert almost.answer == ("yes" if eager_almost(b, supports, monoid) else "no")
    assert (almost.answer == "yes") == bool(almost_at)
    if almost_at:
        rho1, rho2, g = almost_at[min(almost_at)]
        assert almost.witness["prefix"] == names(rho1)
        assert almost.witness["period"] == names(rho2)
        assert almost.witness["support"] == list(b.names(g))
        assert oracle.verdict(*indices(a, almost))[0]
    # a coBuchi draw with no positive witness is refuted by the lasso search
    # over supports first, which no monoid budget binds: "no" under every one
    refuted = kind == "cobuchi" and not old_positive(a)
    if refuted:
        assert not almost_at
        assert almost.reason == "no word is accepted with positive probability"
    # otherwise, under a monoid budget the almost scan sees the budget's
    # prefix of the BFS order: the letters, then further profiles up to the
    # budget
    letters = sum(len(w) == 1 for w in words)
    for budget in range(1, min(len(words), 40)):
        seen = max(budget, letters)
        if almost_at and min(almost_at) < seen:
            assert decide(a, "almost", "simple", Budgets(monoid=budget)).witness == almost.witness
        elif refuted:
            assert decide(a, "almost", "simple", Budgets(monoid=budget)).answer == "no"
        elif seen < len(words):
            with pytest.raises(BudgetExceededError):
                decide(a, "almost", "simple", Budgets(monoid=budget))
        else:
            assert decide(a, "almost", "simple", Budgets(monoid=budget)).answer == "no"
    # positive answers the old criterion; its witness is the plain path's
    positive = decide(a, "positive", "simple")
    assert (positive.answer == "yes") == old_positive(a)
    if positive.answer == "yes":
        assert oracle.verdict(*indices(a, positive))[1]
    if kind in ("reach", "cobuchi"):
        # C is F for reach, and coBuchi is a lasso search over supports: no
        # monoid is scanned, so no monoid budget binds
        for budget in (1, 2):
            assert decide(a, "positive", "simple", Budgets(monoid=budget)).witness == positive.witness
        return False
    # the positive scan reads the profile monoid in BFS order and stops at
    # the first witness, so under a budget it answers in full once the
    # budget's prefix holds the witness, and raises before that
    pwords, pos, c = positive_scan(a)
    pletters = sum(len(w) == 1 for w in pwords)
    assert (positive.answer == "yes") == (pos is not None)
    if pos is not None:
        assert positive.witness["period"] == names(pwords[pos])
        assert positive.witness["class"] == list(a.names(c))
    early = False
    for budget in range(1, min(len(pwords), 40)):
        seen = max(budget, pletters)
        if pos is not None and pos < seen:
            assert decide(a, "positive", "simple", Budgets(monoid=budget)).witness == positive.witness
            early |= seen < len(pwords)
        elif seen < len(pwords):
            with pytest.raises(BudgetExceededError):
                decide(a, "positive", "simple", Budgets(monoid=budget))
        else:
            assert decide(a, "positive", "simple", Budgets(monoid=budget)).answer == "no"
    return early


def test_lazy_scans_match_eager_seeded():
    rng = random.Random(2091)
    early = [check_lazy_scans(rng) for _ in range(40)]
    assert any(early), "no draw answered positive under a budget below its monoid"


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_lazy_scans_match_eager(seed):
    check_lazy_scans(random.Random(seed))


def test_cobuchi_refutation_matches_almost_scan_seeded():
    # almost coBuchi answers "no" first where positive coBuchi does; at the
    # default budgets, where both scans decide, the answer is the one of
    # the almost scan alone, and a refuted draw has no positive lasso
    rng = random.Random(1107)
    outcomes = Counter()
    for _ in range(120):
        a = random_automaton(rng, rng.randint(2, 5), rng.randint(1, 3), acceptance="cobuchi")
        supports = reachable_supports(a, a.initial_support, 1 << 16)
        monoid = dict(iter_profile_monoid(a))
        unrefuted = almost_period(a, supports, DEFAULT_BUDGETS.monoid)
        assert (unrefuted is None) == (eager_almost(a, supports, monoid) is None)
        v = decide(a, "almost", "simple")
        assert v.answer == ("no" if unrefuted is None else "yes")
        refuted = v.reason == "no word is accepted with positive probability"
        assert refuted == (decide(a, "positive", "simple").answer == "no")
        if refuted:
            assert LassoOracle(a).sweep(2, 3)["positive"] is None
        outcomes[v.answer, refuted] += 1
    assert set(outcomes) == {("yes", False), ("no", False), ("no", True)}, outcomes


def test_positive_matches_old_criterion_seeded():
    # all five kinds, "yes" and "no" answers of each; every "yes" goes to the oracle
    rng = random.Random(1621)
    answers = {kind: set() for kind in ("parity", "buchi", "cobuchi", "reach", "safety")}
    for i in range(150):
        kind = list(answers)[i % 5]
        a = random_automaton(rng, rng.randint(2, 5), rng.randint(1, 3), acceptance=kind)
        v = decide(a, "positive", "simple")
        assert v.answer == ("yes" if old_positive(a) else "no")
        if v.answer == "yes":
            assert LassoOracle(a).verdict(*indices(a, v))[1]
        answers[kind].add(v.answer)
    assert all(seen == {"yes", "no"} for seen in answers.values()), answers


def eager_safe_cycle(a, start, fmask) -> bool:
    """The almost-safety criterion as the walk before the lasso search read
    it: among the supports reachable from start inside F, strip every
    support with no edge to a kept one; start survives iff some cycle of
    supports inside F is reachable from it."""
    supports = old_reachable_supports(a, start, 1 << 16, within=fmask)
    succ = {
        s: {image(a.relation(k), s) for k in range(len(a.alphabet))} & set(supports)
        for s in supports
    }
    alive = set(supports)
    while True:
        dead = {s for s in alive if not succ[s] & alive}
        if not dead:
            return start in alive
        alive -= dead


def test_safe_lasso_matches_profile_monoid_seeded():
    # positive safety and coBuchi are one lasso search over the supports
    # inside F, almost safety its run from the initial support; the profile
    # monoid (old_positive) and the stripped support graph (eager_safe_cycle)
    # must answer the same, and every "yes" goes to the oracle
    rng = random.Random(2807)
    answers = Counter()
    for i in range(200):
        kind = ("safety", "cobuchi")[i % 2]
        n = rng.randint(2, 9)
        # three letters on more than five states can take old_positive past
        # a million profiles
        a = random_automaton(rng, n, 2 if n > 5 else rng.randint(1, 3), acceptance=kind)
        fmask = a.acceptance_mask()
        oracle = LassoOracle(a)
        v = decide(a, "positive", "simple")
        assert v.answer == ("yes" if old_positive(a) else "no")
        answers["positive", kind, v.answer] += 1
        if v.answer == "yes":
            assert oracle.verdict(*indices(a, v))[1]
            assert a.mask(v.witness["class"]) & ~fmask == 0
        if kind == "safety":
            alpha = a.initial_support
            v = decide(a, "almost", "simple")
            assert v.answer == ("yes" if not alpha & ~fmask and eager_safe_cycle(a, alpha, fmask) else "no")
            assert decide(a, "limit", "simple") == v
            answers["almost", kind, v.answer] += 1
            if v.answer == "yes":
                assert oracle.verdict(*indices(a, v))[0]
    assert len(answers) == 6, answers


def test_safety_shaped_positive_needs_no_monoid_budget(ex2):
    # no monoid is closed, so the monoid budget never binds; the search
    # counts its supports against the subset budget instead
    rng = random.Random(28)
    for i in range(60):
        kind = ("safety", "cobuchi")[i % 2]
        a = random_automaton(rng, rng.randint(2, 6), rng.randint(1, 3), acceptance=kind)
        want = decide(a, "positive", "simple")
        got = decide(a, "positive", "simple", Budgets(monoid=1))
        assert (got.answer, got.witness) == (want.answer, want.witness)
    for acc in (Acceptance.safety({"1", "3"}), Acceptance.cobuchi({"1", "3"})):
        b = ex2.with_acceptance(acc)
        assert decide(b, "positive", "simple", Budgets(monoid=1)).answer == "yes"
        with pytest.raises(BudgetExceededError, match="subset"):
            decide(b, "positive", "simple", Budgets(subset=1))


def test_safe_lasso_takes_the_loop_at_hand():
    # a cycles q0 -> q1 -> ... -> q5 -> q0 and b sends every state to q0, all
    # inside F: the first letter leads around the six-support cycle, but the
    # search closes the loop b at q0 before it descends
    text = "states: q0 q1 q2 q3 q4 q5\nalphabet: a b\ninit: q0=1\n" + "".join(
        f"trans: q{i} a q{(i + 1) % 6} 1\ntrans: q{i} b q0 1\n" for i in range(6)
    )
    a = parse_automaton(text)
    states = [f"q{i}" for i in range(6)]
    for acc in (Acceptance.safety(states), Acceptance.cobuchi(states)):
        b = a.with_acceptance(acc)
        verdicts = [decide(b, "positive", "simple")]
        if acc.kind == "safety":
            verdicts.append(decide(b, "almost", "simple"))
        for v in verdicts:
            assert v.answer == "yes"
            assert (v.witness["prefix"], v.witness["period"]) == ([], ["b"])


# -- the letter-and-idempotent scans against the scans of every profile ---------


def check_filtered_scans(rng, kind, answers):
    """Almost (Buchi, coBuchi, parity), positive (Buchi, parity) and, on up
    to three states, struct-simple limit answer as the scans of every
    profile do (eager_almost, old_positive), and every "yes" witness passes
    the lasso oracle.  answers collects the answers per (problem, kind)."""
    a = random_automaton(rng, rng.randint(2, 5), rng.randint(1, 3), acceptance=kind)
    oracle = LassoOracle(a)
    supports = reachable_supports(a, a.initial_support, 1 << 16)
    monoid = dict(iter_profile_monoid(a))
    almost = decide(a, "almost", "simple")
    assert almost.answer == ("yes" if eager_almost(a, supports, monoid) else "no")
    if almost.answer == "yes":
        assert oracle.verdict(*indices(a, almost))[0]
    answers[("almost", kind)].add(almost.answer)
    if kind != "cobuchi":
        positive = decide(a, "positive", "simple")
        assert positive.answer == ("yes" if old_positive(a) else "no")
        if positive.answer == "yes":
            assert oracle.verdict(*indices(a, positive))[1]
        answers[("positive", kind)].add(positive.answer)
    if a.n > 3:
        return
    try:
        limit = decide(a, "limit", "struct-simple")
    except InputError:
        return
    reach = build_extended_support_graph(a).reachable_with_steps(a.initial_support)
    assert limit.answer == ("yes" if eager_almost(a, reach, monoid) else "no")
    answers[("limit", kind)].add(limit.answer)
    if limit.answer == "no":
        return
    w = limit.witness
    node = a.mask(w["support"])
    uniform = [Fraction(node >> i & 1, node.bit_count()) for i in range(a.n)]
    start = Automaton(a.states, a.alphabet, a.matrices, uniform, a.acceptance)
    period = [a.alphabet.index(x) for x in w["period"]]
    assert LassoOracle(start).verdict((), period)[0]
    if w["prefix"] is not None:
        assert oracle.verdict([a.alphabet.index(x) for x in w["prefix"]], period)[1]


def test_filtered_scans_match_unfiltered_seeded():
    rng = random.Random(1818)
    kinds = ("buchi", "cobuchi", "parity")
    answers = {(p, k): set() for p in ("almost", "positive", "limit") for k in kinds}
    del answers[("positive", "cobuchi")]
    for i in range(330):
        check_filtered_scans(rng, kinds[i % 3], answers)
    assert all(seen == {"yes", "no"} for seen in answers.values()), answers

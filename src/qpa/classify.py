"""Structural classification and closure constructions.

Chain recurrence rules out #-reductions along one word: no stable
intermediate support may shed states when the looping block is iterated.
Structural simplicity lifts that to all words at once and is decided on
the extended support graph: a minimal support (one that cannot #-shrink)
must never plainly reach a support that #-returns to it through a word
whose plain image overshoots.

The gate runs in two phases, each on an extended graph that it grows a
few seeds at a time and scans as it grows: a grown node already has all
the out-edges it has in the graph seeded at every support, because those
depend only on the nodes #-reachable from it.  Phase 1 grows the graph
keyed on labels one support at a time, in mask order, and reads each
edge's plain relation off its first derivation; it stops at the first
minimal support with a returner, which is a real "no", because the
plain-tracked closure derives the same labels and holds every first
derivation.  Only when phase 1 finds none does phase 2 grow the
plain-tracked graph, which holds every derivation, and then only from the
supports that a returner to a minimal support can leave: those the
minimal support plainly reaches that have a label edge into it.  Every
"yes" comes from the plain-tracked scans.

Hierarchical automata stratify states into levels that no transition
descends, with at most one same-level successor per letter.  The module
also builds product and union automata and the intersection-emptiness
gadget that turns a family of DFAs into an equivalent almost-sure Buchi
question.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .core import (
    DEFAULT_BUDGETS,
    Acceptance,
    Automaton,
    Budgets,
    Verdict,
    as_fraction,
    as_mask,
    bits,
)
from .errors import BudgetExceededError, InputError
from .formats import DFA
from .graphs import image, scc_masks
from .semantics import propagate, sharp_power, support_step
from .supportgraph import ExtendedSupportGraph, reachable_supports, replay_steps


def _start_mask(a: Automaton, start) -> int:
    """Support mask of a start given as a distribution, state names, or mask."""
    if isinstance(start, Mapping):
        m = 0
        for q, p in start.items():
            if as_fraction(p, f"probability of {q!r}") > 0:
                m |= a.mask([q])
        if m == 0:
            raise InputError("start distribution has empty support")
        return m
    return as_mask(a, start)


def is_sharp_reduction(a: Automaton, A, B, rho) -> bool:
    """True iff (A, B, rho) splits a stable support into transient and
    recurrent halves.

    Requires A and B nonempty and disjoint, A+B stable under rho, and the
    #-power of A+B on rho equal to B exactly.
    """
    amask = as_mask(a, A)
    bmask = as_mask(a, B)
    if amask == 0 or bmask == 0 or amask & bmask:
        return False
    both = amask | bmask
    word = a.word(rho)
    if not word or support_step(a, both, word) != both:
        return False
    return sharp_power(a, both, word) == bmask


def is_chain_recurrent(a: Automaton, start, rho) -> Verdict:
    """Check that no stable intermediate support #-shrinks along rho.

    The no-verdict carries the violating split: the prefix reaching the
    stable support, the looping block, and the strictly smaller recurrent
    part the block funnels into.
    """
    word = a.word(rho)
    sup = [_start_mask(a, start)]
    for k in word:
        sup.append(support_step(a, sup[-1], (k,)))
    for i in range(len(word)):
        for j in range(i + 1, len(word) + 1):
            if sup[j] != sup[i]:
                continue
            u = word[i:j]
            rec = sharp_power(a, sup[i], u)
            if rec == sup[i]:
                continue
            witness = {
                "prefix": list(a.letters(word[:i])),
                "support": list(a.names(sup[i])),
                "word": list(a.letters(u)),
                "recurrent": list(a.names(rec)),
            }
            return Verdict(
                "no", witness, reason="a stable support sheds states when iterated"
            )
    return Verdict("yes")


def check_lemma5_bound(a: Automaton, q, rho) -> bool:
    """Verify the uniform entry bound on a chain-recurrent execution tree.

    Every positive entry of the distribution after rho from q must be at
    least eps**(4**n), with eps the smallest positive transition entry.
    After L letters every positive entry is a sum of path products, each
    at least eps**L, and eps <= 1, so the bound holds without computing
    the power whenever L <= 4**n.  Only a longer word takes the exact
    comparison, where the power is no larger than the word itself.
    """
    qmask = as_mask(a, q)
    if qmask == 0 or qmask & (qmask - 1):
        raise InputError("a single start state is required")
    cr = is_chain_recurrent(a, qmask, rho)
    if not cr:
        raise InputError(f"execution tree is not chain recurrent: {cr.witness}")
    if len(a.word(rho)) <= 4 ** a.n:
        return True
    vec = [Fraction(0)] * a.n
    vec[qmask.bit_length() - 1] = Fraction(1)
    dist = propagate(a, vec, rho)
    bound = a.epsilon() ** (4 ** a.n)
    return all(p >= bound for p in dist.values())


# -- hierarchical automata ---------------------------------------------------


@dataclass(frozen=True)
class RankFunction:
    """State levels certifying the hierarchical property."""

    levels: tuple[tuple[str, int], ...]

    def as_dict(self) -> dict[str, int]:
        return dict(self.levels)

    def holds(self, a: Automaton) -> bool:
        """No positive transition descends a level, and per letter at most
        one successor stays on the sender's level."""
        lv = dict(self.levels)
        if set(lv) != set(a.states):
            return False
        for k in range(len(a.alphabet)):
            rows = a.relation(k)
            for i, q in enumerate(a.states):
                same = 0
                for j in bits(rows[i]):
                    if lv[a.states[j]] < lv[q]:
                        return False
                    if lv[a.states[j]] == lv[q]:
                        same += 1
                if same > 1:
                    return False
        return True


def is_hierarchical(a: Automaton) -> Verdict:
    """Decide the hierarchical property; yes-verdicts carry a rank function.

    Characterization: per letter, a state may keep at most one successor
    inside its own recurrence class of the positive-transition graph.  The
    returned rank is the topological level of those classes, re-verified
    against the level conditions before returning.
    """
    n = a.n
    rows = [0] * n
    for k in range(len(a.alphabet)):
        rel = a.relation(k)
        for i in range(n):
            rows[i] |= rel[i]
    comps = scc_masks(rows, a.full_mask)
    comp_of = [0] * n
    for c, comp in enumerate(comps):
        for i in bits(comp):
            comp_of[i] = c
    for k in range(len(a.alphabet)):
        rel = a.relation(k)
        for i in range(n):
            inside = rel[i] & comps[comp_of[i]]
            if inside and inside & (inside - 1):
                witness = {
                    "state": a.states[i],
                    "letter": a.alphabet[k],
                    "successors": list(a.names(inside)),
                }
                return Verdict(
                    "no",
                    witness,
                    reason="two positive successors stay in the state's recurrence class",
                )
    # comps is reverse topological, so walking it backwards settles every
    # predecessor of a component before the component itself
    level = [0] * len(comps)
    for c in reversed(range(len(comps))):
        for i in bits(comps[c]):
            for j in bits(rows[i] & ~comps[c]):
                level[comp_of[j]] = max(level[comp_of[j]], level[c] + 1)
    rank = RankFunction(tuple((q, level[comp_of[i]]) for i, q in enumerate(a.states)))
    if not rank.holds(a):
        raise RuntimeError("computed rank failed its own verification")
    return Verdict("yes", {"rank": rank.as_dict()})


# -- structural simplicity ---------------------------------------------------


def is_structurally_simple(a: Automaton, budgets: Budgets = DEFAULT_BUDGETS) -> Verdict:
    """Decide structural simplicity; see _two_phase_gate for how.

    A support C is minimal when no #-destination from C is a proper subset
    of C.  The automaton fails exactly when some minimal C plainly reaches
    a support A admitting a word that #-returns to C while its plain image
    differs from C; the witness replays that word with its borders.

    The verdict is a property of the support structure alone, so it is
    computed once per automaton and Budgets value and kept on the
    automaton; later calls return a copy of it.  A budget stop is kept as
    its message and raised again, as a new BudgetExceededError, on every
    later call: the gate's order is fixed by masks and edge ids, so the
    same budgets stop it at the same point.
    """
    memo = a._gate
    if budgets not in memo:
        try:
            memo[budgets] = _two_phase_gate(a, budgets)
        except BudgetExceededError as exc:
            memo[budgets] = str(exc)
            raise
    kept = memo[budgets]
    if isinstance(kept, str):
        raise BudgetExceededError(kept)
    return Verdict(kept.answer, deepcopy(kept.witness), kept.reason)


def _two_phase_gate(a: Automaton, budgets: Budgets) -> Verdict:
    """Decide structural simplicity on growing extended graphs, in two phases.

    Both phases grow an ExtendedSupportGraph a few seeds at a time, and
    after each grow every registered node has its final out-edges (see
    ExtendedSupportGraph), so a scan over them is exact.

    Phase 1 grows the label-keyed graph by C = 1, 2, ..., 2^n - 1 in mask
    order.  After C's step, C and every support #-reachable from it are
    final, so whether C is minimal is known, and every support that C
    plainly reaches is a letter-edge path away.  For a minimal C it scans
    the edges into C from those supports, in breadth-first order, and
    answers "no" at the first whose first-derivation plain image differs
    from C.  A first derivation is a product of letter relations and
    funnel atoms' plains, so it is also a derivation in the plain-tracked
    graph: a returner found in phase 1 is a real "no".

    Phase 2 runs when phase 1 finds none, and the label-keyed graph is
    then complete.  Both closures multiply edges on the right by the same
    letters and funnels, and by associativity each reaches the fixpoint of
    pairwise composition and bordering, so they have the same labels.  A
    returner to a minimal C therefore leaves a support in S_C, the supports
    C plainly reaches that have a label edge into C.  For each minimal C in
    mask order, phase 2 grows the plain-tracked graph, which holds every
    derivation, by S_C alone (C is skipped when S_C is empty) and runs the
    same scan on it; every "yes" comes from these scans.  Each phase meets
    a subset of the (edge, factor) pairs that its graph seeded at every
    support meets, so it stops on a budget only where that graph would.
    """
    n = a.n
    labels = ExtendedSupportGraph(a, budgets, ())
    minimal = []
    for c in range(1, 1 << n):
        labels.grow((c,))
        dsts = (labels.edge_parts(e)[2] for e in labels.out_edges(c))
        if any(d != c and d & c == d for d in dsts):
            continue
        minimal.append(c)
        verdict = _returner_verdict(a, labels, c)
        if verdict is not None:
            return verdict
    plain = ExtendedSupportGraph(a, budgets, (), track_plain=True)
    for c in minimal:
        reach = reachable_supports(a, c, 1 << n)
        into = {labels.edge_parts(e)[0] for e in labels.in_edges(c)}
        seeds = [s for s in reach if s in into]
        if not seeds:
            continue
        plain.grow(seeds)
        verdict = _returner_verdict(a, plain, c, reach)
        if verdict is not None:
            return verdict
    return Verdict("yes")


def _returner_verdict(
    a: Automaton, g: ExtendedSupportGraph, c: int, reach: dict[int, tuple[int, ...]] | None = None
) -> Verdict | None:
    """The "no" of the first support that the minimal support c plainly
    reaches, in breadth-first order, that is the source of a returner edge
    of g into c, through its first such edge by id; None when there is
    none.  reach is reachable_supports from c, computed here when not given
    and only once g has a returner into c.

    Every support c plainly reaches that g has registered must have its
    final out-edges.  The witness is checked in full before it is returned:
    its reach word leads to the source, its bordered graph replays back to
    c, and its plain image differs from c.
    """
    back: dict[int, int] = {}
    for eid in g.in_edges(c):
        s = g.edge_parts(eid)[0]
        if s not in back and image(g.edge_plain(eid), s) != c:
            back[s] = eid
    if not back:
        return None
    if reach is None:
        reach = reachable_supports(a, c, 1 << a.n)
    for s, reach_word in reach.items():
        eid = back.get(s)
        if eid is None:
            continue
        (step,) = g.witness_steps(eid)
        word, borders, _ = step
        plain = support_step(a, s, word)
        if (
            support_step(a, c, reach_word) != s
            or replay_steps(a, s, [step]) != c
            or plain == c
        ):
            raise RuntimeError("#-return witness failed its replay")
        witness = {
            "minimal_support": list(a.names(c)),
            "reach_word": list(a.letters(reach_word)),
            "from_support": list(a.names(s)),
            "word": list(a.letters(word)),
            "borders": [list(b) for b in borders],
            "plain_image": list(a.names(plain)),
        }
        return Verdict(
            "no",
            witness,
            reason="a minimal support plainly reaches a support that "
            "#-returns to it with a larger plain image",
        )
    return None


# -- closure constructions ---------------------------------------------------


def _common_letters(a1: Automaton, a2: Automaton) -> list[int]:
    """Letter indices of a2 aligned to a1's alphabet order."""
    if set(a1.alphabet) != set(a2.alphabet):
        raise InputError("automata must share one alphabet")
    return [a2.letter_index[x] for x in a1.alphabet]


def product(a1: Automaton, a2: Automaton) -> Automaton:
    """Synchronized product; entries multiply, acceptance is left unset."""
    align = _common_letters(a1, a2)
    states = [f"({p},{q})" for p in a1.states for q in a2.states]
    mats = []
    for k in range(len(a1.alphabet)):
        m1 = a1.matrices[k]
        m2 = a2.matrices[align[k]]
        rows = []
        for i1 in range(a1.n):
            for i2 in range(a2.n):
                row = []
                for j1 in range(a1.n):
                    p = m1[i1][j1]
                    for j2 in range(a2.n):
                        row.append(p * m2[i2][j2])
                rows.append(row)
        mats.append(rows)
    init = [p * q for p in a1.initial for q in a2.initial]
    return Automaton(states, a1.alphabet, mats, init, None)


def union_structure(a1: Automaton, a2: Automaton, mix) -> Automaton:
    """Disjoint union with the initial mass mixed between both sides.

    mix must be strictly between 0 and 1.  State names are kept when the
    two state spaces are disjoint, otherwise prefixed by side.  Acceptance
    carries over as the union of both sets when the kinds agree.
    """
    align = _common_letters(a1, a2)
    mix = as_fraction(mix, "mix")
    if not 0 < mix < 1:
        raise InputError("mix must be strictly between 0 and 1")
    if set(a1.states) & set(a2.states):
        names1 = [f"1:{q}" for q in a1.states]
        names2 = [f"2:{q}" for q in a2.states]
    else:
        names1 = list(a1.states)
        names2 = list(a2.states)
    rename1 = dict(zip(a1.states, names1))
    rename2 = dict(zip(a2.states, names2))
    states = names1 + names2
    zero = Fraction(0)
    mats = []
    for k in range(len(a1.alphabet)):
        m1 = a1.matrices[k]
        m2 = a2.matrices[align[k]]
        rows = [list(r) + [zero] * a2.n for r in m1]
        rows += [[zero] * a1.n + list(r) for r in m2]
        mats.append(rows)
    init = [mix * p for p in a1.initial] + [(1 - mix) * p for p in a2.initial]
    acc = None
    acc1, acc2 = a1.acceptance, a2.acceptance
    if acc1 is not None and acc2 is not None and acc1.kind == acc2.kind:
        if acc1.kind == "parity":
            merged = {rename1[q]: p for q, p in acc1.priority_map.items()}
            merged.update({rename2[q]: p for q, p in acc2.priority_map.items()})
            acc = Acceptance.parity(merged)
        else:
            acc = Acceptance(
                acc1.kind,
                frozenset(rename1[q] for q in acc1.states)
                | frozenset(rename2[q] for q in acc2.states),
            )
    return Automaton(states, a1.alphabet, mats, init, acc)


def reduce_dfa_intersection(dfas: Sequence[DFA]) -> Automaton:
    """Intersection-emptiness gadget over a fresh reset letter.

    One copy per DFA, a hub s and an absorbing sink bot.  Reading x at the
    hub jumps uniformly to the copies' initial states; reading x at an
    accepting copy state returns to the hub, anywhere else it sinks.  The
    hub is the Buchi goal, so visiting it forever means every DFA accepts
    the block read between resets.  The letter x is reserved: alphabets
    containing it are refused rather than silently renamed.
    """
    dfas = list(dfas)
    if not dfas:
        raise InputError("at least one DFA is required")
    sigma = dfas[0].alphabet
    for d in dfas[1:]:
        if set(d.alphabet) != set(sigma):
            raise InputError("DFAs must share one alphabet")
    if "x" in sigma:
        raise InputError("alphabet contains the reserved letter 'x'")
    flat = [q for d in dfas for q in d.states]
    plain_names = len(set(flat)) == len(flat) and not {"s", "bot"} & set(flat)
    rename = []
    for ci, d in enumerate(dfas):
        if plain_names:
            rename.append({q: q for q in d.states})
        else:
            rename.append({q: f"{ci + 1}:{q}" for q in d.states})
    states = [rename[ci][q] for ci, d in enumerate(dfas) for q in d.states]
    states += ["s", "bot"]
    index = {q: i for i, q in enumerate(states)}
    n = len(states)
    zero = Fraction(0)
    share = Fraction(1, len(dfas))
    mats = []
    for letter in tuple(sigma) + ("x",):
        rows = [[zero] * n for _ in range(n)]
        for ci, d in enumerate(dfas):
            for q in d.states:
                i = index[rename[ci][q]]
                if letter == "x":
                    target = "s" if q in d.accepting else "bot"
                    rows[i][index[target]] = Fraction(1)
                else:
                    rows[i][index[rename[ci][d.step(q, letter)]]] = Fraction(1)
        if letter == "x":
            for ci, d in enumerate(dfas):
                rows[index["s"]][index[rename[ci][d.init]]] += share
        else:
            rows[index["s"]][index["bot"]] = Fraction(1)
        rows[index["bot"]][index["bot"]] = Fraction(1)
        mats.append(rows)
    init = [zero] * n
    init[index["s"]] = Fraction(1)
    return Automaton(
        states, tuple(sigma) + ("x",), mats, init, Acceptance.buchi(["s"])
    )

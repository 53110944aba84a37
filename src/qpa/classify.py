"""Structural classification and closure constructions.

Chain recurrence rules out #-reductions along one word: no stable
intermediate support may shed states when the looping block is iterated.
Structural simplicity lifts that to all words at once and is decided on
the extended support graph: a minimal support (one that cannot #-shrink)
must never plainly reach a support that #-returns to it through a word
whose plain image overshoots.  Hierarchical automata stratify states into
levels that no transition descends, with at most one same-level successor
per letter.  The module also builds product and union automata and the
intersection-emptiness gadget that turns a family of DFAs into an
equivalent almost-sure Buchi question.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .core import DEFAULT_BUDGETS, Acceptance, Automaton, Budgets, Verdict, as_mask, bits
from .errors import BudgetExceededError, InputError
from .formats import DFA
from .graphs import reachable_mask
from .linked import layer_rows
from .semantics import propagate, rel_image, sharp_power, support_step
from .supportgraph import ExtendedSupportGraph


def _start_mask(a: Automaton, start) -> int:
    """Support mask of a start given as a distribution, state names, or mask."""
    if isinstance(start, Mapping):
        m = 0
        for q, p in start.items():
            if Fraction(p) > 0:
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
    least eps**(2**(2n)), with eps the smallest positive transition entry.
    The comparison is exact; the exponent is a big integer.
    """
    qmask = as_mask(a, q)
    if qmask == 0 or qmask & (qmask - 1):
        raise InputError("a single start state is required")
    cr = is_chain_recurrent(a, qmask, rho)
    if not cr:
        raise InputError(f"execution tree is not chain recurrent: {cr.witness}")
    vec = [Fraction(0)] * a.n
    vec[qmask.bit_length() - 1] = Fraction(1)
    dist = propagate(a, vec, rho)
    bound = a.epsilon() ** (2 ** (2 * a.n))
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
    fwd = [reachable_mask(rows, 1 << i, a.full_mask) for i in range(n)]
    scc = []
    for i in range(n):
        m = 1 << i
        for j in bits(fwd[i]):
            if fwd[j] >> i & 1:
                m |= 1 << j
        scc.append(m)
    for k in range(len(a.alphabet)):
        rel = a.relation(k)
        for i in range(n):
            inside = rel[i] & scc[i]
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
    comps: list[int] = []
    comp_of = [0] * n
    for i in range(n):
        if scc[i] not in comps:
            comps.append(scc[i])
        comp_of[i] = comps.index(scc[i])
    level = [0] * len(comps)
    for _ in comps:
        for i in range(n):
            for j in bits(rows[i]):
                if comp_of[j] != comp_of[i]:
                    level[comp_of[j]] = max(level[comp_of[j]], level[comp_of[i]] + 1)
    rank = RankFunction(tuple((q, level[comp_of[i]]) for i, q in enumerate(a.states)))
    if not rank.holds(a):
        raise RuntimeError("computed rank failed its own verification")
    return Verdict("yes", {"rank": rank.as_dict()})


# -- structural simplicity ---------------------------------------------------


def is_structurally_simple(a: Automaton, budgets: Budgets = DEFAULT_BUDGETS) -> Verdict:
    """Decide structural simplicity on the plain-augmented extended graph.

    A support C is minimal when no #-destination from C is a proper subset
    of C.  The automaton fails exactly when some minimal C plainly reaches
    a support A admitting a word that #-returns to C while its plain image
    differs from C; the witness replays that word with its borders.
    """
    if a.n > budgets.extended_states:
        raise BudgetExceededError(
            f"extended support graph allows at most {budgets.extended_states} "
            f"states (automaton has {a.n}); raise the budget to override"
        )
    n = a.n
    g = ExtendedSupportGraph(a, budgets, list(range(1, 1 << n)), track_plain=True)
    shrinkable: set[int] = set()
    returners: dict[int, dict[int, int]] = {}
    for eid in range(g.edge_count):
        if not g.edge_is_full(eid):
            continue
        src, _, dst = g.edge_parts(eid)
        if dst != src and dst & src == dst:
            shrinkable.add(src)
        if rel_image(layer_rows(g.edge_plain(eid), n), src) != dst:
            returners.setdefault(dst, {}).setdefault(src, eid)
    for c in range(1, 1 << n):
        if c in shrinkable:
            continue
        back = returners.get(c)
        if not back:
            continue
        seen = {c}
        word_to = {c: ()}
        queue = deque([c])
        order = [c]
        while queue:
            s = queue.popleft()
            for k in range(len(a.alphabet)):
                t = support_step(a, s, (k,))
                if t not in seen:
                    seen.add(t)
                    word_to[t] = word_to[s] + (k,)
                    queue.append(t)
                    order.append(t)
        for s in order:
            eid = back.get(s)
            if eid is None:
                continue
            steps = g.witness_steps(eid)
            if steps is None or len(steps) != 1 or steps[0][2] != len(steps[0][0]):
                raise RuntimeError("#-return witness does not replay as one graph")
            word, borders, _ = steps[0]
            plain = support_step(a, s, word)
            if plain == c:
                raise RuntimeError("#-return witness lost its plain overshoot")
            witness = {
                "minimal_support": list(a.names(c)),
                "reach_word": list(a.letters(word_to[s])),
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
    return Verdict("yes")


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
    mix = Fraction(mix)
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

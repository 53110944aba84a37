"""Exact analysis of lasso words.

After its prefix, a lasso word rho1 . rho2^omega drives the automaton as a
time-homogeneous Markov chain on pairs (state, position inside the period).
This module derives acceptance probabilities exactly, builds an
eventually-periodic jet decomposition with a certified positive floor on
jet-state masses, and offers seeded Monte Carlo simulation as an
independent cross-check.

The supports a lasso word visits after its prefix are walked once, by
_support_run, and every analysis of the word reads that one run.  Each
analysis builds only the chain it reads: the acceptance probability takes
the absorption of the period chain on the closed set, the phase-0 union of
the run (semantics.chain_analysis); the jet decomposition and the
simulation take the product chain on (state, phase) pairs, which needs no
linear system.  Reach needs no reduction to Buchi: a run either visits F
or stays in Q - F forever, so P(reach F) = 1 - P(safe in Q - F), the
survival probability outside F, both exactly and in the simulation.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, log, sqrt
from typing import Sequence

from .core import Automaton, LassoWord, as_fraction, bits, support_mask
from .errors import BudgetExceededError, InputError
from .graphs import bottom_scc_masks, image, shortest_words
from .semantics import (
    _compose,
    chain_analysis,
    chain_parity_almost,
    int_pow,
    solve_linear,
    vector_product,
)


@dataclass(frozen=True)
class SupportSequence:
    """Eventually periodic sequence of supports: head entries, then a cycle."""

    head: tuple[int, ...]
    cycle: tuple[int, ...]

    def __post_init__(self):
        if not self.cycle:
            raise InputError("support sequence needs a nonempty cycle")

    def at(self, n: int) -> int:
        if n < 0:
            raise InputError("step index must be nonnegative")
        if n < len(self.head):
            return self.head[n]
        return self.cycle[(n - len(self.head)) % len(self.cycle)]


@dataclass
class JetDecomposition:
    """Per recurrent class, the periodic support its absorbed mass occupies.

    Jets come in the order semantics.chain_analysis gives the recurrent
    classes of the period chain on the closed set, by least state.  For
    every step n the masks (j0.at(n), jets[0].at(n), ...) partition Q.
    From stabilization_index on, each jet is forward-closed under the word
    and every jet state carries exact probability at least lambda_bound.
    """

    automaton: Automaton
    word: LassoWord
    jets: tuple[SupportSequence, ...]
    j0: SupportSequence
    stabilization_index: int
    lambda_bound: Fraction

    def jet_at(self, i: int, n: int) -> int:
        """Support mask of jet i at step n; i = 0 addresses the complement."""
        if i == 0:
            return self.j0.at(n)
        if not 1 <= i <= len(self.jets):
            raise InputError(f"jet index {i} out of range")
        return self.jets[i - 1].at(n)

    def distribution(self, n: int) -> tuple[Fraction, ...]:
        """Exact state distribution after the first n letters of the word."""
        if n < 0:
            raise InputError("step index must be nonnegative")
        a = self.automaton
        prefix = a.word(self.word.prefix)
        period = a.word(self.word.period)
        if n <= len(prefix):
            return vector_product(a.initial, a.scaled_matrices, prefix[:n])
        rest = [period[t % len(period)] for t in range(n - len(prefix))]
        return vector_product(a.initial, a.scaled_matrices, prefix + tuple(rest))

    def j0_mass(self, n: int) -> Fraction:
        vec = self.distribution(n)
        return sum((vec[i] for i in bits(self.j0.at(n))), Fraction(0))

    def horizon(self, eps: Fraction, max_steps: int = 1_000_000) -> int:
        """First step N, N+m, ... where the mass outside all jets drops below eps.

        The mass outside the jets never increases once the jets are seeded,
        so the returned step bounds every later aligned step as well.
        """
        eps = as_fraction(eps, "eps")
        if eps <= 0:
            raise InputError("eps must be positive")
        a = self.automaton
        period = a.word(self.word.period)
        m = len(period)
        prefix_len = len(a.word(self.word.prefix))
        n = self.stabilization_index
        vec = self.distribution(n)
        steps = 0
        while True:
            mass = sum((vec[i] for i in bits(self.j0.at(n))), Fraction(0))
            if mass < eps:
                return n
            vec = vector_product(vec, a.scaled_matrices, [period[(n - prefix_len + t) % m] for t in range(m)])
            n += m
            steps += m
            if steps > max_steps:
                raise BudgetExceededError(f"no horizon below {eps} within {max_steps} steps")


def _support_run(a: Automaton, start: int, period: Sequence[int]) -> SupportSequence:
    """Stepwise supports after the prefix, until (phase, support) repeats.

    The cycle starts where the repeated pair was first seen; its length is
    a multiple of the period's, so run.at(t) is read at phase t % m.
    """
    m = len(period)
    sups: list[int] = []
    seen: dict[tuple[int, int], int] = {}
    cur = start
    t = 0
    while (t % m, cur) not in seen:
        seen[(t % m, cur)] = t
        sups.append(cur)
        cur = image(a.relation(period[t % m]), cur)
        t += 1
    t_start = seen[(t % m, cur)]
    return SupportSequence(tuple(sups[:t_start]), tuple(sups[t_start:]))


def _per_phase(run: SupportSequence, m: int) -> list[int]:
    """Union of the run's supports at each phase of the period."""
    out = [0] * m
    for t, s in enumerate(run.head + run.cycle):
        out[t % m] |= s
    return out


def _after_prefix(
    a: Automaton, w: LassoWord
) -> tuple[tuple[int, ...], tuple[Fraction, ...], SupportSequence]:
    """The period's letter indices, the exact distribution after the prefix,
    and the support run from its support."""
    period = a.word(w.period)
    vec = vector_product(a.initial, a.scaled_matrices, a.word(w.prefix))
    return period, vec, _support_run(a, support_mask(vec), period)


def lasso_acceptance_probability(a: Automaton, w: LassoWord) -> Fraction:
    """Exact probability that a run under the lasso word is accepting.

    Reach is the complement of safety outside F; the other conditions read
    the parity of each recurrent class (semantics.chain_parity_almost) and
    add up the mass the chain absorbs into the even ones.
    """
    acc = a.acceptance
    if acc is None:
        raise InputError("acceptance condition required")
    if acc.kind == "reach":
        return 1 - _safety_probability(a, w, a.full_mask & ~a.acceptance_mask())
    if acc.kind == "safety":
        return _safety_probability(a, w, a.acceptance_mask())
    period, vec, run = _after_prefix(a, w)
    analysis = chain_analysis(a, _per_phase(run, len(period))[0], period)
    _, minima = chain_parity_almost(a, analysis.closed_set, period)
    ok = {comp: mn % 2 == 0 for comp, mn in minima}
    masses = analysis.class_mass(vec)
    return sum((mass for comp, mass in zip(analysis.classes, masses) if ok[comp]), Fraction(0))


def _safety_probability(a: Automaton, w: LassoWord, fmask: int) -> Fraction:
    """Mass of runs that never leave fmask, the initial state included.

    Called with F for safety, and with Q - F for reach, whose probability is
    one minus this survival outside F.  Killing all transitions that touch
    the complement of fmask makes the word matrices substochastic; the
    surviving mass in the limit is the mass absorbed by recurrent classes of
    the period matrix that keep row sum 1.  The scaled letters are
    restricted to fmask over their own denominators, and the period matrix
    r over den is tested and solved in integers.
    """
    n = a.n
    zero = (0,) * n

    def kept(i: int, row: Sequence[int]) -> tuple[int, ...]:
        if not fmask >> i & 1:
            return zero
        return tuple(v if fmask >> j & 1 else 0 for j, v in enumerate(row))

    restricted = [(tuple(map(kept, range(n), x)), dx) for x, dx in a.scaled_matrices]
    vec = tuple(a.initial[i] if fmask >> i & 1 else Fraction(0) for i in range(n))
    vec = vector_product(vec, restricted, a.word(w.prefix))
    period = a.word(w.period)
    r, den = _compose(*restricted[period[0]], restricted, period[1:])
    rows = tuple(sum(1 << j for j in range(n) if r[i][j] > 0) for i in range(n))
    safe = 0
    for comp in bottom_scc_masks(rows, fmask):
        if all(sum(r[i]) == den for i in bits(comp)):
            safe |= comp
    survival = {i: Fraction(1) for i in bits(safe)}
    transient = fmask & ~safe
    if transient and safe:
        tlist = list(bits(transient))
        lhs = [[den * (s == t) - r[q][u] for t, u in enumerate(tlist)] for s, q in enumerate(tlist)]
        rhs = [[sum(r[q][j] for j in bits(safe))] for q in tlist]
        sol = solve_linear(lhs, rhs)
        for s, q in enumerate(tlist):
            survival[q] = sol[s][0]
    return sum((vec[i] * survival.get(i, Fraction(0)) for i in bits(fmask)), Fraction(0))


# -- jet decomposition -------------------------------------------------------


def _min_positive(rows: Sequence[Sequence[int]], den: int) -> Fraction | None:
    """Least positive entry of the matrix rows/den."""
    best = min((v for row in rows for v in row if v > 0), default=None)
    return None if best is None else Fraction(best, den)


@dataclass
class _ClassInfo:
    mask: int
    states: list[int]
    d: int
    kstar: int
    eps: Fraction
    blocks: list[int]
    cyc: dict[int, int]
    actives: list[int]
    t_full: int


def _product_chain(a: Automaton, period: Sequence[int], run: SupportSequence):
    """Rows of the product chain on (phase, state), bit phase * n + q, and
    its recurrent classes among the pairs the run visits."""
    n = a.n
    m = len(period)
    rows = [0] * (n * m)
    for phase in range(m):
        rel = a.relation(period[phase])
        shift = ((phase + 1) % m) * n
        for q in range(n):
            rows[phase * n + q] = rel[q] << shift
    reach = 0
    for phase, s in enumerate(_per_phase(run, m)):
        reach |= s << (phase * n)
    return rows, bottom_scc_masks(tuple(rows), reach)


def _analyze_class(
    a: Automaton,
    period: Sequence[int],
    prod_rows: Sequence[int],
    cmask: int,
    run: SupportSequence,
) -> _ClassInfo:
    """Period, cyclic blocks, stabilizing power, floor and active alignments
    of one recurrent class of the product chain.

    The one-step class matrix is built straight from the scaled letters as
    integer rows over den, the lcm of the period letters' denominators; its
    positive entries are read off a.relation.  Its d-th power and that
    power's kstar-th power stay integer rows over den**e for their exponent
    e; positivity is read from the integer signs, and only the floor eps,
    the least positive entry of the stabilized power N^(d*kstar), becomes a
    Fraction, Fraction(numerator, den**e).  No later power within a period
    goes lower: the class rows are stochastic and N^(d*kstar) is positive
    on every cyclic block, so an entry of N^(d*kstar+j) is either 0 or a
    convex combination of positive entries of one column of N^(d*kstar).
    """
    n = a.n
    m = len(period)
    states = list(bits(cmask))
    pos = {x: i for i, x in enumerate(states)}
    # BFS levels, the shortest word lengths from the first state; the class
    # period is the gcd of level defects over its edges
    level = {
        v: len(w)
        for v, w in shortest_words(
            [(states[0], ())], lambda u: ((0, v) for v in bits(prod_rows[u] & cmask))
        )
    }
    d = 0
    for u in states:
        for v in bits(prod_rows[u] & cmask):
            d = gcd(d, abs(level[u] + 1 - level[v]))
    cyc = {x: level[x] % d for x in states}
    blocks = [0] * d
    for x in states:
        blocks[cyc[x]] |= 1 << pos[x]
    # exact one-step matrix inside the class, as integer rows over den
    letters = a.scaled_matrices
    den = lcm(*(letters[k][1] for k in set(period)))
    one_step = [[0] * len(states) for _ in states]
    for x in states:
        phase, q = divmod(x, n)
        rows, dk = letters[period[phase]]
        row, f = rows[q], den // dk
        shift = ((phase + 1) % m) * n
        out = one_step[pos[x]]
        for qq in bits(a.relation(period[phase])[q]):
            out[pos[shift + qq]] = row[qq] * f
    td = int_pow(one_step, d)
    # smallest power of the d-step matrix that is positive on every block
    rel_td = [sum(1 << j for j in range(len(states)) if td[i][j] > 0) for i in range(len(states))]
    power = list(rel_td)
    kstar = 1
    cap = max((bin(b).count("1") - 1) ** 2 + 2 for b in blocks)
    while any(power[i] != blocks[cyc[states[i]]] for i in range(len(states))):
        power = [image(rel_td, row) for row in power]
        kstar += 1
        if kstar > cap:
            raise RuntimeError("cyclic block power failed to stabilize")
    eps = _min_positive(int_pow(td, kstar), den ** (d * kstar))
    # alignments that ever receive absorbed mass all appear within one
    # common period of the support sequence and the class rotation
    horizon = len(run.head) + lcm(len(run.cycle), d)
    first_seen: dict[int, int] = {}
    for t in range(horizon + 1):
        inter = (run.at(t) << ((t % m) * n)) & cmask
        for x in bits(inter):
            first_seen.setdefault((cyc[x] - t) % d, t)
    actives = sorted(first_seen)
    t_full = max(first_seen.values())
    return _ClassInfo(cmask, states, d, kstar, eps, blocks, cyc, actives, t_full)


def _slice0(cmask: int, n: int) -> int:
    return cmask & ((1 << n) - 1)


def _project(block: int, states: list[int], n: int) -> int:
    out = 0
    for i in bits(block):
        out |= 1 << (states[i] % n)
    return out


def lasso_jet_decomposition(a: Automaton, w: LassoWord) -> JetDecomposition:
    """Jets, their stabilization step, and a certified floor on jet masses.

    Each recurrent class of the product chain contributes one jet: the
    rotation of those cyclic blocks that absorbed mass occupies.  The floor
    multiplies the absorbed seed mass per rotation offset by the least
    positive entry of a stabilized power of the class matrix; minimums of
    the column minima of stochastic powers never decrease with the exponent,
    so the bound holds for every step past the stabilization index.
    """
    period, vec, run = _after_prefix(a, w)
    n = a.n
    m = len(period)
    prod_rows, classes = _product_chain(a, period, run)
    infos = [_analyze_class(a, period, prod_rows, cmask, run) for cmask in classes]
    t0 = max(info.t_full for info in infos)
    n_t = t0 + max(info.d * info.kstar for info in infos)
    n_t += (-n_t) % m
    big_n = len(a.word(w.prefix)) + n_t
    vec = vector_product(vec, a.scaled_matrices, [period[t % m] for t in range(t0)])
    lam: Fraction | None = None
    for info in infos:
        for alignment in info.actives:
            block = info.blocks[(alignment + t0) % info.d]
            mass = sum(
                (vec[info.states[i] % n] for i in bits(block)), Fraction(0)
            )
            cand = mass * info.eps
            if lam is None or cand < lam:
                lam = cand
    # in the order chain_analysis gives the classes of the closed set: every
    # product class is ordered by its least bit, the least state of its
    # phase-0 slice, and that slice is a class of the period chain
    jets = []
    for info in infos:
        cyc = []
        for j in range(info.d):
            mask = 0
            for alignment in info.actives:
                mask |= _project(info.blocks[(alignment + n_t + j) % info.d], info.states, n)
            cyc.append(mask)
        jets.append(SupportSequence((0,) * big_n, tuple(cyc)))
    full = a.full_mask
    l0 = 1
    for info in infos:
        l0 = lcm(l0, info.d)
    cyc0 = []
    for j in range(l0):
        used = 0
        for jet in jets:
            used |= jet.at(big_n + j)
        cyc0.append(full & ~used)
    j0 = SupportSequence((full,) * big_n, tuple(cyc0))
    return JetDecomposition(a, w, tuple(jets), j0, big_n, lam)


# -- Monte Carlo -------------------------------------------------------------


def _cumulative(row: Sequence[Fraction]) -> list[tuple[Fraction, int]]:
    out = []
    acc = Fraction(0)
    for j, p in enumerate(row):
        if p > 0:
            acc += p
            out.append((acc, j))
    return out


def _draw(rng: random.Random, cum: list[tuple[Fraction, int]]) -> int:
    u = Fraction(rng.getrandbits(53), 1 << 53)
    for threshold, j in cum:
        if u < threshold:
            return j
    return cum[-1][1]


def simulate_runs(a: Automaton, w: LassoWord, samples: int, seed: int) -> dict[str, float]:
    """Monte Carlo acceptance estimate; deterministic for a fixed seed.

    Each run is simulated on the product chain until it enters a recurrent
    class, which settles acceptance structurally; the half width comes from
    the Hoeffding bound at confidence 95%.  Reach is estimated as one minus
    the rate of runs that survive outside F.
    """
    if samples < 1:
        raise InputError("samples must be >= 1")
    acc = a.acceptance
    if acc is None:
        raise InputError("acceptance condition required")
    prefix = a.word(w.prefix)
    period, _, run = _after_prefix(a, w)
    n = a.n
    m = len(period)
    _, classes = _product_chain(a, period, run)
    class_of: dict[int, int] = {}
    for ci, cmask in enumerate(classes):
        for x in bits(cmask):
            class_of[x] = ci
    safety = acc.kind in ("safety", "reach")
    if safety:
        fmask = a.acceptance_mask()
        if acc.kind == "reach":
            fmask = a.full_mask & ~fmask
        accepts = []
        for cmask in classes:
            proj = 0
            for x in bits(cmask):
                proj |= 1 << (x % n)
            accepts.append(proj & ~fmask == 0)
    else:
        _, minima = chain_parity_almost(a, _per_phase(run, m)[0], period)
        ok = {comp: mn % 2 == 0 for comp, mn in minima}
        accepts = [ok[_slice0(cmask, n)] for cmask in classes]
    cum_init = _cumulative(a.initial)
    cum = [[_cumulative(mat[i]) for i in range(n)] for mat in a.matrices]
    rng = random.Random(seed)
    hits = 0
    for _ in range(samples):
        q = _draw(rng, cum_init)
        if safety and not fmask >> q & 1:
            continue
        dead = False
        for k in prefix:
            q = _draw(rng, cum[k][q])
            if safety and not fmask >> q & 1:
                dead = True
                break
        if dead:
            continue
        phase = 0
        while True:
            ci = class_of.get(phase * n + q)
            if ci is not None:
                if accepts[ci]:
                    hits += 1
                break
            q = _draw(rng, cum[period[phase]][q])
            phase = (phase + 1) % m
            if safety and not fmask >> q & 1:
                break
    if acc.kind == "reach":
        hits = samples - hits
    return {
        "accept_fraction": hits / samples,
        "half_width_95": sqrt(log(2 / 0.05) / (2 * samples)),
    }

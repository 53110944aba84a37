"""The integer dense kernel against Fraction references, on non-dyadic weights.

Every other random generator in the suite draws dyadic weights, under which
a wrong power of the common denominator can cancel against a power of 2;
weights w/total with w in 1..5 make the denominators 3, 5, 7, ... too.
"""
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

import qpa.lasso as lasso
import qpa.semantics as semantics
from qpa.core import Acceptance, Automaton, LassoWord, bits, scaled
from qpa.graphs import bottom_scc_masks
from qpa.lasso import lasso_acceptance_probability, lasso_jet_decomposition
from qpa.semantics import reach_as_buchi, word_matrix

from conftest import lasso_closed_set, random_automaton
from oracles import oimage, omatmul, osolve_linear, oword_matrix


def _weighted_row(rng: random.Random, n: int, dests: list[int]) -> list[Fraction]:
    weights = [rng.randrange(1, 6) for _ in dests]
    total = sum(weights)
    row = [Fraction(0)] * n
    for d, w in zip(dests, weights):
        row[d] += Fraction(w, total)
    return row


def nondyadic_lasso(rng: random.Random, n: int, period_len: int) -> tuple[Automaton, LassoWord]:
    """A transient part leaking into two or three closed blocks, and a lasso."""
    sizes = [rng.randrange(1, 4) for _ in range(rng.choice((2, 2, 3)))]
    while sum(sizes) > n - 1:
        sizes[sizes.index(max(sizes))] -= 1
    sizes = [s for s in sizes if s]
    blocks, nxt = [], n - sum(sizes)
    for s in sizes:
        blocks.append(list(range(nxt, nxt + s)))
        nxt += s
    transient = list(range(n - sum(sizes)))
    mats = []
    for _ in range(2):
        rows = []
        for i in range(n):
            block = next((b for b in blocks if i in b), None)
            if block is not None:
                dests = [rng.choice(block) for _ in range(rng.choice((2, 3)))]
            else:
                dests = [rng.choice(transient)] + [rng.choice(b) for b in blocks[:2]]
            rows.append(_weighted_row(rng, n, dests))
        mats.append(rows)
    states = [f"q{i}" for i in range(n)]
    init = [Fraction(0)] * n
    init[rng.choice(transient)] = Fraction(1)
    kind = rng.choice(("parity", "buchi", "cobuchi", "reach", "safety"))
    if kind == "parity":
        acc = Acceptance.parity({q: rng.randrange(4) for q in states})
    else:
        acc = Acceptance(kind, frozenset(rng.sample(states, rng.randrange(1, n + 1))))
    prefix = tuple(rng.choice("ab") for _ in range(rng.randrange(4)))
    period = tuple(rng.choice("ab") for _ in range(period_len))
    return Automaton(states, ["a", "b"], mats, init, acc), LassoWord(prefix, period)


# -- the Fraction kernel and class analysis the integer kernel replaced --------


def _fraction_letters(letters):
    # the library's kernels take each letter as (integer rows, denominator)
    return [[[Fraction(v, den) for v in row] for row in rows] for rows, den in letters]


def _ref_matrix_product(letters, word, n):
    mats = _fraction_letters(letters)
    out = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in word:
        out = omatmul(out, mats[k])
    return tuple(tuple(row) for row in out)


def _ref_vector_product(vec, letters, word):
    mats = _fraction_letters(letters)
    out = tuple(vec)
    for k in word:
        out = tuple(sum(out[i] * mats[k][i][j] for i in range(len(out))) for j in range(len(out)))
    return out


def _ref_dense_mul(x, y):
    size = len(x)
    yt = list(zip(*y))
    return [[sum(xi[k] * yj[k] for k in range(size)) for yj in yt] for xi in x]


def _ref_dense_pow(mat, e):
    size = len(mat)
    out = [[Fraction(1) if i == j else Fraction(0) for j in range(size)] for i in range(size)]
    base = [row[:] for row in mat]
    while e:
        if e & 1:
            out = _ref_dense_mul(out, base)
        e >>= 1
        if e:
            base = _ref_dense_mul(base, base)
    return out


def _ref_min_positive(mat):
    best = None
    for row in mat:
        for v in row:
            if v > 0 and (best is None or v < best):
                best = v
    return best


def _ref_analyze_class(a, period, prod_rows, cmask, run):
    n = a.n
    m = len(period)
    states = list(bits(cmask))
    pos = {x: i for i, x in enumerate(states)}
    level = {states[0]: 0}
    queue = [states[0]]
    while queue:
        u = queue.pop(0)
        for v in bits(prod_rows[u] & cmask):
            if v not in level:
                level[v] = level[u] + 1
                queue.append(v)
    d = 0
    for u in states:
        for v in bits(prod_rows[u] & cmask):
            d = gcd(d, abs(level[u] + 1 - level[v]))
    cyc = {x: level[x] % d for x in states}
    blocks = [0] * d
    for x in states:
        blocks[cyc[x]] |= 1 << pos[x]
    dense = [[Fraction(0)] * len(states) for _ in states]
    for x in states:
        phase, q = divmod(x, n)
        row = a.matrices[period[phase]][q]
        shift = ((phase + 1) % m) * n
        for qq in range(n):
            if row[qq] > 0:
                dense[pos[x]][pos[shift + qq]] = row[qq]
    td = _ref_dense_pow(dense, d)
    rel_td = [sum(1 << j for j in range(len(states)) if td[i][j] > 0) for i in range(len(states))]
    power = list(rel_td)
    kstar = 1
    while any(power[i] != blocks[cyc[states[i]]] for i in range(len(states))):
        power = [oimage(rel_td, row) for row in power]
        kstar += 1
    stabilized = _ref_dense_pow(td, kstar)
    eps = _ref_min_positive(stabilized)
    walk = stabilized
    for _ in range(d - 1):
        walk = _ref_dense_mul(walk, dense)
        step_min = _ref_min_positive(walk)
        if step_min is not None and step_min < eps:
            eps = step_min
    horizon = len(run.head) + lcm(len(run.cycle), d)
    first_seen = {}
    for t in range(horizon + 1):
        inter = (run.at(t) << ((t % m) * n)) & cmask
        for x in bits(inter):
            first_seen.setdefault((cyc[x] - t) % d, t)
    actives = sorted(first_seen)
    t_full = max(first_seen.values())
    return lasso._ClassInfo(cmask, states, d, kstar, eps, blocks, cyc, actives, t_full)


def _ref_chain_analysis(a, mask, word):
    w = a.word(word)
    classes = tuple(bottom_scc_masks(semantics.word_relation(a, w), mask))
    transient = mask & ~sum(classes)
    absorption = {}
    for ci, c in enumerate(classes):
        for i in bits(mask):
            if not transient >> i & 1:
                absorption[(i, ci)] = Fraction(int(c >> i & 1))
    if transient:
        tlist = list(bits(transient))
        M = _ref_matrix_product(a.scaled_matrices, w, a.n)
        A = [[Fraction(int(q == t)) - M[q][t] for t in tlist] for q in tlist]
        B = [[sum(M[q][j] for j in bits(c)) for c in classes] for q in tlist]
        X = osolve_linear(A, B)
        for r, q in enumerate(tlist):
            for ci in range(len(classes)):
                absorption[(q, ci)] = X[r][ci]
    return semantics.ChainAnalysis(mask, classes, transient, absorption)


def _ref_safety_probability(a, w, fmask):
    n = a.n
    zero = Fraction(0)
    restricted = [
        scaled(
            [
                [mat[i][j] if fmask >> i & 1 and fmask >> j & 1 else zero for j in range(n)]
                for i in range(n)
            ]
        )
        for mat in a.matrices
    ]
    vec = tuple(a.initial[i] if fmask >> i & 1 else zero for i in range(n))
    vec = _ref_vector_product(vec, restricted, a.word(w.prefix))
    r = _ref_matrix_product(restricted, a.word(w.period), n)
    rows = tuple(sum(1 << j for j in range(n) if r[i][j] > 0) for i in range(n))
    safe = 0
    for comp in bottom_scc_masks(rows, fmask):
        if all(sum(r[i]) == 1 for i in bits(comp)):
            safe |= comp
    survival = {i: Fraction(1) for i in bits(safe)}
    transient = fmask & ~safe
    if transient and safe:
        tlist = list(bits(transient))
        lhs = [[Fraction(int(q == t)) - r[q][t] for t in tlist] for q in tlist]
        rhs = [[sum((r[q][j] for j in bits(safe)), zero)] for q in tlist]
        for q, row in zip(tlist, osolve_linear(lhs, rhs)):
            survival[q] = row[0]
    return sum((vec[i] * survival.get(i, zero) for i in bits(fmask)), zero)


def _fraction_kernel(monkeypatch):
    monkeypatch.setattr(lasso, "vector_product", _ref_vector_product)
    monkeypatch.setattr(lasso, "chain_analysis", _ref_chain_analysis)
    monkeypatch.setattr(lasso, "_safety_probability", _ref_safety_probability)
    monkeypatch.setattr(lasso, "_analyze_class", _ref_analyze_class)


def _jets(d):
    # the absorption of the closed set goes through lasso.chain_analysis, so
    # the Fraction kernel replaces it too
    a, w = d.automaton, d.word
    return (
        [(j.head, j.cycle) for j in d.jets],
        (d.j0.head, d.j0.cycle),
        d.stabilization_index,
        d.lambda_bound,
        lasso.chain_analysis(a, lasso_closed_set(a, w), w.period).absorption,
    )


# -- tests ---------------------------------------------------------------------


@pytest.mark.parametrize("n", range(4, 11))
def test_word_matrix_matches_oracle_nondyadic(n):
    rng = random.Random(5100 + n)
    for period_len in range(1, 5):
        a, _ = nondyadic_lasso(rng, n, period_len)
        for wlen in (0, 1, 2, 5):
            w = tuple(rng.randrange(2) for _ in range(wlen))
            m = word_matrix(a, w)
            assert [list(r) for r in m] == oword_matrix(a, w)
            assert type(m) is tuple and all(type(row) is tuple for row in m)
            assert all(type(v) is Fraction for row in m for v in row)


@pytest.mark.parametrize("n", range(4, 11))
def test_lasso_values_match_fraction_kernel(monkeypatch, n):
    rng = random.Random(5200 + n)
    cases = [nondyadic_lasso(rng, n, period_len) for period_len in range(1, 5) for _ in range(2)]
    got = [(lasso_acceptance_probability(a, w), _jets(lasso_jet_decomposition(a, w))) for a, w in cases]
    _fraction_kernel(monkeypatch)
    want = [(lasso_acceptance_probability(a, w), _jets(lasso_jet_decomposition(a, w))) for a, w in cases]
    assert got == want
    for p, (_, _, _, lam, _) in got:
        assert type(p) is Fraction and type(lam) is Fraction


def _reach_cases(seed):
    rng = random.Random(seed)
    cases = []
    for _ in range(20):
        a = random_automaton(rng, rng.randrange(2, 6), acceptance="reach")
        prefix = tuple(rng.randrange(2) for _ in range(rng.randrange(3)))
        period = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 4)))
        cases.append((a, LassoWord(prefix, period)))
    for n in range(4, 11):
        for period_len in range(1, 5):
            a, w = nondyadic_lasso(rng, n, period_len)
            f = rng.sample(a.states, rng.randrange(1, n + 1))
            cases.append((a.with_acceptance(Acceptance.reach(f)), w))
    return cases


@pytest.mark.parametrize("seed", range(3))
def test_reach_and_closure_match_the_buchi_route(seed):
    # reach is answered as one minus survival outside F, and the closed set
    # is read off the one support run; both against the routes they replaced
    for a, w in _reach_cases(5400 + seed):
        assert lasso_acceptance_probability(a, w) == lasso_acceptance_probability(reach_as_buchi(a), w)
        period, _, run = lasso._after_prefix(a, w)
        assert lasso._per_phase(run, len(period))[0] == lasso_closed_set(a, w)

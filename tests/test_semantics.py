import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qpa.core import Acceptance, Automaton
from qpa.errors import InputError
from qpa.semantics import (
    chain_analysis,
    chain_parity_almost,
    make_accepting_absorbing,
    propagate,
    reach_as_buchi,
    sharp_power,
    solve_linear,
    support_step,
    word_matrix,
    word_relation,
)

from conftest import random_automaton
from oracles import osharp, osolve_linear, osupport, oword_matrix


def test_word_matrix_ex1(ex1):
    m = word_matrix(ex1, "ab")
    h = Fraction(1, 2)
    assert m == (
        (h, 0, h),
        (h, h, 0),
        (0, 0, 1),
    )
    assert word_matrix(ex1, "") == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_propagate_ex1(ex1):
    out = propagate(ex1, {"s": 1}, "ab")
    assert out == {"s": Fraction(1, 2), "u": Fraction(1, 2)}
    assert propagate(ex1, {"s": 1}, "") == {"s": Fraction(1)}
    with pytest.raises(InputError):
        propagate(ex1, {"s": Fraction(1, 3)}, "a")


def test_support_step(ex1, ex2):
    q = ex1.full_mask
    assert support_step(ex1, q, "a") == q
    assert support_step(ex1, q, "b") == q
    assert support_step(ex1, "u", "a") == ex1.mask("t")
    assert support_step(ex2, "1", "aaab") == ex2.mask("1 2 4")
    assert support_step(ex2, "1", "") == ex2.mask("1")


def test_sharp_power_ex1(ex1):
    q = ex1.full_mask
    assert sharp_power(ex1, q, "a") == q
    assert sharp_power(ex1, q, "b") == q
    assert sharp_power(ex1, q, "ab") == ex1.mask("u")
    with pytest.raises(InputError):
        sharp_power(ex1, "s", "a")


def test_sharp_power_ex2(ex2):
    assert sharp_power(ex2, "1 3", "a") == ex2.mask("3")


def test_chain_analysis_single_class(ex1):
    ca = chain_analysis(ex1, ex1.full_mask, "ab")
    assert ca.classes == (ex1.mask("u"),)
    assert ca.transient == ex1.mask("s t")
    assert ca.absorption[(ex1.state_index["s"], 0)] == 1
    assert ca.absorption[(ex1.state_index["t"], 0)] == 1
    assert ca.class_mass((1, 0, 0)) == [Fraction(1)]


def test_chain_analysis_split():
    a = Automaton(
        ["x", "y", "z"],
        ["a"],
        [[[0, Fraction(1, 2), Fraction(1, 2)], [0, 1, 0], [0, 0, 1]]],
        [1, 0, 0],
    )
    ca = chain_analysis(a, a.full_mask, "a")
    assert ca.classes == (a.mask("y"), a.mask("z"))
    assert ca.absorption_row(0) == (Fraction(1, 2), Fraction(1, 2))
    assert ca.class_mass((1, 0, 0)) == [Fraction(1, 2), Fraction(1, 2)]


def test_chain_analysis_requires_closure(ex1):
    with pytest.raises(InputError):
        chain_analysis(ex1, "s", "a")
    with pytest.raises(InputError):
        chain_analysis(ex1, ex1.full_mask, "")


# -- fraction-free linear solve --------------------------------------------------


def _times(A, X):
    return [[sum(a * x for a, x in zip(row, col)) for col in zip(*X)] for row in A]


def _system(rng: random.Random, size: int, swap: str):
    """An integer system with 1-3 right-hand columns.  swap="lead" zeroes
    the first pivot; swap="minor" makes row k proportional to row k-1 on the
    first k+1 columns, so the leading minor of order k+1 vanishes and some
    pivot up to step k is zero.  Either way elimination must swap rows; the
    system can stay invertible for size >= 2 and size >= 3 respectively."""
    A = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
    cols = rng.randint(1, 3)
    B = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(size)]
    if swap == "lead":
        A[0][0] = 0
    elif swap == "minor":
        k = rng.randrange(1, size - 1)
        f = rng.choice((-2, -1, 2, 3))
        A[k][: k + 1] = [f * v for v in A[k - 1][: k + 1]]
    return A, B


@pytest.mark.parametrize(
    "size, swap",
    [(size, "none") for size in range(1, 9)]
    + [(size, "lead") for size in range(2, 9)]
    + [(size, "minor") for size in range(3, 9)],
)
def test_solve_linear_matches_fraction_reference(size, swap):
    rng = random.Random(7300 + 10 * size + len(swap))
    solved = 0
    for _ in range(20):
        A, B = _system(rng, size, swap)
        try:
            want = osolve_linear(A, B)
        except ValueError:
            with pytest.raises(InputError, match="singular"):
                solve_linear(A, B)
            continue
        got = solve_linear(A, B)
        assert got == want
        assert all(type(x) is Fraction for row in got for x in row)
        assert _times(A, got) == B
        solved += 1
    assert solved >= 10


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_solve_linear_satisfies_the_system(data):
    size = data.draw(st.integers(1, 8))
    cols = data.draw(st.integers(1, 3))
    entry = st.integers(-50, 50)
    A = data.draw(st.lists(st.lists(entry, min_size=size, max_size=size), min_size=size, max_size=size))
    B = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=size, max_size=size))
    try:
        X = solve_linear(A, B)
    except InputError:
        with pytest.raises(ValueError):
            osolve_linear(A, B)
        return
    assert _times(A, X) == B
    assert all(type(x) is Fraction for row in X for x in row)


def test_solve_linear_swaps_rows_on_a_zero_pivot():
    # no leading pivot is nonzero until rows are swapped
    A = [[0, 0, 1], [0, 2, 0], [3, 0, 0]]
    assert solve_linear(A, [[1, 2], [4, 6], [9, 3]]) == [[3, 1], [2, 3], [1, 2]]
    assert solve_linear([[0, 1], [1, 0]], [[5], [7]]) == [[7], [5]]


def test_solve_linear_rejects_singular_systems():
    for A in ([[0]], [[1, 2], [2, 4]], [[1, 2, 3], [4, 5, 6], [5, 7, 9]], [[0, 1], [0, 1]]):
        with pytest.raises(InputError, match="singular"):
            solve_linear(A, [[1] for _ in A])


def test_chain_parity_almost_ex1(ex1):
    good = ex1.with_acceptance(Acceptance.parity({"s": 1, "t": 1, "u": 0}))
    ok, minima = chain_parity_almost(good, "s u", "ab")
    assert ok
    assert minima == ((ex1.mask("u"), 0),)
    odd = ex1.with_acceptance(Acceptance.parity({"s": 1, "t": 1, "u": 1}))
    bad, _ = chain_parity_almost(odd, "s u", "ab")
    assert not bad


def test_make_accepting_absorbing(ex1):
    b = make_accepting_absorbing(ex1, ex1.mask("u"))
    iu = ex1.state_index["u"]
    for mat in b.matrices:
        assert mat[iu][iu] == 1
    assert b.matrices[0][0] == ex1.matrices[0][0]
    assert make_accepting_absorbing(ex1, 0) is ex1
    acc = ex1.with_acceptance(Acceptance.reach({"u"}))
    c = make_accepting_absorbing(acc)
    assert c.acceptance == acc.acceptance
    assert c.matrices[1][iu][iu] == 1


def test_reach_as_buchi_matches_two_step_rewrite():
    rng = random.Random(1107)
    for _ in range(20):
        a = random_automaton(rng, rng.randrange(1, 6))
        target = [q for q in a.states if rng.random() < 0.5]
        r = a.with_acceptance(Acceptance.reach(target))
        want = make_accepting_absorbing(r).with_acceptance(Acceptance.buchi(target))
        assert reach_as_buchi(r) == want


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 5), st.integers(0, 5))
def test_word_semantics_match_oracle(seed, n, wlen):
    rng = random.Random(seed)
    a = random_automaton(rng, n)
    w = tuple(rng.randrange(len(a.alphabet)) for _ in range(wlen))
    assert [list(r) for r in word_matrix(a, w)] == oword_matrix(a, w)
    s = rng.randrange(1, 1 << n)
    assert support_step(a, s, w) == osupport(a, s, w)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 4), st.integers(1, 4))
def test_sharp_power_matches_oracle(seed, n, wlen):
    rng = random.Random(seed)
    a = random_automaton(rng, n)
    w = tuple(rng.randrange(len(a.alphabet)) for _ in range(wlen))
    for s in range(1, 1 << n):
        expected = osharp(a, s, w)
        if expected is None:
            with pytest.raises(InputError):
                sharp_power(a, s, w)
        else:
            assert sharp_power(a, s, w) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 4), st.integers(0, 3), st.integers(1, 3))
def test_support_step_composes(seed, n, l1, l2):
    rng = random.Random(seed)
    a = random_automaton(rng, n)
    w1 = tuple(rng.randrange(len(a.alphabet)) for _ in range(l1))
    w2 = tuple(rng.randrange(len(a.alphabet)) for _ in range(l2))
    s = rng.randrange(1, 1 << n)
    assert support_step(a, support_step(a, s, w1), w2) == support_step(a, s, w1 + w2)


def test_absorption_rows_are_distributions(ex1, ex2):
    for a, g, w in ((ex1, ex1.full_mask, "ab"), (ex2, ex2.mask("1 3"), "a")):
        ca = chain_analysis(a, g, w)
        for i in range(a.n):
            if g >> i & 1:
                assert sum(ca.absorption_row(i)) == 1


def test_word_relation_matches_matrix(ex2):
    rows = word_relation(ex2, ex2.word("aab"))
    m = word_matrix(ex2, "aab")
    for i in range(ex2.n):
        for j in range(ex2.n):
            assert bool(rows[i] >> j & 1) == (m[i][j] > 0)

"""Shared fixtures: small hand-checked automata and random generators."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qpa.core import Automaton, LassoWord
from qpa.formats import DFA, parse_automaton, parse_dfa
from qpa.semantics import support_step

EX1_TEXT = """\
# three-state automaton with a non-trivial sharp power on (ab)
states: s t u
alphabet: a b
init: s=1
trans: s a s 1/2
trans: s a t 1/2
trans: t a s 1/2
trans: t a u 1/2
trans: u a t 1
trans: s b s 1
trans: t b u 1
trans: u b t 1
"""

EX2_TEXT = """\
# four-state automaton; {4} is reachable only through bordered supports
states: 1 2 3 4
alphabet: a b
init: 1=1
trans: 1 a 1 1/2
trans: 1 a 3 1/2
trans: 2 a 2 1
trans: 3 a 3 1
trans: 4 a 4 1
trans: 1 b 2 1
trans: 2 b 2 1
trans: 3 b 1 1/2
trans: 3 b 4 1/2
trans: 4 b 4 1
"""

EXLG_TEXT = """\
states: 1 2 3
alphabet: a b
init: 1=1
trans: 1 a 1 1/2
trans: 1 a 3 1/2
trans: 2 a 2 1
trans: 3 a 3 1
trans: 1 b 2 1
trans: 2 b 2 1
trans: 3 b 1 1
"""

DFA1_TEXT = """\
# accepts words with an even number of b-blocks ending in a
states: 1 2
alphabet: a b
init: 2
accept: 1
trans: 1 a 1
trans: 1 b 2
trans: 2 a 1
trans: 2 b 2
"""

DFA2_TEXT = """\
states: 3 4 5
alphabet: a b
init: 3
accept: 4
trans: 3 b 3
trans: 3 a 4
trans: 4 a 4
trans: 4 b 5
trans: 5 a 5
trans: 5 b 5
"""

# intersection gadget for DFA1_TEXT and DFA2_TEXT: the fresh letter x resets
# accepting copies to the hub s, which redistributes over both initial copies
HRD_TEXT = """\
states: 1 2 3 4 5 s bot
alphabet: a b x
init: s=1
acceptance: buchi s
trans: 1 a 1 1
trans: 1 b 2 1
trans: 1 x s 1
trans: 2 a 1 1
trans: 2 b 2 1
trans: 2 x bot 1
trans: 3 a 4 1
trans: 3 b 3 1
trans: 3 x bot 1
trans: 4 a 4 1
trans: 4 b 5 1
trans: 4 x s 1
trans: 5 a 5 1
trans: 5 b 5 1
trans: 5 x bot 1
trans: s a bot 1
trans: s b bot 1
trans: s x 2 1/2
trans: s x 3 1/2
trans: bot a bot 1
trans: bot b bot 1
trans: bot x bot 1
"""


@pytest.fixture
def ex1() -> Automaton:
    return parse_automaton(EX1_TEXT)


@pytest.fixture
def ex2() -> Automaton:
    return parse_automaton(EX2_TEXT)


@pytest.fixture
def exlg() -> Automaton:
    return parse_automaton(EXLG_TEXT)


@pytest.fixture
def dfa1() -> DFA:
    return parse_dfa(DFA1_TEXT)


@pytest.fixture
def dfa2() -> DFA:
    return parse_dfa(DFA2_TEXT)


@pytest.fixture
def hrd() -> Automaton:
    return parse_automaton(HRD_TEXT)


def lasso_closed_set(a: Automaton, w: LassoWord) -> int:
    """The support after the prefix, closed under the period: the set whose
    period chain the lasso probability reads, as a fixpoint of its own, apart
    from the library's support run."""
    g = support_step(a, a.initial_support, w.prefix)
    while True:
        nxt = g | support_step(a, g, w.period)
        if nxt == g:
            return g
        g = nxt


def random_automaton(
    rng: random.Random,
    n_states: int,
    n_letters: int = 2,
    acceptance: str | None = None,
    max_priority: int = 3,
    dirac_initial: bool = True,
) -> Automaton:
    """Random automaton with row-stochastic dyadic matrices.

    Each row picks one or two destinations; two-destination rows split 1/2+1/2
    so supports stay varied without tiny probabilities.
    """
    states = [f"q{i}" for i in range(n_states)]
    letters = [chr(ord("a") + i) for i in range(n_letters)]
    mats = []
    for _ in letters:
        rows = []
        for _ in range(n_states):
            if rng.random() < 0.5:
                dst = rng.randrange(n_states)
                row = [Fraction(0)] * n_states
                row[dst] = Fraction(1)
            else:
                d1 = rng.randrange(n_states)
                d2 = rng.randrange(n_states)
                row = [Fraction(0)] * n_states
                row[d1] += Fraction(1, 2)
                row[d2] += Fraction(1, 2)
            rows.append(tuple(row))
        mats.append(tuple(rows))
    if dirac_initial:
        init = [Fraction(0)] * n_states
        init[rng.randrange(n_states)] = Fraction(1)
    else:
        init = [Fraction(1, n_states)] * n_states
    acc = None
    if acceptance == "parity":
        from qpa.core import Acceptance

        acc = Acceptance.parity({q: rng.randrange(max_priority + 1) for q in states})
    elif acceptance is not None:
        from qpa.core import Acceptance

        k = rng.randrange(1, n_states + 1)
        chosen = rng.sample(states, k)
        acc = Acceptance(acceptance, frozenset(chosen), ())
    return Automaton(states, letters, mats, init, acc)


def random_dfa(rng: random.Random, n_states: int, n_letters: int = 2) -> DFA:
    states = tuple(f"d{i}" for i in range(n_states))
    letters = tuple(chr(ord("a") + i) for i in range(n_letters))
    delta = tuple(
        tuple(rng.randrange(n_states) for _ in range(n_states)) for _ in letters
    )
    k = rng.randrange(1, n_states + 1)
    accepting = frozenset(rng.sample(states, k))
    return DFA(states, letters, states[rng.randrange(n_states)], accepting, delta)

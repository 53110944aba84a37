from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import random

from qpa.core import Acceptance, scaled
from qpa.errors import FormatError, InputError
from qpa.formats import parse_automaton, parse_dfa, serialize_automaton, serialize_dfa

from conftest import DFA1_TEXT, EX1_TEXT, random_automaton, random_dfa


def test_parse_ex1(ex1):
    assert ex1.states == ("s", "t", "u")
    assert ex1.alphabet == ("a", "b")
    assert ex1.matrices[0][0][1] == Fraction(1, 2)
    assert ex1.initial == (1, 0, 0)
    assert ex1.acceptance is None


def test_parse_acceptance_variants():
    base = "states: p q\nalphabet: a\ninit: p=1\ntrans: p a q 1\ntrans: q a q 1\n"
    assert parse_automaton(base + "acceptance: buchi q\n").acceptance == Acceptance.buchi({"q"})
    assert parse_automaton(base + "acceptance: safety p q\n").acceptance == Acceptance.safety({"p", "q"})
    assert parse_automaton(base + "acceptance: reach q\n").acceptance == Acceptance.reach({"q"})
    assert parse_automaton(base + "acceptance: cobuchi q\n").acceptance == Acceptance.cobuchi({"q"})
    par = parse_automaton(base + "acceptance: parity p=1 q=0\n").acceptance
    assert par.kind == "parity" and par.priority_map == {"p": 1, "q": 0}


def test_parse_decimal_probabilities():
    a = parse_automaton(
        "states: p q\nalphabet: a\ninit: p=0.25 q=0.75\n"
        "trans: p a q 1\ntrans: q a q 1\n"
    )
    assert a.initial == (Fraction(1, 4), Fraction(3, 4))


def test_parse_errors_carry_position():
    with pytest.raises(FormatError) as e:
        parse_automaton("states: p p\nalphabet: a\ninit: p=1\ntrans: p a p 1\n")
    assert e.value.line == 1
    with pytest.raises(FormatError) as e:
        parse_automaton("states: p\nalphabet: a\ninit: p=1\ntrans: p a p 2\n")
    assert e.value.line == 4
    with pytest.raises(InputError):
        parse_automaton("states: p\nalphabet: a\ntrans: p a p 1\n")
    with pytest.raises(FormatError):
        parse_automaton("states: p\nalphabet: a\ninit: p=1\nbogus: x\ntrans: p a p 1\n")


def test_parse_rejects_bad_row_sum():
    with pytest.raises(InputError) as e:
        parse_automaton("states: p\nalphabet: a\ninit: p=1\ntrans: p a p 1/2\n")
    assert "row sum" in str(e.value)


def test_parse_comments_and_blanks(ex1):
    assert parse_automaton(EX1_TEXT) == ex1
    spaced = EX1_TEXT.replace("trans: s a s 1/2", "  trans: s a s 1/2   # half")
    assert parse_automaton(spaced) == ex1


def test_serialize_roundtrip(ex1, ex2):
    for a in (ex1, ex2):
        again = parse_automaton(serialize_automaton(a))
        assert again == a
    acc = ex1.with_acceptance(Acceptance.parity({"s": 1, "t": 1, "u": 0}))
    assert parse_automaton(serialize_automaton(acc)) == acc


def test_serialize_is_canonical(ex1):
    text = serialize_automaton(ex1)
    assert serialize_automaton(parse_automaton(text)) == text


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 5), st.booleans())
def test_roundtrip_random(seed, n, with_acc):
    rng = random.Random(seed)
    a = random_automaton(rng, n, acceptance="parity" if with_acc else None)
    assert parse_automaton(serialize_automaton(a)) == a


def test_parse_dfa(dfa1):
    assert dfa1.states == ("1", "2")
    assert dfa1.init == "2"
    assert dfa1.accepting == frozenset({"1"})
    assert dfa1.accepts("baa")
    assert not dfa1.accepts("ab")
    assert not dfa1.accepts("")


def test_dfa_requires_total_deterministic():
    with pytest.raises(InputError) as e:
        parse_dfa("states: p\nalphabet: a b\ninit: p\naccept: p\ntrans: p a p\n")
    assert "missing move" in str(e.value)
    with pytest.raises(FormatError) as e:
        parse_dfa(
            "states: p q\nalphabet: a\ninit: p\naccept: p\n"
            "trans: p a p\ntrans: p a q\ntrans: q a q\n"
        )
    assert "nondeterministic" in str(e.value)


def test_dfa_roundtrip(dfa1, dfa2):
    for d in (dfa1, dfa2):
        assert parse_dfa(serialize_dfa(d)) == d
    rng = random.Random(7)
    for _ in range(20):
        d = random_dfa(rng, rng.randrange(1, 5))
        assert parse_dfa(serialize_dfa(d)) == d


_HEAD = "states: p q\nalphabet: a b\n"

# one malformed text per FormatError branch parse_automaton can reach, with
# the exact message, line and column it reports
PARSE_ERRORS = [
    ("states: p\nbogus line\n", "expected 'key: ...'", 2, 1),
    ("states: p\nfoo: x\n", "unknown section 'foo'", 2, 1),
    ("states: p\nstates: q\n", "duplicate 'states' section", 2, 1),
    (_HEAD + "alphabet: c\n", "duplicate 'alphabet' section", 3, 1),
    ("states: p q p\n", "duplicate state 'p'", 1, 13),
    ("states: p\nalphabet:  a\tb a\n", "duplicate letter 'a'", 2, 16),
    (_HEAD + "init: p=1\ninit: q=1\n", "duplicate 'init' section", 4, 1),
    (_HEAD + "init: p=1/2  q\n", "expected state=prob, got 'q'", 3, 14),
    (_HEAD + "init: z=1\n", "unknown state 'z'", 3, 7),
    (_HEAD + "init: p=1/2 p=1/2\n", "duplicate initial weight for 'p'", 3, 13),
    (_HEAD + "init: q=x\n", "bad probability 'x'", 3, 9),
    (_HEAD + "  init:   pq=1/0\n", "unknown state 'pq'", 3, 11),
    (_HEAD + "init: p=1/0\n", "bad probability '1/0'", 3, 9),
    (_HEAD + "init: p=3/2\n", "probability '3/2' outside [0,1]", 3, 9),
    (_HEAD + "init: p=-1\n", "probability '-1' outside [0,1]", 3, 9),
    (_HEAD + "acceptance: buchi p\nacceptance: buchi q\n", "duplicate 'acceptance' section", 4, 1),
    (_HEAD + "acceptance:   # nothing\n", "empty acceptance line", 3, 1),
    (_HEAD + "acceptance: safety p z\n", "unknown state 'z'", 3, 22),
    (_HEAD + "acceptance: parity p=0 q\n", "expected state=priority, got 'q'", 3, 24),
    (_HEAD + "acceptance: parity z=1\n", "unknown state 'z'", 3, 20),
    (_HEAD + "acceptance: parity q=1 q=2\n", "duplicate priority for 'q'", 3, 24),
    (_HEAD + "acceptance: parity p=1.5\n", "bad priority '1.5'", 3, 22),
    (_HEAD + "acceptance:\trabin p\n", "unknown acceptance kind 'rabin'", 3, 13),
    (_HEAD + "trans: p a q\n", "expected 'trans: src letter dst prob'", 3, 1),
    (_HEAD + "trans: p a q 1 1\n", "expected 'trans: src letter dst prob'", 3, 1),
    (_HEAD + "trans: z a q 1\n", "unknown state 'z'", 3, 8),
    (_HEAD + "trans: p  c q 1\n", "unknown letter 'c'", 3, 11),
    (_HEAD + "trans: p a z 1\n", "unknown state 'z'", 3, 12),
    (_HEAD + "trans: p a q 1/2\n trans: p a q 1/2 # again\n", "duplicate transition p a q", 4, 9),
    (_HEAD + "init: p=1\ntrans: p b q one\n", "bad probability 'one'", 4, 14),
    (_HEAD + "# c\n\ntrans: q a p 5/4\n", "probability '5/4' outside [0,1]", 5, 14),
]


@pytest.mark.parametrize("text, message, line, column", PARSE_ERRORS)
def test_parse_error_messages_and_positions(text, message, line, column):
    with pytest.raises(FormatError) as e:
        parse_automaton(text)
    assert str(e.value) == f"line {line}, column {column}: {message}"
    assert (e.value.line, e.value.column) == (line, column)


def _weighted(rng: random.Random, n: int) -> dict[int, Fraction]:
    """A distribution over up to three of n states: dyadic or non-dyadic."""
    dests = [rng.randrange(n) for _ in range(rng.randrange(1, 4))]
    weights = [rng.choice((1, 2)) if rng.random() < 0.5 else rng.randrange(1, 6) for _ in dests]
    out: dict[int, Fraction] = {}
    for d, w in zip(dests, weights):
        out[d] = out.get(d, Fraction(0)) + Fraction(w, sum(weights))
    return out


def _prob_text(rng: random.Random, p: Fraction) -> str:
    """p as a fraction, or as a decimal when it has a short exact one."""
    if p.denominator in (1, 2, 4, 5, 8, 10) and rng.random() < 0.3:
        return str(p.numerator / p.denominator)
    return str(p)


def test_parsed_tables_agree_with_fraction_sums():
    rng = random.Random(1107)
    refused = 0
    for _ in range(200):
        n, n_letters = rng.randrange(1, 9), rng.randrange(1, 4)
        states = [f"q{i}" for i in range(n)]
        letters = [chr(ord("a") + k) for k in range(n_letters)]
        rows = [[_weighted(rng, n) for _ in states] for _ in letters]
        init = _weighted(rng, n)
        if rng.random() < 0.3:
            # move one entry off, so that its row (or init) may miss 1
            target = rng.choice([init] + [row for table in rows for row in table])
            target[rng.choice(list(target))] = Fraction(rng.randrange(0, 7), 6)
        lines = [
            "states: " + " ".join(states),
            "alphabet: " + " ".join(letters),
            "init: " + " ".join(f"{states[j]}={_prob_text(rng, p)}" for j, p in init.items()),
        ]
        trans = [
            f"trans: {states[i]} {letter} {states[j]} {_prob_text(rng, p)}"
            for letter, table in zip(letters, rows)
            for i, row in enumerate(table)
            for j, p in row.items()
        ]
        rng.shuffle(trans)
        text = "\n".join(lines + trans) + "\n"

        problems = [
            f"row sum != 1 for state {q}, letter {letter}"
            for letter, table in zip(letters, rows)
            for q, row in zip(states, table)
            if sum(row.values(), Fraction(0)) != 1
        ]
        if sum(init.values(), Fraction(0)) != 1:
            problems.append("initial distribution does not sum to 1")
        if problems:
            refused += 1
            with pytest.raises(InputError) as e:
                parse_automaton(text)
            assert str(e.value) == "; ".join(problems)
            continue
        a = parse_automaton(text)
        assert a.matrices == tuple(
            tuple(tuple(row.get(j, Fraction(0)) for j in range(n)) for row in table) for table in rows
        )
        assert a.initial == tuple(init.get(j, Fraction(0)) for j in range(n))
        assert len(a.scaled_matrices) == n_letters
        for m, s in zip(a.matrices, a.scaled_matrices):
            assert s == scaled(m)
    assert 20 <= refused <= 100

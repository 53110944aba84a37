from fractions import Fraction

import pytest

from qpa.core import (
    Acceptance,
    Automaton,
    LassoWord,
    Verdict,
    as_vector,
    validate_automaton,
)
from qpa.classify import union_structure
from qpa.errors import InputError
from qpa.lasso import lasso_jet_decomposition
from qpa.semantics import propagate
from qpa.supportgraph import synthesize_limit_word


def test_mask_names_roundtrip(ex1):
    m = ex1.mask("s u")
    assert ex1.names(m) == ("s", "u")
    assert ex1.mask(["u", "s"]) == m
    assert ex1.mask("") == 0
    with pytest.raises(InputError):
        ex1.mask("nope")


def test_word_normalization(ex1):
    assert ex1.word("ab") == (0, 1)
    assert ex1.word("a b a") == (0, 1, 0)
    assert ex1.word(["b", "a"]) == (1, 0)
    assert ex1.word((1, 0, 1)) == (1, 0, 1)
    assert ex1.word(["a", 1]) == (0, 1)
    assert ex1.word("") == ()
    assert ex1.letters((0, 1)) == ("a", "b")
    with pytest.raises(InputError):
        ex1.word("ax")
    with pytest.raises(InputError):
        ex1.word((0, 5))


def test_epsilon_and_masks(ex1, ex2):
    assert ex1.epsilon() == Fraction(1, 2)
    assert ex1.full_mask == 0b111
    assert ex1.initial_support == ex1.mask("s")
    assert ex2.initial_support == ex2.mask("1")


def test_validate_catches_bad_rows(ex1):
    mats = [list(map(list, m)) for m in ex1.matrices]
    mats[0][0][0] = Fraction(3, 4)
    broken = Automaton(ex1.states, ex1.alphabet, mats, ex1.initial)
    problems = validate_automaton(broken)
    assert any("row sum" in p and "letter a" in p for p in problems)


def test_validate_catches_bad_initial(ex1):
    broken = Automaton(ex1.states, ex1.alphabet, ex1.matrices, [Fraction(1, 2), 0, 0])
    assert any("initial" in p for p in validate_automaton(broken))


def test_validate_acceptance_states(ex1):
    bad = ex1.with_acceptance(Acceptance.buchi({"zz"}))
    assert any("zz" in p for p in validate_automaton(bad))
    partial = ex1.with_acceptance(Acceptance.parity({"s": 1}))
    assert validate_automaton(partial)


def test_priorities_encoding(ex1):
    assert ex1.with_acceptance(Acceptance.buchi({"u"})).priorities() == (1, 1, 0)
    assert ex1.with_acceptance(Acceptance.cobuchi({"u"})).priorities() == (1, 1, 2)
    assert ex1.with_acceptance(
        Acceptance.parity({"s": 1, "t": 1, "u": 0})
    ).priorities() == (1, 1, 0)
    with pytest.raises(InputError):
        ex1.with_acceptance(Acceptance.safety({"s"})).priorities()
    with pytest.raises(InputError):
        ex1.priorities()


def test_acceptance_mask(ex1):
    assert ex1.with_acceptance(Acceptance.reach({"u"})).acceptance_mask() == ex1.mask("u")
    with pytest.raises(InputError):
        ex1.acceptance_mask()


def test_as_vector_checks_distribution(ex1):
    assert as_vector(ex1, {"s": 1}) == (Fraction(1), Fraction(0), Fraction(0))
    with pytest.raises(InputError):
        as_vector(ex1, {"s": Fraction(1, 2)})
    with pytest.raises(InputError):
        as_vector(ex1, {"s": 2, "t": -1})


def test_lasso_word():
    w = LassoWord(("a",), ("a", "b"))
    assert str(w) == "(a)(a b)^w"
    assert str(LassoWord((), ("b",))) == "(b)^w"
    with pytest.raises(InputError):
        LassoWord((), ())


def test_verdict_truthiness():
    assert Verdict("yes", None, "")
    assert not Verdict("no", None, "")
    assert not Verdict("undecidable_in_general", None, "")


@pytest.mark.parametrize(
    "call",
    [
        lambda a: synthesize_limit_word(a, "4", "abc"),
        lambda a: synthesize_limit_word(a, "4", "1/0"),
        lambda a: union_structure(a, a, "x"),
        lambda a: lasso_jet_decomposition(a, LassoWord((), ("a",))).horizon("abc"),
        lambda a: propagate(a, {"1": "x"}, "a"),
        lambda a: propagate(a, ["x"] + [0] * (a.n - 1), "a"),
    ],
    ids=[
        "eps-text",
        "eps-zero-denominator",
        "mix-text",
        "horizon-eps-text",
        "distribution-text-by-name",
        "distribution-text-by-index",
    ],
)
def test_malformed_numbers_are_input_errors(ex2, call):
    with pytest.raises(InputError, match="not a number"):
        call(ex2)

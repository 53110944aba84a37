from fractions import Fraction

import pytest

from qpa.core import (
    DEFAULT_BUDGETS,
    Acceptance,
    Automaton,
    LassoWord,
    Verdict,
    as_mask,
    as_vector,
    validate_automaton,
)
from qpa.classify import is_chain_recurrent, is_sharp_reduction, union_structure
from qpa.errors import InputError
from qpa.lasso import SupportSequence, lasso_jet_decomposition
from qpa.linked import linked_graph_of_word, rec_from
from qpa.semantics import chain_analysis, propagate, sharp_power, support_step
from qpa.supportgraph import (
    ExtendedSupportGraph,
    build_extended_support_graph,
    reachable_supports,
    replay_steps,
    sharp_reachable,
    synthesize_limit_word,
)


def test_mask_names_roundtrip(ex1):
    m = ex1.mask("s u")
    assert ex1.names(m) == ("s", "u")
    assert ex1.mask(["u", "s"]) == m
    assert ex1.mask("") == 0
    with pytest.raises(InputError):
        ex1.mask("nope")


def test_mask_range_is_inclusive(ex1):
    assert as_mask(ex1, 0) == 0
    assert as_mask(ex1, ex1.full_mask) == 0b111
    with pytest.raises(InputError, match="state mask 8 is out of range for 3 states"):
        as_mask(ex1, 8)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda a: sharp_reachable(a, 1, 1 << 7), "out of range"),
        (lambda a: sharp_reachable(a, 1 << 5, 4), "out of range"),
        (lambda a: build_extended_support_graph(a, seeds=[1 << 8]), "out of range"),
        (lambda a: support_step(a, 1 << 20, "a"), "out of range"),
        (lambda a: sharp_power(a, -1, "a"), "out of range"),
        (lambda a: chain_analysis(a, 1 << 20, "a"), "out of range"),
        (lambda a: linked_graph_of_word(a, -1, "a"), "out of range"),
        (lambda a: is_sharp_reduction(a, 1, 1 << 20, "a"), "out of range"),
        (lambda a: replay_steps(a, 1 << 9, []), "out of range"),
        (lambda a: rec_from(-1, linked_graph_of_word(a, 1, "a")), "not in the origin"),
        (lambda a: ExtendedSupportGraph(a, DEFAULT_BUDGETS, [1 << 8]), "out of range"),
        (lambda a: ExtendedSupportGraph(a, DEFAULT_BUDGETS, [-1]), "out of range"),
        (lambda a: ExtendedSupportGraph(a, DEFAULT_BUDGETS, [["1"]]), "unknown state"),
        (lambda a: ExtendedSupportGraph(a, DEFAULT_BUDGETS, [0]), "empty seed support"),
        (lambda a: ExtendedSupportGraph(a, DEFAULT_BUDGETS, []).grow([1 << 9]), "out of range"),
        (lambda a: reachable_supports(a, 1 << 9, 100), "out of range"),
        (lambda a: SupportSequence((), ()), "nonempty cycle"),
    ],
    ids=[
        "sharp_reachable-target",
        "sharp_reachable-source",
        "extended-graph-seed",
        "support_step",
        "sharp_power",
        "chain_analysis",
        "linked_graph_of_word",
        "is_sharp_reduction",
        "replay_steps",
        "rec_from",
        "extended-graph-class-seed-high",
        "extended-graph-class-seed-negative",
        "extended-graph-class-seed-names",
        "extended-graph-class-seed-empty",
        "extended-graph-grow-seed",
        "reachable_supports",
        "support-sequence-empty-cycle",
    ],
)
def test_out_of_range_masks_are_input_errors(ex1, call, match):
    with pytest.raises(InputError, match=match):
        call(ex1)


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
        lambda a: is_chain_recurrent(a, {"1": "x"}, "a"),
        lambda a: is_chain_recurrent(a, {"1": "1/0"}, "a"),
        lambda a: Automaton(["q"], ["a"], [[["x"]]], [1]),
        lambda a: Automaton(["q"], ["a"], [[["1/0"]]], [1]),
        lambda a: Automaton(["q"], ["a"], [[[None]]], [1]),
        lambda a: Automaton(["q"], ["a"], [[[1]]], ["x"]),
    ],
    ids=[
        "eps-text",
        "eps-zero-denominator",
        "mix-text",
        "horizon-eps-text",
        "distribution-text-by-name",
        "distribution-text-by-index",
        "start-distribution-text",
        "start-distribution-zero-denominator",
        "transition-text",
        "transition-zero-denominator",
        "transition-none",
        "initial-text",
    ],
)
def test_malformed_numbers_are_input_errors(ex2, call):
    with pytest.raises(InputError, match="not a number"):
        call(ex2)

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
from qpa.qualitative import decide
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
    with pytest.raises(InputError) as e:
        Automaton(ex1.states, ex1.alphabet, mats, ex1.initial)
    assert str(e.value) == "row sum != 1 for state s, letter a"
    assert validate_automaton(ex1) == []


def test_validate_catches_bad_initial(ex1):
    with pytest.raises(InputError) as e:
        Automaton(ex1.states, ex1.alphabet, ex1.matrices, [Fraction(1, 2), 0, 0])
    assert str(e.value) == "initial distribution does not sum to 1"


def test_validate_acceptance_states(ex1):
    with pytest.raises(InputError) as e:
        ex1.with_acceptance(Acceptance.buchi({"zz"}))
    assert str(e.value) == "acceptance refers to unknown state zz"
    with pytest.raises(InputError) as e:
        ex1.with_acceptance(Acceptance.parity({"s": 1}))
    assert str(e.value) == "missing parity priority for state t; missing parity priority for state u"
    with pytest.raises(InputError, match="^acceptance refers to unknown state zz$"):
        Automaton(ex1.states, ex1.alphabet, ex1.matrices, ex1.initial, Acceptance.reach({"zz"}))


def test_construction_reports_every_problem_in_order():
    with pytest.raises(InputError) as e:
        Automaton(
            ["p", "q", "p"],
            ["a", "b"],
            [[[-1, 2, 0], [0, 1, 0], [0, 0, Fraction(1, 3)]], [[1, 0], [0, 1]]],
            ["1/2", "-1/2", "0"],
            Acceptance.cobuchi({"z"}),
        )
    assert str(e.value).split("; ") == [
        "duplicate state names",
        "negative probability for state p, letter a",
        "row sum != 1 for state p, letter a",
        "matrix for letter b is not 3x3",
        "negative initial probability",
        "initial distribution does not sum to 1",
        "acceptance refers to unknown state z",
    ]


# Tables that decide answered on, wrongly, while nothing checked them at
# construction: the constructor now refuses each one.


def test_rows_summing_to_three_quarters_are_refused():
    # p loses a quarter of its mass on a; unchecked, positive Buchi on {q}
    # answers "yes" with a witness of probability 1/2
    with pytest.raises(InputError) as e:
        Automaton(
            "pqr",
            "a",
            [[[0, Fraction(1, 2), Fraction(1, 4)], [0, 1, 0], [0, 0, 1]]],
            [1, 0, 0],
            Acceptance.buchi({"q"}),
        )
    assert str(e.value) == "row sum != 1 for state p, letter a"


@pytest.mark.parametrize("prios", [{"p": 1.5, "q": 0}, {"p": 1, "q": -2}])
def test_fractional_and_negative_priorities_are_refused(prios):
    # unchecked, both get an almost "yes" on this table
    with pytest.raises(InputError, match="priority on state"):
        Automaton(
            "pq",
            "a",
            [[[Fraction(1, 2), Fraction(1, 2)], [0, 1]]],
            [1, 0],
            Acceptance.parity(prios),
        )


def test_rows_summing_to_two_are_refused():
    # unchecked, this table makes chain_analysis raise "singular linear system"
    with pytest.raises(InputError) as e:
        Automaton("pq", "a", [[[1, 1], [0, 1]]], [1, 0], Acceptance.buchi({"q"}))
    assert str(e.value) == "row sum != 1 for state p, letter a"


@pytest.mark.parametrize("bad", ["x", 1.5, -1, True])
def test_parity_priorities_are_nonnegative_ints(ex1, bad):
    with pytest.raises(InputError, match="priority on state s"):
        decide(ex1.with_acceptance(Acceptance.parity({"s": bad, "t": 1, "u": 0})), "almost", "simple")


def test_with_acceptance_shares_the_tables(ex2):
    assert ex2.relation(0)
    b = ex2.with_acceptance(Acceptance.buchi(["4"]))
    assert b == Automaton(ex2.states, ex2.alphabet, ex2.matrices, ex2.initial, b.acceptance)
    assert b.matrices is ex2.matrices and b.scaled_matrices is ex2.scaled_matrices
    assert b._relations is ex2._relations and b._gate is ex2._gate
    assert ex2.acceptance is None and b.with_acceptance(None) == ex2


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

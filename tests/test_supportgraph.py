"""Support graphs, extended closure, #-reachability, and limit procedures."""

import random
from fractions import Fraction

import pytest

from conftest import random_automaton
from qpa.core import DEFAULT_BUDGETS, Acceptance, Budgets
from qpa.errors import BudgetExceededError, InputError
from qpa.formats import parse_automaton
from qpa.semantics import propagate
from qpa.supportgraph import (
    ExtendedSupportGraph,
    build_extended_support_graph,
    build_support_graph,
    decide_limit_parity_structsimple,
    decide_limit_reach_structsimple,
    is_sharp_acyclic,
    replay_steps,
    sharp_reachable,
    synthesize_limit_word,
)
import oracles as O

DET_SWAP_TEXT = """\
states: p q
alphabet: a b
init: p=1
trans: p a q 1
trans: q a p 1
trans: p b p 1
trans: q b q 1
"""

DET_SINK_TEXT = """\
states: p q
alphabet: a
init: p=1
trans: p a q 1
trans: q a q 1
"""

DET_SPLIT_TEXT = """\
states: p q
alphabet: a
init: p=1
trans: p a p 1
trans: q a q 1
"""


# -- plain support graph -----------------------------------------------------


def test_plain_nodes_ex2(ex2):
    g = build_support_graph(ex2)
    labels = sorted("{" + ",".join(ex2.names(s)) + "}" for s in g.nodes)
    assert labels == [
        "{1,2,3,4}",
        "{1,2,4}",
        "{1,3,4}",
        "{1,3}",
        "{1,4}",
        "{1}",
        "{2,3,4}",
        "{2,4}",
        "{2}",
        "{3,4}",
        "{3}",
    ]
    # {4} alone is never a plain-graph node; only bordered reads expose it
    assert ex2.mask("4") not in g.nodes


def test_plain_edges_ex2(ex2):
    g = build_support_graph(ex2)
    named = sorted(
        (",".join(ex2.names(s)), ex2.alphabet[k] + ("#" if sharp else ""), ",".join(ex2.names(t)))
        for (s, k, sharp, t) in g.edges
    )
    assert ("1", "a", "1,3") in named
    assert ("1,3", "a#", "3") in named
    assert ("3", "b", "1,4") in named
    assert ("1,2,3,4", "a#", "2,3,4") in named
    assert len(named) == 32
    # every sharp edge sits next to a plain self-loop on the same letter
    for s, k, sharp, t in g.edges:
        if sharp:
            assert (s, k, False, s) in g.edges


def test_plain_sharp_edges_ex1_full(ex1):
    g = build_support_graph(ex1, full=True)
    sharp = sorted(
        (",".join(ex1.names(s)), ex1.alphabet[k], ",".join(ex1.names(t)))
        for (s, k, is_sharp, t) in g.edges
        if is_sharp
    )
    assert sharp == [
        ("s", "b", "s"),
        ("s,t,u", "a", "s,t,u"),
        ("s,t,u", "b", "s,t,u"),
        ("t,u", "b", "t,u"),
    ]
    assert len(g.nodes) == 7


def test_plain_graph_agrees_with_oracle():
    rng = random.Random(11)
    for _ in range(40):
        a = random_automaton(rng, rng.randrange(2, 5), 2)
        g = build_support_graph(a)
        nodes, edges = O.osupport_graph(a, a.initial_support)
        assert set(g.nodes) == nodes
        assert set(g.edges) == edges


def test_plain_successors_and_seeds(ex2):
    g = build_support_graph(ex2, seeds=["4"])
    assert ex2.mask("4") in g.nodes
    succ = g.successors(ex2.mask("4"))
    assert (0, False, ex2.mask("4")) in succ
    assert (0, True, ex2.mask("4")) in succ
    with pytest.raises(InputError):
        build_support_graph(ex2, seeds=[0])


def test_plain_subset_budget(ex2):
    small = Budgets(subset=3)
    with pytest.raises(BudgetExceededError):
        build_support_graph(ex2, budgets=small)


def test_sharp_acyclic_pins(ex1, ex2, exlg):
    assert not is_sharp_acyclic(ex1)
    assert not is_sharp_acyclic(ex2)
    assert not is_sharp_acyclic(exlg)
    ident = parse_automaton(
        "states: p q\nalphabet: a\ninit: p=1\ntrans: p a p 1\ntrans: q a q 1\n"
    )
    assert is_sharp_acyclic(ident)
    swap = parse_automaton(DET_SWAP_TEXT)
    # {p} -> {q} -> {p} under the swap letter is a two-support cycle
    assert not is_sharp_acyclic(swap)


# -- extended support graph ----------------------------------------------------


def test_extended_nodes_deterministic_match_plain():
    det = parse_automaton(DET_SWAP_TEXT)
    ge = build_extended_support_graph(det)
    gp = build_support_graph(det)
    assert set(ge.nodes) == set(gp.nodes)


def test_extended_ex1_all_states_funnel_to_u(ex1):
    g = build_extended_support_graph(ex1, full=True)
    qmask = ex1.full_mask
    umask = ex1.mask("u")
    want = 0
    for x in range(ex1.n):
        want |= umask << (x * ex1.n)
    hits = [
        eid
        for eid in range(g.edge_count)
        if g.edge_parts(eid) == (qmask, want, umask)
    ]
    assert hits
    steps = g.witness_steps(hits[0])
    assert steps is not None
    assert replay_steps(ex1, qmask, steps) == umask


def test_extended_ex2_reaches_four(ex2):
    g = build_extended_support_graph(ex2)
    assert ex2.mask("4") in g.nodes
    reach = g.reachable_with_steps(ex2.initial_support)
    assert ex2.mask("4") in reach
    assert reach[ex2.mask("4")] is not None


def test_extended_build_is_deterministic(ex2):
    g1 = build_extended_support_graph(ex2)
    g2 = build_extended_support_graph(ex2)
    assert g1.edges == g2.edges
    assert g1.nodes == g2.nodes
    assert g1.dot() == g2.dot()


def test_extended_every_edge_replays_as_one_bordered_read():
    rng = random.Random(23)
    for _ in range(25):
        a = random_automaton(rng, rng.randrange(2, 4), 2)
        g = ExtendedSupportGraph(a, DEFAULT_BUDGETS, list(range(1, 1 << a.n)))
        for eid in range(g.edge_count):
            src, _, dst = g.edge_parts(eid)
            assert g.edge_is_full(eid)
            steps = g.witness_steps(eid)
            assert steps is not None and len(steps) == 1
            word, _, cut = steps[0]
            assert cut == len(word)
            assert replay_steps(a, src, steps) == dst


def test_extended_matches_bordered_word_enumeration():
    rng = random.Random(31)
    for _ in range(6):
        a = random_automaton(rng, rng.randrange(2, 4), 2)
        g = ExtendedSupportGraph(a, DEFAULT_BUDGETS, list(range(1, 1 << a.n)))
        dests_from: dict[int, set[int]] = {}
        word_of: dict[int, tuple[int, ...]] = {}
        for eid in range(g.edge_count):
            src, _, dst = g.edge_parts(eid)
            dests_from.setdefault(src, set()).add(dst)
            word_of[eid] = g.witness_steps(eid)[0][0]
        for c in range(1, 1 << a.n):
            cset = frozenset(i for i in range(a.n) if c >> i & 1)
            for word in O.all_words(2, 1, 4):
                for dset in O.osharp_dests(a, cset, word):
                    d = sum(1 << i for i in dset)
                    assert d in dests_from[c]
        for eid, word in word_of.items():
            if len(word) > 5:
                continue
            src, _, dst = g.edge_parts(eid)
            sset = frozenset(i for i in range(a.n) if src >> i & 1)
            dset = frozenset(i for i in range(a.n) if dst >> i & 1)
            assert dset in O.osharp_dests(a, sset, word)


def test_extended_budget_gate(hrd):
    with pytest.raises(BudgetExceededError, match="at most 6 states"):
        build_extended_support_graph(hrd)
    with pytest.raises(BudgetExceededError):
        build_extended_support_graph(hrd, full=True)


def test_extended_edge_cap(ex2):
    with pytest.raises(BudgetExceededError, match="edges"):
        build_extended_support_graph(ex2, budgets=Budgets(path_cap=3))


# -- #-reachability -------------------------------------------------------------


def test_sharp_reachable_ex2_pin(ex2):
    v = sharp_reachable(ex2, "1", "4")
    assert v.answer == "yes"
    steps = v.witness["steps"]
    assert steps == [
        {
            "word": ["a", "a", "b", "a", "a", "b"],
            "borders": [[1, 2], [4, 5], [3, 6]],
            "cut": 6,
        }
    ]


def test_sharp_reachable_witness_replays_through_oracle(ex2):
    # independent replay: oracle layered graphs, same border order, last boundary
    v = sharp_reachable(ex2, "1", "4")
    (step,) = v.witness["steps"]
    word = tuple(ex2.letter_index[x] for x in step["word"])
    org = frozenset([ex2.state_index["1"]])
    layers = O.olayers(ex2, org, word)
    for border in step["borders"]:
        layers = O.oapply_border(org, layers, tuple(border))
    final = {j for _, j in layers[step["cut"] - 1]}
    assert final == {ex2.state_index["4"]}


def test_sharp_reachable_trivial_and_negative(ex2):
    assert sharp_reachable(ex2, "1", "1").witness == {"steps": []}
    v = sharp_reachable(ex2, "2", "1")
    assert v.answer == "no"
    with pytest.raises(InputError):
        sharp_reachable(ex2, "", "1")


def test_sharp_reachable_accepts_prebuilt_graph(ex2):
    g = build_extended_support_graph(ex2)
    v = sharp_reachable(ex2, "1", "4", graph=g)
    assert v.answer == "yes"


# -- limit procedures -----------------------------------------------------------


def test_synthesize_short_target(ex2):
    assert synthesize_limit_word(ex2, "3", Fraction(1, 10)) == ("a", "a", "a", "a")


@pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 100)])
def test_synthesize_hits_threshold_exactly(ex2, eps):
    word = synthesize_limit_word(ex2, "4", eps)
    dist = propagate(ex2, ex2.initial, ex2.word("".join(word)))
    assert dist.get("4", Fraction(0)) >= 1 - eps


def test_synthesize_edge_cases(ex2):
    assert synthesize_limit_word(ex2, "1 2 3 4", Fraction(1, 10)) == ()
    with pytest.raises(InputError, match="eps"):
        synthesize_limit_word(ex2, "2", Fraction(0))
    with pytest.raises(InputError, match="eps"):
        synthesize_limit_word(ex2, "2", Fraction(1))
    with pytest.raises(InputError, match="empty target"):
        synthesize_limit_word(ex2, "", Fraction(1, 10))
    split = parse_automaton(DET_SPLIT_TEXT)
    with pytest.raises(InputError, match="no subset of the target"):
        synthesize_limit_word(split, "q", Fraction(1, 10))


def test_synthesize_word_cap(ex2):
    small = Budgets(word_cap=4)
    with pytest.raises(BudgetExceededError):
        synthesize_limit_word(ex2, "4", Fraction(1, 10), budgets=small)


def test_limit_reach_decisions(ex1, ex2):
    v = decide_limit_reach_structsimple(ex2.with_acceptance(Acceptance.reach(["4"])))
    assert v.answer == "yes"
    assert v.witness["support"] == ["4"]
    with pytest.raises(InputError, match="structurally simple"):
        decide_limit_reach_structsimple(ex1.with_acceptance(Acceptance.reach(["u"])))
    with pytest.raises(InputError, match="reach acceptance"):
        decide_limit_reach_structsimple(ex2)
    split = parse_automaton(DET_SPLIT_TEXT)
    v2 = decide_limit_reach_structsimple(split.with_acceptance(Acceptance.reach(["q"])))
    assert v2.answer == "no"


def test_limit_parity_decisions(ex2):
    v = decide_limit_parity_structsimple(ex2.with_acceptance(Acceptance.buchi(["4"])))
    assert v.answer == "yes"
    assert v.witness["support"] == ["4"]
    assert v.witness["period"] == ["a"]
    p = Fraction(v.witness["probability"])
    assert p >= Fraction(9, 10)
    sink = parse_automaton(DET_SINK_TEXT)
    v2 = decide_limit_parity_structsimple(sink.with_acceptance(Acceptance.buchi(["p"])))
    assert v2.answer == "no"


def test_limit_parity_reports_why_synthesis_failed(ex2):
    b = ex2.with_acceptance(Acceptance.buchi(["4"]))
    v = decide_limit_parity_structsimple(b, Budgets(pump_doublings=0))
    assert v.answer == "yes"
    assert v.witness["support"] == ["4"]
    assert v.witness["prefix"] is None and v.witness["probability"] is None
    assert v.witness["prefix_error"].startswith("BudgetExceededError: pumping budget exhausted")
    assert "prefix_error" not in decide_limit_parity_structsimple(b).witness


# -- rendering -------------------------------------------------------------------


def test_dot_outputs_are_byte_stable(ex2):
    plain = build_support_graph(ex2).dot()
    assert plain == build_support_graph(ex2).dot()
    assert plain.startswith("digraph support {")
    assert '"{4}"' not in plain
    ext = build_extended_support_graph(ex2).dot()
    assert ext == build_extended_support_graph(ex2).dot()
    assert ext.startswith("digraph extended {")
    assert '"{4}"' in ext

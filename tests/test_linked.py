"""Linked graphs: layers, compaction, rec, and border actions."""
from __future__ import annotations

import random

import pytest

from qpa.core import Automaton
from qpa.errors import InputError
from qpa.graphs import compose, restrict
from qpa.linked import (
    LinkedGraph,
    border_action,
    border_chain,
    borders,
    compaction,
    concat,
    is_border,
    layer_pairs,
    layer_sources,
    linked_graph_of_word,
    rec,
    rec_from,
)
from qpa.semantics import word_relation

from conftest import random_automaton
from oracles import oapply_border, oborders, olayers


def layer_of_pairs(pairs, n: int) -> tuple[int, ...]:
    """The bipartite layer, as rows, with the edges (i, j) given as index pairs."""
    rows = [0] * n
    for i, j in pairs:
        rows[i] |= 1 << j
    return tuple(rows)


def to_sets(lg: LinkedGraph) -> tuple[frozenset, ...]:
    return tuple(lg.pairs(i) for i in range(1, len(lg) + 1))


def from_sets(n: int, layers) -> LinkedGraph:
    return LinkedGraph(n, tuple(layer_of_pairs(layer, n) for layer in layers))


def pair_mask(a: Automaton, pairs) -> int:
    idx = {name: i for i, name in enumerate(a.states)}
    return layer_of_pairs([(idx[s], idx[t]) for s, t in pairs], a.n)


def random_word(rng: random.Random, a: Automaton, length: int) -> tuple[int, ...]:
    return tuple(rng.randrange(len(a.alphabet)) for _ in range(length))


# -- construction -----------------------------------------------------------


def test_layers_ex2_aa(ex2):
    lg = linked_graph_of_word(ex2, "1", "aa")
    assert to_sets(lg) == (
        frozenset({(0, 0), (0, 2)}),
        frozenset({(0, 0), (0, 2), (2, 2)}),
    )
    assert lg.org == ex2.mask("1")
    assert lg.boundary(1) == ex2.mask("1 3")
    assert lg.dest == ex2.mask("1 3")


def test_single_letter_layer(ex1):
    lg = linked_graph_of_word(ex1, "s t", "a")
    # letter relation restricted to the starting support
    assert to_sets(lg) == (frozenset({(0, 0), (0, 1), (1, 0), (1, 2)}),)


def test_layer_sources_only_live_states(exlg):
    lg = linked_graph_of_word(exlg, exlg.full_mask, "aba")
    # boundary 2 is {1,2}, so state 3 carries no edge in layer 3
    assert lg.boundary(2) == exlg.mask("1 2")
    assert lg.pairs(3) == frozenset({(0, 0), (0, 2), (1, 1)})


def test_layers_match_oracle_random():
    rng = random.Random(4021)
    for _ in range(40):
        a = random_automaton(rng, rng.randint(2, 4), dirac_initial=False)
        word = random_word(rng, a, rng.randint(1, 5))
        start = rng.randrange(1, 1 << a.n)
        lg = linked_graph_of_word(a, start, word)
        got = to_sets(lg)
        want = olayers(a, frozenset(i for i in range(a.n) if start >> i & 1), word)
        assert got == want


def test_construction_errors(ex2):
    with pytest.raises(InputError):
        linked_graph_of_word(ex2, 0, "a")
    with pytest.raises(InputError):
        linked_graph_of_word(ex2, "1", "")
    with pytest.raises(InputError):
        LinkedGraph(2, ())
    with pytest.raises(InputError):
        LinkedGraph(2, ((0, 0),))
    # dest of layer 1 is {0} but layer 2 starts at {1}
    broken = (layer_of_pairs([(0, 0)], 2), layer_of_pairs([(1, 1)], 2))
    with pytest.raises(InputError):
        LinkedGraph(2, broken)


def test_layers_must_be_rows_on_n_states():
    ok = layer_of_pairs([(0, 1)], 2)
    assert LinkedGraph(2, (ok,)).dest == 0b10
    for bad in ((0b10,), (0b10, 0, 0), ()):
        with pytest.raises(InputError, match="rows on 2 states"):
            LinkedGraph(2, (bad,))
    with pytest.raises(InputError, match="rows on 2 states"):
        LinkedGraph(2, (ok, (0, 0b01, 0)))
    for row in (0b100, 0b111, -1):
        with pytest.raises(InputError, match="state index >= 2"):
            LinkedGraph(2, ((row, 0),))
    with pytest.raises(InputError, match="state index >= 2"):
        LinkedGraph(2, (ok, (0, 0b101)))


# -- compaction -------------------------------------------------------------


def test_compaction_single_layer(ex2):
    lg = linked_graph_of_word(ex2, "1 3", "b")
    assert compaction(lg) == lg.layers[0]


def test_compaction_exlg(exlg):
    lg = linked_graph_of_word(exlg, exlg.full_mask, "aba")
    want = pair_mask(
        exlg,
        [("1", "1"), ("1", "2"), ("1", "3"), ("2", "2"), ("3", "1"), ("3", "3")],
    )
    assert compaction(lg) == want


def test_compaction_morphism_random():
    rng = random.Random(913)
    for _ in range(40):
        a = random_automaton(rng, rng.randint(2, 4), dirac_initial=False)
        start = rng.randrange(1, 1 << a.n)
        w1 = random_word(rng, a, rng.randint(1, 4))
        lg1 = linked_graph_of_word(a, start, w1)
        w2 = random_word(rng, a, rng.randint(1, 4))
        lg2 = linked_graph_of_word(a, lg1.dest, w2)
        whole = concat(lg1, lg2)
        assert to_sets(whole) == to_sets(linked_graph_of_word(a, start, w1 + w2))
        assert compaction(whole) == compose(compaction(lg1), compaction(lg2))


def test_compaction_is_the_restricted_word_relation():
    rng = random.Random(3107)
    for _ in range(40):
        a = random_automaton(rng, rng.randint(2, 5), dirac_initial=False)
        start = rng.randrange(1, 1 << a.n)
        word = random_word(rng, a, rng.randint(1, 6))
        lg = linked_graph_of_word(a, start, word)
        assert compaction(lg) == restrict(word_relation(a, word), start)


def test_concat_requires_matching_boundary(ex2):
    lg1 = linked_graph_of_word(ex2, "1", "b")
    lg2 = linked_graph_of_word(ex2, "1", "a")
    with pytest.raises(InputError):
        concat(lg1, lg2)


# -- rec --------------------------------------------------------------------


def test_rec_exlg(exlg):
    lg = linked_graph_of_word(exlg, exlg.full_mask, "aba")
    assert rec(lg) == exlg.mask("2")
    for s in range(3):
        assert rec_from(s, lg) == exlg.mask("2")


def test_rec_identity():
    a = Automaton(
        ["p", "q"],
        ["i"],
        [((1, 0), (0, 1))],
        [1, 0],
    )
    lg = linked_graph_of_word(a, a.full_mask, "ii")
    assert rec(lg) == a.full_mask


def test_rec_ex1_ab(ex1):
    lg = linked_graph_of_word(ex1, ex1.full_mask, "ab")
    assert rec(lg) == ex1.mask("u")
    assert rec_from(0, lg) == ex1.mask("u")


def test_rec_precondition(ex2):
    # {1}.a = {1,3} is not inside {1}
    lg = linked_graph_of_word(ex2, "1", "a")
    with pytest.raises(InputError):
        rec(lg)
    with pytest.raises(InputError):
        rec_from(0, lg)
    ok = linked_graph_of_word(ex2, "1 3", "a")
    with pytest.raises(InputError):
        rec_from(1, ok)  # state 2 is outside the origin


# -- borders ----------------------------------------------------------------


def test_borders_match_oracle_random():
    rng = random.Random(5711)
    for _ in range(40):
        a = random_automaton(rng, rng.randint(2, 4), dirac_initial=False)
        word = random_word(rng, a, rng.randint(2, 6))
        start = rng.randrange(1, 1 << a.n)
        lg = linked_graph_of_word(a, start, word)
        org = frozenset(i for i in range(a.n) if start >> i & 1)
        assert borders(lg) == oborders(org, to_sets(lg))
        for b in borders(lg):
            assert is_border(lg, b)


def test_border_errors(exlg):
    lg = linked_graph_of_word(exlg, exlg.full_mask, "aba")
    with pytest.raises(InputError):
        border_action(lg, (0, 2))
    with pytest.raises(InputError):
        border_action(lg, (2, 2))
    with pytest.raises(InputError):
        border_action(lg, (1, 4))
    # boundary 2 = {1,2} is not inside boundary 1 ... pick the reverse: (2,3)
    assert lg.boundary(3) & ~lg.boundary(2)
    assert not is_border(lg, (2, 3))
    with pytest.raises(InputError):
        border_action(lg, (2, 3))


def test_border_action_exlg(exlg):
    lg = linked_graph_of_word(exlg, exlg.full_mask, "aba")
    assert is_border(lg, (1, 2))
    out = border_action(lg, (1, 2))
    # every layer-1 edge is rewired into the recurrent part {2} of the
    # b-segment; the 1->1 edge disappears and 1->2 appears
    assert out.pairs(1) == frozenset({(0, 1), (1, 1), (2, 1)})
    assert out.pairs(2) == frozenset({(1, 1)})
    assert out.pairs(3) == frozenset({(1, 1)})
    assert out.dest == exlg.mask("2")


def test_border_identity_segment():
    a = Automaton(
        ["p", "q"],
        ["i", "j"],
        [((1, 0), (0, 1)), ((0, 1), (1, 0))],
        [1, 0],
    )
    lg = linked_graph_of_word(a, a.full_mask, "jii")
    out = border_action(lg, (1, 3))
    assert out == lg


def test_border_action_ex2_chain(ex2):
    lg = linked_graph_of_word(ex2, "1", "aaabaab")
    assert lg.dest == ex2.mask("1 2 4")
    after = border_chain(lg, [(1, 2), (5, 6), (4, 7)])
    assert after.dest == ex2.mask("4")
    assert len(after) == len(lg)
    assert after.org == lg.org
    # the intermediate graphs stay valid borders in sequence
    step1 = border_action(lg, (1, 2))
    assert step1.boundary(1) == ex2.mask("3")
    step2 = border_action(step1, (5, 6))
    assert step2.boundary(5) == ex2.mask("3 4")
    assert is_border(step2, (4, 7))


def test_border_action_matches_oracle_random():
    rng = random.Random(2203)
    checked = 0
    for _ in range(60):
        a = random_automaton(rng, rng.randint(2, 4), dirac_initial=False)
        word = random_word(rng, a, rng.randint(2, 6))
        start = rng.randrange(1, 1 << a.n)
        lg = linked_graph_of_word(a, start, word)
        org = frozenset(i for i in range(a.n) if start >> i & 1)
        for b in borders(lg):
            got = border_action(lg, b)
            want = oapply_border(org, to_sets(lg), b)
            assert to_sets(got) == want
            checked += 1
    assert checked > 40


def test_border_never_enlarges_random():
    rng = random.Random(887)
    for _ in range(40):
        a = random_automaton(rng, rng.randint(2, 4), dirac_initial=False)
        word = random_word(rng, a, rng.randint(2, 6))
        start = rng.randrange(1, 1 << a.n)
        lg = linked_graph_of_word(a, start, word)
        for n1, n2 in borders(lg):
            out = border_action(lg, (n1, n2))
            assert len(out) == len(lg)
            assert out.org == lg.org
            seg = LinkedGraph(lg.n, lg.layers[n1:n2])
            # rewired layer lands inside the recurrent part of the segment
            rewired = out.layers[n1 - 1]
            assert all(row & ~rec(seg) == 0 for row in rewired)
            assert layer_sources(rewired) == lg.boundary(n1 - 1)
            for idx in range(len(lg.layers)):
                if idx == n1 - 1:
                    continue
                assert all(r & ~s == 0 for r, s in zip(out.layers[idx], lg.layers[idx]))


def test_layer_pairs_roundtrip():
    rng = random.Random(77)
    for _ in range(20):
        n = rng.randint(1, 5)
        layer = tuple(rng.randrange(1 << n) for _ in range(n))
        assert layer_of_pairs(layer_pairs(layer), n) == layer

"""Support graphs, extended closure, #-reachability, and limit procedures."""

import random
import time
from collections import deque
from fractions import Fraction

import pytest

from conftest import random_automaton
from qpa.core import DEFAULT_BUDGETS, Acceptance, Budgets
from qpa.errors import BudgetExceededError, InputError
from qpa.formats import parse_automaton
from qpa.graphs import compose, image, restrict
from qpa.linked import LinkedGraph, layer_sources, rec_from
from qpa.qualitative import decide
from qpa.semantics import propagate, word_relation
from qpa.supportgraph import (
    ExtendedSupportGraph,
    build_extended_support_graph,
    build_support_graph,
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


def _has_two_support_cycle(edges) -> bool:
    """Some edge s -> t with s != t whose source is reachable back from t."""
    succ: dict[int, set[int]] = {}
    for s, _, _, t in edges:
        succ.setdefault(s, set()).add(t)
    for s, _, _, t in edges:
        if s == t:
            continue
        seen, stack = {t}, [t]
        while stack:
            for v in succ.get(stack.pop(), ()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if s in seen:
            return True
    return False


def test_sharp_acyclic_agrees_with_oracle():
    rng = random.Random(59)
    acyclic = 0
    for _ in range(80):
        a = random_automaton(rng, rng.randint(1, 4), rng.randint(1, 3))
        edges = set()
        for s in range(1, 1 << a.n):
            edges |= O.osupport_graph(a, s)[1]
        assert is_sharp_acyclic(a) == (not _has_two_support_cycle(edges))
        acyclic += is_sharp_acyclic(a)
    # both answers occur among the draws
    assert 0 < acyclic < 80


# -- extended support graph ----------------------------------------------------


def test_extended_nodes_deterministic_match_plain():
    det = parse_automaton(DET_SWAP_TEXT)
    ge = build_extended_support_graph(det)
    gp = build_support_graph(det)
    assert set(ge.nodes) == set(gp.nodes)


def test_extended_ex1_all_states_funnel_to_u(ex1):
    g = ExtendedSupportGraph(ex1, DEFAULT_BUDGETS, range(1, 1 << ex1.n))
    qmask = ex1.full_mask
    umask = ex1.mask("u")
    want = (umask,) * ex1.n
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
            steps = g.witness_steps(eid)
            assert len(steps) == 1
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
        ExtendedSupportGraph(hrd, DEFAULT_BUDGETS, range(1, 1 << hrd.n))


def test_extended_edge_cap(ex2):
    with pytest.raises(BudgetExceededError, match="edges"):
        build_extended_support_graph(ex2, budgets=Budgets(path_cap=3))


class _ReferenceClosure:
    """The extended closure as the pairwise kernel.

    Every chained pair is combined at the pop of each of its two edges:
    composed, and bordered through the second edge when it is a border
    segment.  Relations compose through graphs.compose, and a
    segment's funnel is read off linked.rec_from on the segment's
    one-layer graph.  The library multiplies by letters and funnel atoms
    only, so its fixpoint must have the same nodes, keys and edge count.
    Edges are [label, prov, src, dst, plain].
    """

    def __init__(self, a, seeds, track_plain=False, path_cap=DEFAULT_BUDGETS.path_cap):
        self.a, self.n, self.track_plain, self.path_cap = a, a.n, track_plain, path_cap
        self.keys, self.edges, self.funnel = {}, [], []
        self.by_src, self.by_dst, self.nodes = {}, {}, []
        self.pending = deque()
        for s in seeds:
            self.add_node(s)
        while self.pending:
            eid = self.pending.popleft()
            for f in list(self.by_src[self.edges[eid][3]]):
                self.combine(eid, f)
            for e in list(self.by_dst[self.edges[eid][2]]):
                if e != eid:
                    self.combine(e, eid)

    def add_node(self, s):
        if s in self.by_src:
            return
        self.nodes.append(s)
        self.by_src[s], self.by_dst[s] = [], []
        for k in range(len(self.a.alphabet)):
            plain = self.a.relation(k)
            self.add(restrict(plain, s), plain, ("word", k))

    def add(self, label, plain, prov):
        key = (label, plain) if self.track_plain else label
        if key in self.keys:
            return
        if len(self.edges) >= self.path_cap:
            raise BudgetExceededError(f"extended support graph exceeded {self.path_cap} edges")
        eid = len(self.edges)
        self.keys[key] = eid
        src = layer_sources(label)
        dst = image(label, src)
        self.edges.append([label, prov, src, dst, plain])
        self.funnel.append(_funnel_of(self.n, label, src) if dst & ~src == 0 else None)
        self.add_node(dst)
        self.by_src[src].append(eid)
        self.by_dst[dst].append(eid)
        self.pending.append(eid)

    def combine(self, i1, i2):
        e1, e2 = self.edges[i1], self.edges[i2]
        plain = compose(e1[4], e2[4]) if self.track_plain else None
        self.add(compose(e1[0], e2[0]), plain, ("compose", i1, i2))
        if self.funnel[i2] is not None:
            rewired = compose(e1[0], self.funnel[i2])
            self.add(rewired, plain, ("border", i1, i2))

    def key_set(self):
        return {(e[0], e[4]) if self.track_plain else e[0] for e in self.edges}

    def chained_pairs(self):
        """Pairs (e, f) with dst(e) = src(f) at the fixpoint."""
        return sum(len(self.by_dst[s]) * len(self.by_src[s]) for s in self.nodes)


def _key_set(g):
    if g.track_plain:
        return {(g.edge_parts(e)[1], g.edge_plain(e)) for e in range(g.edge_count)}
    return {g.edge_parts(e)[1] for e in range(g.edge_count)}


def _assert_same_closure(a, seeds, track_plain):
    ref = _ReferenceClosure(a, seeds, track_plain)
    g = ExtendedSupportGraph(a, DEFAULT_BUDGETS, seeds, track_plain=track_plain)
    assert set(g.nodes) == set(ref.nodes)
    assert _key_set(g) == ref.key_set()
    assert g.edge_count == len(ref.edges)
    for eid in range(g.edge_count):
        src, _, dst = g.edge_parts(eid)
        steps = g.witness_steps(eid)
        assert replay_steps(a, src, steps) == dst
        assert _oracle_replay(a, src, steps) == dst
        ((word, _, _),) = steps
        assert g.edge_plain(eid) == word_relation(a, word)


# The plain-tracked closure of this automaton has a funnel atom that is the
# first edge added after the pop of an edge into the atom's source: that
# pair is met only in the atom's incoming loop, at the boundary of the
# loop-start skip.
FIRST_AFTER_POP_TEXT = """\
states: q0 q1 q2
alphabet: a b
init: q1=1
trans: q0 a q0 1/2
trans: q0 a q2 1/2
trans: q1 a q1 1
trans: q2 a q2 1
trans: q0 b q0 1/2
trans: q0 b q1 1/2
trans: q1 b q0 1
trans: q2 b q2 1
"""


def test_extended_closure_matches_reference_closure():
    rng = random.Random(1107)
    draws = [random_automaton(rng, rng.randrange(2, 5), 2) for _ in range(12)]
    for a in draws + [parse_automaton(FIRST_AFTER_POP_TEXT)]:
        for track_plain in (False, True):
            _assert_same_closure(a, [a.initial_support], track_plain)
            if a.n < 4:
                _assert_same_closure(a, list(range(1, 1 << a.n)), track_plain)


def test_extended_products_are_per_edge_and_atom(ex2):
    # each edge meets the letters and the distinct funnels at its
    # destination once, far fewer products than chained pairs
    seeds = list(range(1, 1 << ex2.n))
    g = ExtendedSupportGraph(ex2, DEFAULT_BUDGETS, seeds, track_plain=True)
    assert not g.stopped
    funnels = {s: set() for s in g.nodes}
    for eid in range(g.edge_count):
        src, label, dst = g.edge_parts(eid)
        if dst & ~src == 0:
            funnels[src].add((_funnel_of(ex2.n, label, src), g.edge_plain(eid)))
    most = max(len(keys) for keys in funnels.values())
    ref = _ReferenceClosure(ex2, seeds, track_plain=True)
    assert 0 < g.products <= g.edge_count * (len(ex2.alphabet) + most)
    assert g.products < ref.chained_pairs()


def _funnel_of(n, label, src):
    segment = LinkedGraph(n, (label,))
    return tuple(rec_from(y, segment) if src >> y & 1 else 0 for y in range(n))


def test_label_keyed_edge_plain_is_witness_word_relation(ex1, ex2, exlg):
    for a in (ex1, ex2, exlg):
        g = ExtendedSupportGraph(a, DEFAULT_BUDGETS, range(1, 1 << a.n))
        for eid in range(g.edge_count):
            ((word, _, _),) = g.witness_steps(eid)
            assert g.edge_plain(eid) == word_relation(a, word)


def _out_keys(g, s):
    if g.track_plain:
        return {(g.edge_parts(e)[1], g.edge_plain(e)) for e in g.out_edges(s)}
    return {g.edge_parts(e)[1] for e in g.out_edges(s)}


def test_grown_graph_matches_the_one_shot_build():
    # seeds one at a time in a shuffled order: after each grow every
    # registered node already has its one-shot out-edges, and the fixpoint
    # is the one-shot graph up to ids
    rng = random.Random(2407)
    for _ in range(16):
        a = random_automaton(rng, rng.randrange(2, 5), 2)
        seeds = list(range(1, 1 << a.n))
        rng.shuffle(seeds)
        for track_plain in (False, True):
            full = ExtendedSupportGraph(a, DEFAULT_BUDGETS, seeds, track_plain=track_plain)
            g = ExtendedSupportGraph(a, DEFAULT_BUDGETS, (), track_plain=track_plain)
            assert g.edge_count == 0 and not g.nodes
            for s in seeds:
                g.grow([s])
                for t in g.nodes:
                    assert _out_keys(g, t) == _out_keys(full, t)
                # every edge is read after every grow: the edges of earlier
                # grows keep their plain relation, and the new ones get theirs
                for eid in range(g.edge_count):
                    ((word, _, _),) = g.witness_steps(eid)
                    assert g.edge_plain(eid) == word_relation(a, word)
            assert set(g.nodes) == set(full.nodes)
            assert _key_set(g) == _key_set(full)
            assert g.edge_count == full.edge_count
            assert g.products == full.products


def test_a_stopped_closure_is_not_grown(ex2):
    g = build_extended_support_graph(ex2, seeds=["1"], stop=bool)
    with pytest.raises(InputError, match="not grown"):
        g.grow([ex2.mask("2")])


def test_extended_edge_cap_matches_reference(ex2):
    seeds = [ex2.initial_support]
    full = _ReferenceClosure(ex2, seeds).edges
    for cap in (3, len(full) - 1):
        with pytest.raises(BudgetExceededError) as want:
            _ReferenceClosure(ex2, seeds, path_cap=cap)
        with pytest.raises(BudgetExceededError) as got:
            ExtendedSupportGraph(ex2, Budgets(path_cap=cap), seeds)
        assert str(got.value) == str(want.value)
    assert ExtendedSupportGraph(ex2, Budgets(path_cap=len(full)), seeds).edge_count == len(full)


def _first_hit(g, origin, sat):
    """Fewest leading edges of g after which a node satisfying sat is
    #-reachable from origin, or None when not even all of them do it."""
    edges = g.edges

    def hit(k):
        succ = {}
        for src, _, dst in edges[:k]:
            succ.setdefault(src, []).append(dst)
        seen, todo = {origin}, [origin]
        while todo:
            for d in succ.get(todo.pop(), ()):
                if d not in seen:
                    seen.add(d)
                    todo.append(d)
        return any(sat(x) for x in seen)

    if not hit(len(edges)):
        return None
    lo, hi = 0, len(edges)
    while lo < hi:
        mid = (lo + hi) // 2
        if hit(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _assert_stops_at_first_witness(a, seed, sat):
    # a stopped closure is seeded at its origin alone, so it is compared
    # with the origin's own full closure
    seeds = [] if seed is None else [seed]
    origin = a.initial_support if seed is None else seed
    full = ExtendedSupportGraph(a, DEFAULT_BUDGETS, [origin])
    g = build_extended_support_graph(a, seeds=seeds, stop=sat)
    k = g.edge_count
    assert g.edges == full.edges[:k]
    assert g._prov == full._prov[:k]
    want = _first_hit(full, origin, sat)
    assert k == (full.edge_count if want is None else want)
    assert g.stopped == (want is not None) and not full.stopped
    reach = g.reachable_with_steps(origin)
    hits = [t for t in reach if sat(t)]
    # the satisfying support is the last node, and the only one
    assert hits == ([g.nodes[-1]] if want is not None else [])
    for t in hits:
        assert _oracle_replay(a, origin, reach[t]) == t
    capped = build_extended_support_graph(a, seeds=seeds, budgets=Budgets(path_cap=k), stop=sat)
    assert capped.edges == g.edges
    return hits


def test_stop_needs_the_seeded_form_with_one_seed(ex2):
    with pytest.raises(InputError, match="at most one seed"):
        build_extended_support_graph(ex2, seeds=["1", "2"], stop=bool)


def test_stopped_closure_is_a_prefix_of_the_full_closure():
    # the three stop predicates the callers use: node == D from a seed C
    # (sharp_reachable), and node within a target from Supp(alpha)
    # (synthesize_limit_word and limit reach); about half of the targets
    # are drawn among the reachable supports
    import qpa.supportgraph as sg

    rng = random.Random(2091)
    answers = []
    for _ in range(50):
        a = random_automaton(rng, rng.randrange(2, 5), 2)
        c = rng.randrange(1, 1 << a.n)
        nodes = list(build_extended_support_graph(a, seeds=[c]).reachable_with_steps(c))
        d = rng.choice(nodes) if rng.random() < 0.5 else rng.randrange(1, 1 << a.n)
        _assert_stops_at_first_witness(a, c, d.__eq__)
        v = sharp_reachable(a, c, d)
        answers.append(v.answer)
        assert v.answer == ("yes" if d in nodes else "no")
        if v.answer == "yes":
            assert _oracle_replay(a, c, _payload_steps(a, v.witness["steps"])) == d
        nodes = list(build_extended_support_graph(a).reachable_with_steps(a.initial_support))
        t = rng.choice(nodes) if rng.random() < 0.5 else rng.randrange(1, 1 << a.n)
        hits = _assert_stops_at_first_witness(a, None, lambda s: s & ~t == 0)
        names = list(a.names(t))
        v = sg._limit_reach(a.with_acceptance(Acceptance.reach(names)), DEFAULT_BUDGETS)
        answers.append(v.answer)
        assert v.answer == ("yes" if hits else "no")
        if v.answer == "yes":
            got = _oracle_replay(a, a.initial_support, _payload_steps(a, v.witness["steps"]))
            assert got == a.mask(" ".join(v.witness["support"])) and got & ~t == 0
        try:
            word = synthesize_limit_word(a, names, Fraction(1, 10))
        except InputError:
            assert not hits
        except BudgetExceededError:
            assert hits  # pumping may fail to converge off the struct-simple class
        else:
            dist = propagate(a, a.initial, a.word(word))
            assert sum((dist.get(q, Fraction(0)) for q in names), Fraction(0)) >= Fraction(9, 10)
    assert answers.count("yes") >= 60 and answers.count("no") >= 5


# C = {q1} #-reaches only {q0} and {q1} over 4 edges; with Supp(alpha) =
# {q2} as a second seed the closure has 32
SEED_WASTE_TEXT = """\
states: q0 q1 q2
alphabet: a b
init: q2=1
trans: q0 a q1 1
trans: q1 a q1 1
trans: q2 a q0 1/2
trans: q2 a q2 1/2
trans: q0 b q1 1
trans: q1 b q0 1
trans: q2 b q0 1
"""


def test_seeded_search_closes_only_its_seed_graph():
    a = parse_automaton(SEED_WASTE_TEXT)
    c, d = a.mask("q1"), a.mask("q0 q1")
    assert c != a.initial_support
    own = ExtendedSupportGraph(a, DEFAULT_BUDGETS, [c])
    assert build_extended_support_graph(a, seeds=[c]).edge_count >= 3 * own.edge_count
    assert d not in own.reachable_with_steps(c)
    v = sharp_reachable(a, c, d, Budgets(path_cap=own.edge_count))
    assert v.answer == "no"


# -- #-reachability -------------------------------------------------------------


def _oracle_replay(a, start, steps):
    """Fold replay steps through the oracle's layered graphs, each read at
    its cut, from the start mask; returns the final mask."""
    cur = start
    for word, borders, cut in steps:
        org = frozenset(O.obits(cur))
        layers = O.olayers(a, org, word)
        for border in borders:
            layers = O.oapply_border(org, layers, tuple(border))
        cur = sum(1 << i for i in O.oboundaries(org, layers)[cut])
    return cur


def _payload_steps(a, payload):
    return [
        (tuple(a.letter_index[x] for x in st["word"]), st["borders"], st["cut"])
        for st in payload
    ]


def test_sharp_reachable_ex2_pin(ex2):
    # the closure stops once {4} is reachable, where the shortest path has
    # two edges; the full closure also holds the one-edge path
    v = sharp_reachable(ex2, "1", "4")
    assert v.answer == "yes"
    steps = v.witness["steps"]
    assert steps == [
        {"word": ["a", "a"], "borders": [[1, 2]], "cut": 2},
        {"word": ["b", "a", "a", "a", "b"], "borders": [[3, 4], [2, 5]], "cut": 5},
    ]
    assert _oracle_replay(ex2, ex2.mask("1"), _payload_steps(ex2, steps)) == ex2.mask("4")


def test_sharp_reachable_witness_replays_through_oracle(ex2):
    # independent replay: oracle layered graphs, same border order, each
    # step read at its cut and the next one started from there
    v = sharp_reachable(ex2, "1", "4")
    cur = frozenset([ex2.state_index["1"]])
    for step in v.witness["steps"]:
        word = tuple(ex2.letter_index[x] for x in step["word"])
        layers = O.olayers(ex2, cur, word)
        for border in step["borders"]:
            layers = O.oapply_border(cur, layers, tuple(border))
        cur = frozenset(j for _, j in layers[step["cut"] - 1])
    assert cur == {ex2.state_index["4"]}


def test_sharp_reachable_trivial_and_negative(ex2):
    assert sharp_reachable(ex2, "1", "1").witness == {"steps": []}
    v = sharp_reachable(ex2, "2", "1")
    assert v.answer == "no"
    with pytest.raises(InputError):
        sharp_reachable(ex2, "", "1")


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
    # best is the highest probability of a pumped word within the cap: none
    # fits in 4 letters, the 13-letter one falls short of 9/10
    bests = []
    for cap in (4, 20):
        with pytest.raises(BudgetExceededError) as exc:
            synthesize_limit_word(ex2, "4", Fraction(1, 10), budgets=Budgets(word_cap=cap))
        bests.append(exc.value.best)
        assert f"best probability {exc.value.best}" in str(exc.value)
    assert bests[0] == 0 and 0 < bests[1] < Fraction(9, 10)


def _full_pump(step, k):
    # every atom expanded, the cut applied only at the end
    word, borders, cut = step
    atoms = [[x] for x in word]
    for n1, n2 in borders:
        atoms[n1 - 1] = atoms[n1 - 1] + [x for j in range(n1, n2) for x in atoms[j]] * k
    return [x for j in range(cut) for x in atoms[j]]


def test_pump_step_builds_the_cut_prefix(ex2):
    import qpa.supportgraph as sg

    graph = build_extended_support_graph(ex2)
    steps = [st for sts in graph.reachable_with_steps(ex2.initial_support).values() for st in sts]
    assert any(len(b) > 1 for _, b, _ in steps)
    for word, borders, cut in steps:
        for c in range(cut + 1):
            for k in (1, 2, 5):
                step = (word, borders, c)
                want = _full_pump(step, k)
                assert sg._pump_step(step, k) == want
                assert sg._pumped_length(step, k) == len(want)


def test_pumping_cut_zero_steps_stops_growing(monkeypatch, ex2):
    # Steps cut at 0 pump to the empty word, so the probability never
    # rises and the word stops changing at the first doubling; the atoms
    # past the cut grow k-fold per nesting level at each doubling and must
    # never be built.
    import qpa.supportgraph as sg

    real = ExtendedSupportGraph.reachable_with_steps

    def cut_zero(self, start):
        return {t: [(w, b, 0) for w, b, _ in sts] for t, sts in real(self, start).items()}

    graph = build_extended_support_graph(ex2)
    steps = cut_zero(graph, ex2.initial_support)[ex2.mask("4")]
    assert any(b for _, b, _ in steps)
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="stopped growing"):
        sg._pumped_word(ex2, steps, ex2.mask("4"), Fraction(1, 10), DEFAULT_BUDGETS)
    assert time.perf_counter() - t0 < 5
    # synthesis replays its steps before it pumps them
    monkeypatch.setattr(ExtendedSupportGraph, "reachable_with_steps", cut_zero)
    with pytest.raises(RuntimeError, match="witness replay reached"):
        synthesize_limit_word(ex2, "4", Fraction(1, 10))


SLOW_LEAK_TEXT = """\
states: p q
alphabet: a
init: p=1
trans: p a p 999/1000
trans: p a q 1/1000
trans: q a q 1
"""


def test_pumped_word_messages_bound_a_huge_best():
    # after 2050 letters best = 1 - (999/1000)^2050, whose denominator has
    # 6150 digits: past the 4300 that str of an int allows
    import qpa.supportgraph as sg

    a = parse_automaton(SLOW_LEAK_TEXT)
    want = 1 - Fraction(999, 1000) ** 2050
    assert want.denominator > 10**4300
    cases = [
        # one border: k + 2 letters, k doubling until 4098 passes the cap
        (BudgetExceededError, ((0, 0), ((1, 2),), 2)),
        # no border: the word cannot grow, so the second round stops it
        (RuntimeError, ((0,) * 2050, (), 2050)),
    ]
    for error, step in cases:
        with pytest.raises(error) as exc:
            sg._pumped_word(a, [step], a.mask("q"), Fraction(1, 100), Budgets(word_cap=3000))
        message = str(exc.value)
        assert message.endswith(" ~0.871397070030") and len(message) < 80
        if error is BudgetExceededError:
            assert exc.value.best == want


LONG_PUMP_TEXT = """\
states: p q f z
alphabet: a b
init: p=1
trans: p a p 999/1000
trans: p a q 1/1000
trans: q a q 1
trans: f a z 1
trans: z a z 1
trans: p b z 1
trans: q b f 1
trans: f b q 1
trans: z b z 1
"""


def test_witness_probability_past_the_int_digit_limit():
    # the pumped prefix runs to about 4,100 letters, so the exact lasso
    # probability has terms past the 4300 digits that str of an int allows;
    # the witness falls back to _short, and replaying it gives the exact p.
    # The limit is pinned to Python's default, which PYTHONINTMAXSTRDIGITS
    # can change.
    import sys

    import qpa.supportgraph as sg
    from qpa.core import LassoWord
    from qpa.lasso import lasso_acceptance_probability

    a = parse_automaton(LONG_PUMP_TEXT).with_acceptance(Acceptance.buchi(["f"]))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        v = decide(a, "limit", "struct-simple")
    finally:
        sys.set_int_max_str_digits(limit)
    assert v.answer == "yes"
    w = v.witness
    p = lasso_acceptance_probability(a, LassoWord(tuple(w["prefix"]), tuple(w["period"])))
    assert p >= Fraction(9, 10) and p.denominator > 10**4300
    assert w["probability"] == sg._short(p) and w["probability"].startswith("~0.9")
    # below the limit the rendering is exact
    assert sg.probability_text(Fraction(999, 1000) ** 100) == str(Fraction(999, 1000) ** 100)


def test_limit_reach_decisions(ex1, ex2):
    v = decide(ex2.with_acceptance(Acceptance.reach(["4"])), "limit", "struct-simple")
    assert v.answer == "yes"
    assert v.witness["support"] == ["4"]
    with pytest.raises(InputError, match="structurally simple"):
        decide(ex1.with_acceptance(Acceptance.reach(["u"])), "limit", "struct-simple")
    split = parse_automaton(DET_SPLIT_TEXT)
    v2 = decide(split.with_acceptance(Acceptance.reach(["q"])), "limit", "struct-simple")
    assert v2.answer == "no"


def test_limit_parity_decisions(ex2):
    v = decide(ex2.with_acceptance(Acceptance.buchi(["4"])), "limit", "struct-simple")
    assert v.answer == "yes"
    assert v.witness["support"] == ["4"]
    assert v.witness["period"] == ["a"]
    p = Fraction(v.witness["probability"])
    assert p >= Fraction(9, 10)
    sink = parse_automaton(DET_SINK_TEXT)
    v2 = decide(sink.with_acceptance(Acceptance.buchi(["p"])), "limit", "struct-simple")
    assert v2.answer == "no"


def test_limit_parity_reports_why_synthesis_failed(ex2):
    b = ex2.with_acceptance(Acceptance.buchi(["4"]))
    v = decide(b, "limit", "struct-simple", Budgets(word_cap=2))
    assert v.answer == "yes"
    assert v.witness["support"] == ["4"]
    assert v.witness["prefix"] is None and v.witness["probability"] is None
    assert v.witness["prefix_error"].startswith("BudgetExceededError: pumped word length")
    assert "prefix_error" not in decide(b, "limit", "struct-simple").witness


def test_limit_parity_builds_the_seeded_graph_once(monkeypatch, ex2):
    import qpa.supportgraph as sg

    real = sg.build_extended_support_graph
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sg, "build_extended_support_graph", counting)
    v = decide(ex2.with_acceptance(Acceptance.buchi(["4"])), "limit", "struct-simple")
    assert len(calls) == 1
    # the same witness as when synthesis built a second graph of its own
    assert v.witness == {
        "support": ["4"],
        "period": ["a"],
        "prefix": (["a"] * 6 + ["b"]) * 6,
        "probability": "4202122300929/4398046511104",
    }


@pytest.mark.parametrize(
    "query",
    [
        lambda a: sharp_reachable(a, "1", "4"),
        lambda a: decide(a.with_acceptance(Acceptance.reach(["4"])), "limit", "struct-simple"),
        lambda a: decide(a.with_acceptance(Acceptance.buchi(["4"])), "limit", "struct-simple"),
    ],
    ids=["sharp_reachable", "limit_reach", "limit_parity"],
)
def test_yes_witness_steps_are_replayed(monkeypatch, ex2, query):
    # every step read at boundary 0 replays to Supp(alpha) = {1}, not {4}
    real = ExtendedSupportGraph.witness_steps

    def corrupted(self, eid):
        return [(word, borders, 0) for word, borders, _ in real(self, eid)]

    assert query(ex2).answer == "yes"
    monkeypatch.setattr(ExtendedSupportGraph, "witness_steps", corrupted)
    with pytest.raises(RuntimeError, match="witness replay reached"):
        query(ex2)


def test_limit_parity_rechecks_the_period(monkeypatch):
    # b keeps p, a swaps p and q: appending a to the scan's period makes it
    # visit q forever, so under coBuchi {p} the corrupted period accepts
    # with probability 0 from the uniform distribution on {p}
    import qpa.supportgraph as sg

    a = parse_automaton(DET_SWAP_TEXT).with_acceptance(Acceptance.cobuchi(["p"]))
    v = decide(a, "limit", "struct-simple")
    assert (v.answer, v.witness["support"], v.witness["period"]) == ("yes", ["p"], ["b"])
    real = sg.almost_period
    swap = a.letter_index["a"]

    def corrupted(*args):
        node, rho = real(*args)
        return node, rho + (swap,)

    monkeypatch.setattr(sg, "almost_period", corrupted)
    with pytest.raises(RuntimeError, match="accepts with probability 0, not 1"):
        decide(a, "limit", "struct-simple")


def test_limit_parity_rechecks_the_lasso_probability(monkeypatch, ex2):
    import qpa.lasso as lasso

    real = lasso.lasso_acceptance_probability
    buchi = ex2.with_acceptance(Acceptance.buchi(["4"]))
    assert decide(buchi, "limit", "struct-simple").answer == "yes"

    def corrupted(a, w):
        # the period recheck (empty prefix) is left alone
        return real(a, w) / 2 if w.prefix else real(a, w)

    monkeypatch.setattr(lasso, "lasso_acceptance_probability", corrupted)
    with pytest.raises(RuntimeError, match="pumped lasso accepts with probability"):
        decide(buchi, "limit", "struct-simple")


def test_struct_simple_limit_runs_the_gate_once(monkeypatch, ex1, ex2):
    import qpa.classify as classify

    real = classify.is_structurally_simple
    calls = []

    def counting(a, budgets=DEFAULT_BUDGETS):
        calls.append(a)
        return real(a, budgets)

    monkeypatch.setattr(classify, "is_structurally_simple", counting)
    for acc in (Acceptance.reach(["4"]), Acceptance.buchi(["4"])):
        calls.clear()
        assert decide(ex2.with_acceptance(acc), "limit", "struct-simple").answer == "yes"
        assert len(calls) == 1
    with pytest.raises(InputError, match="structurally simple"):
        decide(ex1.with_acceptance(Acceptance.reach(["u"])), "limit", "struct-simple")
    with pytest.raises(InputError, match="structurally simple"):
        decide(ex1.with_acceptance(Acceptance.buchi(["u"])), "limit", "struct-simple")


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

"""Support graphs, #-reachability, and limit procedures on top of them.

The plain support graph walks subsets of states under single letters and
adds a sharp edge S -> S.a^# wherever a letter keeps S stable.  The
extended graph goes further: starting from source-restricted letter
relations it closes edges under relational composition and under a border
rule.  The border rule takes chained edges e1: A -> B and e2: B -> B2
with B2 contained in B, funnels e1's destinations into the recurrent
states of e2's relation on B, and emits the rewired edge together with
its continuation through e2.  Destinations shrink below anything a plain
word can reach; that is what makes limit reachability decidable for
structurally simple automata.

The closure is a worklist over edges.  Each edge keeps the image table
(graphs.image_table) of its relation, of its plain relation when plain
relations are tracked, and of its funnel when it can serve as a border
segment, so composing two edges costs one table lookup per source row.
Each chained pair of edges is combined once, at the pop of whichever edge
is popped first.  Those first combinations keep their order: edge ids
follow the order in which results first appear, and provenance, replay
steps and the edge at which a budget stop is raised all hang on the ids.

Every derived edge carries a derivation tree.  Trees flatten, when the
shape allows, into replay steps (word, borders, cut): concrete layered
graphs on which the claimed destination is recomputed from scratch.
Limit-word synthesis pumps each border segment of such a witness, doubling
the repetition count until the exact probability passes the threshold.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import (
    DEFAULT_BUDGETS,
    Automaton,
    Budgets,
    LassoWord,
    Verdict,
    as_mask,
    bits,
)
from .errors import BudgetExceededError, InputError
from .graphs import (
    Image,
    bottom_scc_masks,
    has_cycle_ignoring_self_loops,
    image_table,
    reachable_mask,
)
from .linked import border_chain, layer_of_rows, layer_rows, linked_graph_of_word
from .profiles import build_profile_monoid, profile_image
from .semantics import chain_parity_almost, rel_image, sharp_power, vector_product


# ---------------------------------------------------------------------------
# Plain support graph


@dataclass(frozen=True)
class SupportGraph:
    """Subsets of Q under letter steps; sharp edges mark where stable sets settle.

    Edges are (source, letter index, is_sharp, destination).  A letter edge
    S -> S.a always exists; a sharp edge S -> S.a^# exists when S.a = S.
    """

    automaton: Automaton
    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int, bool, int], ...]

    def successors(self, s: int) -> list[tuple[int, bool, int]]:
        return [(k, sharp, t) for (src, k, sharp, t) in self.edges if src == s]

    def dot(self) -> str:
        a = self.automaton
        lines = ["digraph support {", "  rankdir=LR;"]
        for s in sorted(self.nodes):
            lines.append(f'  "{_set_label(a, s)}";')
        for src, k, sharp, dst in sorted(self.edges):
            label = a.alphabet[k] + ("#" if sharp else "")
            style = ", style=dashed" if sharp else ""
            lines.append(
                f'  "{_set_label(a, src)}" -> "{_set_label(a, dst)}"'
                f' [label="{label}"{style}];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


def _set_label(a: Automaton, mask: int) -> str:
    return "{" + ",".join(a.names(mask)) + "}"


def build_support_graph(
    a: Automaton,
    seeds: Iterable | None = None,
    full: bool = False,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> SupportGraph:
    """Breadth-first support graph from Supp(alpha) and any extra seed sets.

    With full=True every nonempty subset becomes a node, which is only
    allowed up to 10 states.
    """
    if full:
        if a.n > 10:
            raise BudgetExceededError("full support graph needs at most 10 states")
        start = [m for m in range(1, 1 << a.n)]
    else:
        start = [a.initial_support]
        for s in seeds or []:
            m = as_mask(a, s)
            if m == 0:
                raise InputError("empty seed support")
            if m not in start:
                start.append(m)
    nodes: list[int] = []
    seen: set[int] = set()
    edges: list[tuple[int, int, bool, int]] = []
    queue = deque()
    for m in start:
        if m not in seen:
            seen.add(m)
            nodes.append(m)
            queue.append(m)
    while queue:
        s = queue.popleft()
        for k in range(len(a.alphabet)):
            targets = [(False, rel_image(a.relation(k), s))]
            if targets[0][1] == s:
                targets.append((True, sharp_power(a, s, (k,))))
            for sharp, t in targets:
                edges.append((s, k, sharp, t))
                if t not in seen:
                    if len(seen) >= budgets.subset:
                        raise BudgetExceededError("support graph exceeded subset budget")
                    seen.add(t)
                    nodes.append(t)
                    queue.append(t)
    return SupportGraph(a, tuple(nodes), tuple(edges))


def is_sharp_acyclic(a: Automaton, budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    """No cycle through two or more distinct supports in the full support graph.

    Identity self-loops S -> S are discarded: any stable support has one, so
    counting them would empty the class.
    """
    g = build_support_graph(a, full=True, budgets=budgets)
    succ: dict[int, set[int]] = {s: set() for s in g.nodes}
    for src, _, _, dst in g.edges:
        succ[src].add(dst)
    return not has_cycle_ignoring_self_loops(succ)


# ---------------------------------------------------------------------------
# Extended support graph

_ST_NONE, _ST_MULTI, _ST_CUT, _ST_FULL = 0, 1, 2, 3

# A replay step is (word, borders, cut): letter indices, border pairs in
# application order, and the boundary index to read the result from.
Step = tuple[tuple[int, ...], tuple[tuple[int, int], ...], int]

# The nonzero rows of a relation as (row offset i*n, row mask) pairs.
RowPairs = tuple[tuple[int, int], ...]


def _row_pairs(rows: Sequence[int], n: int) -> RowPairs:
    return tuple((i * n, row) for i, row in enumerate(rows) if row)


class ExtendedSupportGraph:
    """Fixpoint closure of source-restricted word relations under borders.

    Edges are keyed by their relation label (the source and destination are
    the label's left and right projections).  Each edge stores the first
    derivation that produced it, upgraded when a later derivation admits a
    better word-level replay.  An automaton with more than
    budgets.extended_states states is refused before any seed is read.

    A pair (e, f) with dst(e) = src(f) is met twice when both edges exist
    before the first of them is popped: in e's outgoing loop and in f's
    incoming loop.  Only the first meeting combines them.  The second would
    repeat the same insertion with the same statuses (letter edges are full,
    and composing or bordering full edges gives full edges, so no status
    ever changes), and such a repeat finds its result already present.
    Skipping it leaves every first insertion, and so every edge id, where
    combining at both meetings puts it.
    """

    def __init__(self, a: Automaton, budgets: Budgets, seeds: Sequence[int], track_plain: bool = False):
        if a.n > budgets.extended_states:
            raise BudgetExceededError(
                f"extended support graph allows at most {budgets.extended_states} states"
                f" (automaton has {a.n}); raise the budget to override"
            )
        self.automaton = a
        self.budgets = budgets
        self.track_plain = track_plain
        n = a.n
        self._n = n
        # an edge's key is its label, below its plain relation when tracked
        self._nn = n * n
        self._keys: dict[int, int] = {}
        self._label: list[int] = []
        self._plain: list[int] = []
        self._src: list[int] = []
        self._dst: list[int] = []
        self._prov: list[tuple] = []
        self._status: list[int] = []
        # composition data: source rows and image table of the label, the
        # same for the plain relation, and the table of the funnel that a
        # border through the edge applies; None when the edge's destinations
        # leave its sources, so no border applies
        self._row_pairs: list[RowPairs] = []
        self._image: list[Image] = []
        self._plain_pairs: list[RowPairs] = []
        self._plain_image: list[Image] = []
        self._funnel_image: list[Image | None] = []
        # edge count when a popped edge's outgoing / incoming loop started;
        # 0 until the edge is popped
        self._out_at: list[int] = []
        self._in_at: list[int] = []
        self._by_src: dict[int, list[int]] = {}
        self._by_dst: dict[int, list[int]] = {}
        self._nodes: list[int] = []
        self._node_set: set[int] = set()
        self._pending: deque[int] = deque()
        self._steps_memo: dict[int, list[Step] | None] = {}
        self._letter_plain = [
            layer_of_rows(a.relation(k), a.full_mask, n) for k in range(len(a.alphabet))
        ]
        for s in seeds:
            self._add_node(s)
        self._run()

    # -- construction ------------------------------------------------------

    def _add_node(self, s: int) -> None:
        if s in self._node_set:
            return
        self._node_set.add(s)
        self._nodes.append(s)
        self._by_src.setdefault(s, [])
        self._by_dst.setdefault(s, [])
        a = self.automaton
        for k in range(len(a.alphabet)):
            label = layer_of_rows(a.relation(k), s, self._n)
            self._add(label, self._letter_plain[k], ("word", k), _ST_FULL)

    def _add(self, label: int, plain: int, prov: tuple, status: int) -> None:
        key = plain << self._nn | label if self.track_plain else label
        found = self._keys.get(key)
        if found is not None:
            # Keep the derivation with the best replay shape, but only when its
            # operands precede this edge: provenance then stays a DAG.
            if (
                prov[0] != "word"
                and status > self._status[found]
                and prov[1] < found
                and prov[2] < found
            ):
                self._prov[found] = prov
                self._status[found] = status
            return
        if len(self._label) >= self.budgets.path_cap:
            raise BudgetExceededError(
                f"extended support graph exceeded {self.budgets.path_cap} edges"
            )
        eid = len(self._label)
        n = self._n
        self._keys[key] = eid
        self._label.append(label)
        self._plain.append(plain)
        rows = layer_rows(label, n)
        src = dst = 0
        for i, row in enumerate(rows):
            if row:
                src |= 1 << i
                dst |= row
        self._src.append(src)
        self._dst.append(dst)
        self._row_pairs.append(_row_pairs(rows, n))
        self._image.append(image_table(rows))
        if self.track_plain:
            prows = layer_rows(plain, n)
            self._plain_pairs.append(_row_pairs(prows, n))
            self._plain_image.append(image_table(prows))
        if dst & ~src:
            self._funnel_image.append(None)
        else:
            rec = 0
            for m in bottom_scc_masks(rows, src):
                rec |= m
            self._funnel_image.append(
                image_table(
                    [
                        reachable_mask(rows, 1 << y, src) & rec if src >> y & 1 else 0
                        for y in range(n)
                    ]
                )
            )
        self._prov.append(prov)
        self._status.append(status)
        self._out_at.append(0)
        self._in_at.append(0)
        self._add_node(dst)
        self._by_src[src].append(eid)
        self._by_dst[dst].append(eid)
        self._pending.append(eid)

    def _run(self) -> None:
        # Skip a partner whose earlier pop already met this edge in its loop
        # snapshot.  Pops do not follow edge ids (_add_node queues letter
        # edges ahead of the edge that created the node), so "earlier" is read
        # from the loop start counts, never from ids.
        out_at, in_at = self._out_at, self._in_at
        while self._pending:
            eid = self._pending.popleft()
            out_at[eid] = len(self._label)
            for f in list(self._by_src[self._dst[eid]]):
                if eid >= in_at[f]:
                    self._combine(eid, f)
            in_at[eid] = len(self._label)
            for e in list(self._by_dst[self._src[eid]]):
                if e != eid and eid >= out_at[e]:
                    self._combine(e, eid)

    def _combine(self, i1: int, i2: int) -> None:
        # Most results are edges already present with a status at least as
        # good; they are recognised here without building a provenance.
        keys, status = self._keys, self._status
        s1, s2 = status[i1], status[i2]
        pairs = self._row_pairs[i1]
        img = self._image[i2]
        comp = 0
        for off, row in pairs:
            comp |= img(row) << off
        plain = 0
        if self.track_plain:
            img = self._plain_image[i2]
            for off, row in self._plain_pairs[i1]:
                plain |= img(row) << off
        high = plain << self._nn
        if s1 == _ST_NONE or s2 == _ST_NONE:
            st = _ST_NONE
        elif s1 == _ST_FULL:
            st = s2 if s2 in (_ST_FULL, _ST_CUT) else _ST_MULTI
        else:
            st = _ST_MULTI
        found = keys.get(high | comp)
        if found is None or st > status[found]:
            self._add(comp, plain, ("compose", i1, i2), st)
        img = self._funnel_image[i2]
        if img is None:
            return
        # Funnelled destinations are closed under the segment relation, so
        # reading the bordered graph at the border's start or at its end
        # yields the same relation; one edge covers both boundaries.
        rewired = 0
        for off, row in pairs:
            rewired |= img(row) << off
        mergeable = s1 == _ST_FULL and s2 in (_ST_FULL, _ST_CUT)
        st2 = (_ST_FULL if s2 == _ST_FULL else _ST_CUT) if mergeable else _ST_NONE
        found = keys.get(high | rewired)
        if found is None or st2 > status[found]:
            self._add(rewired, plain, ("border", i1, i2, 2), st2)

    # -- views -------------------------------------------------------------

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(self._nodes)

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(zip(self._src, self._label, self._dst))

    def edges_from(self, s: int) -> tuple[int, ...]:
        return tuple(self._by_src.get(s, ()))

    def edge_parts(self, eid: int) -> tuple[int, int, int]:
        return self._src[eid], self._label[eid], self._dst[eid]

    @property
    def edge_count(self) -> int:
        return len(self._label)

    def edge_plain(self, eid: int) -> int:
        """Unrestricted one-word relation of the edge's complete witness word."""
        if not self.track_plain:
            raise InputError("graph was built without plain-relation tracking")
        return self._plain[eid]

    def edge_is_full(self, eid: int) -> bool:
        """True when the edge replays as one bordered graph read at its last
        boundary, so its destination is a plain #-destination of the word."""
        return self._status[eid] == _ST_FULL

    # -- witness flattening --------------------------------------------------

    def witness_steps(self, eid: int) -> list[Step] | None:
        """Replay steps for an edge, or None when its derivation does not flatten."""
        memo = self._steps_memo
        stack = [eid]
        while stack:
            e = stack[-1]
            if e in memo:
                stack.pop()
                continue
            prov = self._prov[e]
            if prov[0] == "word":
                memo[e] = [((prov[1],), (), 1)]
                stack.pop()
                continue
            subs = prov[1:3]
            missing = [x for x in subs if x not in memo]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            s1, s2 = memo[subs[0]], memo[subs[1]]
            if s1 is None or s2 is None:
                memo[e] = None
            elif prov[0] == "compose":
                if len(s1) == 1 and s1[0][2] == len(s1[0][0]):
                    memo[e] = [_merge(s1[0], s2[0])] + s2[1:]
                else:
                    memo[e] = s1 + s2
            else:
                memo[e] = _border_step(s1, s2, prov[3])
        return memo[eid]

    # -- reachability ---------------------------------------------------------

    def reachable_with_steps(self, start: int) -> dict[int, list[Step] | None]:
        """Nodes reachable from start; values are replay steps where available.

        A first pass walks only edges whose derivations flatten, so every node
        found there carries a concrete witness; a second pass adds the rest
        with value None.
        """
        out: dict[int, list[Step] | None] = {start: []}
        queue = deque([start])
        while queue:
            s = queue.popleft()
            for eid in self._by_src.get(s, ()):
                steps = self.witness_steps(eid)
                d = self._dst[eid]
                if steps is not None and d not in out:
                    out[d] = out[s] + steps
                    queue.append(d)
        seen = set(out)
        queue = deque(out)
        while queue:
            s = queue.popleft()
            for eid in self._by_src.get(s, ()):
                d = self._dst[eid]
                if d not in seen:
                    seen.add(d)
                    out[d] = None
                    queue.append(d)
        return out

    def dot(self) -> str:
        a = self.automaton
        lines = ["digraph extended {", "  rankdir=LR;"]
        for s in sorted(self._node_set):
            lines.append(f'  "{_set_label(a, s)}";')
        rendered = []
        for eid in range(len(self._label)):
            steps = self.witness_steps(eid)
            if steps is None:
                label, bordered = "?", True
            elif len(steps) == 1:
                label = _step_label(a, steps[0])
                bordered = bool(steps[0][1])
            else:
                label = " ; ".join(_step_label(a, st) for st in steps)
                bordered = any(st[1] for st in steps)
            style = ", style=dashed" if bordered else ""
            rendered.append(
                f'  "{_set_label(a, self._src[eid])}" -> '
                f'"{_set_label(a, self._dst[eid])}" [label="{label}"{style}];'
            )
        lines.extend(sorted(rendered))
        lines.append("}")
        return "\n".join(lines) + "\n"


def _word_text(a: Automaton, word: tuple[int, ...]) -> str:
    names = [a.alphabet[k] for k in word]
    sep = "" if all(len(x) == 1 for x in names) else " "
    return sep.join(names)


def _step_label(a: Automaton, step: Step) -> str:
    word, borders, cut = step
    text = _word_text(a, word)
    if borders:
        text += " " + "".join(f"({x},{y})" for x, y in borders)
    if cut < len(word):
        text += f" cut {cut}"
    return text


def _merge(first: Step, second: Step) -> Step:
    w1, b1, _ = first
    w2, b2, c2 = second
    off = len(w1)
    return (w1 + w2, b1 + tuple((x + off, y + off) for x, y in b2), off + c2)


def _border_step(s1: list[Step], s2: list[Step], cut: int) -> list[Step] | None:
    if len(s1) != 1 or s1[0][2] != len(s1[0][0]) or len(s2) != 1:
        return None
    w1, b1, _ = s1[0]
    w2, b2, c2 = s2[0]
    off = len(w1)
    borders = b1 + tuple((x + off, y + off) for x, y in b2) + ((off, off + c2),)
    return [(w1 + w2, borders, off if cut == 1 else off + c2)]


def build_extended_support_graph(
    a: Automaton,
    seeds: Iterable | None = None,
    full: bool = False,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> ExtendedSupportGraph:
    """Close the graph from Supp(alpha) (or the given seeds) to its fixpoint."""
    if full:
        start = range(1, 1 << a.n)
    else:
        start = [a.initial_support]
        for s in seeds or []:
            m = as_mask(a, s)
            if m == 0:
                raise InputError("empty seed support")
            if m not in start:
                start.append(m)
    return ExtendedSupportGraph(a, budgets, start)


def replay_steps(a: Automaton, start, steps: Sequence[Step]) -> int:
    """Fold replay steps through layered graphs; returns the final support mask."""
    cur = as_mask(a, start)
    for word, borders, cut in steps:
        lg = border_chain(linked_graph_of_word(a, cur, word), borders)
        cur = lg.boundary(cut)
    return cur


def _steps_payload(a: Automaton, steps: Sequence[Step]) -> list[dict]:
    return [
        {
            "word": [a.alphabet[k] for k in word],
            "borders": [list(b) for b in borders],
            "cut": cut,
        }
        for word, borders, cut in steps
    ]


def sharp_reachable(
    a: Automaton,
    C,
    D,
    budgets: Budgets = DEFAULT_BUDGETS,
    graph: ExtendedSupportGraph | None = None,
) -> Verdict:
    """Is D #-reachable from C?  Yes-verdicts carry replayed witness steps.

    C -> C holds by the trivial path convention (empty step list).  Witness
    steps are re-executed through the layered graphs before being returned;
    a mismatch would be an internal error, never a wrong answer.
    """
    cmask, dmask = as_mask(a, C), as_mask(a, D)
    if cmask == 0 or dmask == 0:
        raise InputError("empty support set")
    if graph is None:
        graph = build_extended_support_graph(a, seeds=[cmask], budgets=budgets)
    reach = graph.reachable_with_steps(cmask)
    if dmask not in reach:
        return Verdict("no", reason="not reachable in the extended support graph")
    steps = reach[dmask]
    if steps is None:
        return Verdict(
            "yes", {"steps": None, "note": "derivation does not flatten to replay steps"}
        )
    got = replay_steps(a, cmask, steps)
    if got != dmask:
        raise RuntimeError(
            f"witness replay reached {a.names(got)} instead of {a.names(dmask)}"
        )
    return Verdict("yes", {"steps": _steps_payload(a, steps)})


# ---------------------------------------------------------------------------
# Limit procedures for structurally simple automata


def _require_structurally_simple(a: Automaton, budgets: Budgets) -> None:
    from .classify import is_structurally_simple

    if not is_structurally_simple(a, budgets):
        raise InputError("automaton not structurally simple")


def decide_limit_reach_structsimple(
    a: Automaton, budgets: Budgets = DEFAULT_BUDGETS
) -> Verdict:
    """Can the acceptance set soak up probability arbitrarily close to one?

    Yes iff some subset of the target set is #-reachable from the initial
    support.  Only structurally simple automata are accepted; the problem is
    undecidable without that gate.
    """
    acc = a.acceptance
    if acc is None or acc.kind != "reach":
        raise InputError("reach acceptance required")
    _require_structurally_simple(a, budgets)
    return _limit_reach(a, budgets)


def _limit_reach(a: Automaton, budgets: Budgets) -> Verdict:
    """decide_limit_reach_structsimple past its input checks and gate."""
    fmask = a.acceptance_mask()
    graph = build_extended_support_graph(a, budgets=budgets)
    reach = graph.reachable_with_steps(a.initial_support)
    best: tuple[int, list[Step] | None] | None = None
    for t, steps in reach.items():
        if t & ~fmask:
            continue
        if best is None or (best[1] is None and steps is not None):
            best = (t, steps)
        if best[1] is not None:
            break
    if best is None:
        return Verdict(
            "no", reason="no subset of the target is #-reachable from the initial support"
        )
    t, steps = best
    return Verdict(
        "yes",
        {
            "support": list(a.names(t)),
            "steps": None if steps is None else _steps_payload(a, steps),
        },
    )


def _pump_step(step: Step, k: int) -> list[int]:
    word, borders, cut = step
    atoms: list[list[int]] = [[x] for x in word]
    for n1, n2 in borders:
        segment: list[int] = []
        for j in range(n1, n2):
            segment.extend(atoms[j])
        atoms[n1 - 1] = atoms[n1 - 1] + segment * k
    out: list[int] = []
    for j in range(cut):
        out.extend(atoms[j])
    return out


def synthesize_limit_word(
    a: Automaton,
    target,
    eps: Fraction | int | str,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> tuple[str, ...]:
    """A word pushing at least 1 - eps of the mass into the target set, exactly.

    Each border segment of the #-reachability witness is repeated k times;
    k doubles until the exactly computed probability passes the threshold.
    """
    bound = Fraction(eps)
    if bound <= 0 or bound >= 1:
        raise InputError("eps must satisfy 0 < eps < 1")
    tmask = as_mask(a, target)
    if tmask == 0:
        raise InputError("empty target set")
    if a.initial_support & ~tmask == 0:
        return ()
    graph = build_extended_support_graph(a, budgets=budgets)
    return _pumped_word(a, graph.reachable_with_steps(a.initial_support), tmask, bound, budgets)


def _pumped_word(
    a: Automaton,
    reach: dict[int, list[Step] | None],
    tmask: int,
    bound: Fraction,
    budgets: Budgets,
) -> tuple[str, ...]:
    """synthesize_limit_word past its input checks, on the nodes #-reachable
    from the initial support of the seeded extended graph."""
    steps: list[Step] | None = None
    reachable_at_all = False
    for t, st in reach.items():
        if t & ~tmask:
            continue
        reachable_at_all = True
        if st is not None:
            steps = st
            break
    if steps is None:
        if reachable_at_all:
            raise BudgetExceededError(
                "witness for the target does not flatten into a pumpable word"
            )
        raise InputError("no subset of the target is #-reachable from the initial support")
    threshold = 1 - bound
    best = Fraction(0)
    k = 1
    for _ in range(budgets.pump_doublings):
        word: list[int] = []
        for step in steps:
            word.extend(_pump_step(step, k))
        if len(word) > budgets.word_cap:
            raise BudgetExceededError(
                f"pumped word length {len(word)} exceeds cap; best probability {best}"
            )
        vec = vector_product(a.initial, a.matrices, word)
        p = sum((vec[i] for i in bits(tmask)), Fraction(0))
        if p >= threshold:
            return tuple(a.alphabet[x] for x in word)
        best = max(best, p)
        k *= 2
    raise BudgetExceededError(
        f"pumping budget exhausted before reaching 1 - {bound}; best probability {best}"
    )


def decide_limit_parity_structsimple(
    a: Automaton, budgets: Budgets = DEFAULT_BUDGETS
) -> Verdict:
    """Can words make the run accept with probability arbitrarily close to one?

    Yes iff some #-reachable support A admits a word whose relation maps A
    into A and whose induced chain on A accepts almost surely.  The witness
    reports the stable support, the period word, and, when synthesis
    succeeds, a pumped prefix with its exact lasso acceptance probability;
    when synthesis stops on a budget or an input error, prefix and
    probability are None and prefix_error says why.
    """
    a.priorities()  # InputError unless the acceptance has a parity encoding
    _require_structurally_simple(a, budgets)
    return _limit_parity(a, budgets)


def _limit_parity(a: Automaton, budgets: Budgets) -> Verdict:
    """decide_limit_parity_structsimple past its input checks and gate."""
    priorities = a.priorities()
    graph = build_extended_support_graph(a, budgets=budgets)
    reach = graph.reachable_with_steps(a.initial_support)
    monoid = build_profile_monoid(a, None, budgets.monoid)
    for node in reach:
        for prof, rho in monoid.items():
            if profile_image(prof, node) & ~node:
                continue
            ok, _ = chain_parity_almost(a, node, rho, priorities)
            if not ok:
                continue
            period = tuple(a.alphabet[x] for x in rho)
            witness = {
                "support": list(a.names(node)),
                "period": list(period),
                "prefix": None,
                "probability": None,
            }
            try:
                prefix = _pumped_word(a, reach, node, Fraction(1, 10), budgets)
            except (BudgetExceededError, InputError) as exc:
                witness["prefix_error"] = f"{type(exc).__name__}: {exc}"
            else:
                from .lasso import lasso_acceptance_probability

                p = lasso_acceptance_probability(a, LassoWord(prefix, period))
                witness["prefix"] = list(prefix)
                witness["probability"] = str(p)
            return Verdict("yes", witness)
    return Verdict(
        "no", reason="no #-reachable support admits an almost-surely accepting period"
    )

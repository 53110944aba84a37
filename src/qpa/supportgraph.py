"""Support graphs, #-reachability, and limit procedures on top of them.

The subset construction (reachable_supports) and the plain support graph
walk subsets of states under single letters; the graph adds a sharp edge
S -> S.a^# wherever a letter keeps S stable.  The extended graph goes
further: starting from source-restricted letter relations it closes edges
under relational composition and under a border rule.  The border rule
takes chained edges e1: A -> B and e2: B -> B2 with B2 contained in B,
funnels e1's destinations into the recurrent states of e2's relation on
B, and emits the rewired edge together with its continuation through e2.
Destinations shrink below anything a plain word can reach; that is what
makes limit reachability decidable for structurally simple automata.

The closure is a worklist over edges that multiplies on the right by atoms
only: letters and funnels.  Every label is total on its source, so
dst(e o g) = dst(g), and a border through f is e o Fun(f), with Fun(f) the
funnel relation of f.  Composition is associative, so e o (g o L) =
(e o g) o L for a letter L and e o (g o Fun(h)) = border(e o g, h): closing
every edge under composition with the letters at its destination and under
borders through the funnels there reaches the fixpoint of the closure that
combines every chained pair of edges, with the same nodes, the same keys
and the same edge count.

Labels, plain relations and funnels are relations in rows (graphs.Rows),
the encoding of Automaton.relation: a letter edge's label is its letter's
relation restricted to the node (graphs.restrict), and a right
multiplication maps the right factor's image table over the left factor's
rows.  A letter's image table (graphs.image_table) is shared by all nodes
and serves both the label and the plain relation.  A border segment's
funnel (graphs.funnel) maps each state of its source to the recurrent
states of its label that the state reaches, read off one reach closure of
the label (graphs.reach_closure); a funnel table is kept only for the
first edge with each distinct funnel at its source (with each distinct
(funnel, plain) pair when plain relations are tracked).
Edge ids follow the order in which results first appear, and provenance,
replay steps and the edge at which a budget stop is raised all hang on
the ids.

Every derived edge carries a derivation tree, and every tree flattens into
one replay step (word, borders, cut): a concrete layered graph, read at its
last boundary, on which the claimed destination is recomputed from scratch.
Limit-word synthesis pumps each border segment of such a witness, doubling
the repetition count until the exact probability passes the threshold.

A "no" needs the closure's fixpoint, a "yes" only one reachable support
that satisfies the query.  Seeded at one origin alone, a closure
registers only supports #-reachable from that origin: every edge leaves a
registered node, and a product's right factor sits at its left factor's
destination.  Its nodes and edges are registered in one order whatever is
asked of it, so a search for the first node that satisfies a predicate
reads a prefix of the origin's full closure, and ends at the first edge
insertion that makes a satisfying support #-reachable from the origin.
The closure reads only the letter relations, so every #-search resumes
the one closure that the Automaton keeps for its origin and Budgets
value (_kept_search): later searches read what earlier ones registered,
and the worklist advances only past it.

The limit procedures hold for structurally simple automata only, so their
one caller is qualitative.decide, which runs the classify gate first.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import lasso
from .core import (
    DEFAULT_BUDGETS,
    Automaton,
    Budgets,
    LassoWord,
    Verdict,
    as_fraction,
    as_mask,
    bits,
)
from .errors import BudgetExceededError, InputError
from .graphs import (
    Image,
    Rows,
    compose,
    funnel,
    image,
    image_table,
    restrict,
    scc_masks,
    shortest_words,
)
from .linked import border_chain, linked_graph_of_word
from .profiles import almost_period
from .semantics import sharp_power, vector_product


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


def reachable_supports(a: Automaton, start: int, budget: int) -> dict[int, tuple[int, ...]]:
    """Exact supports reachable from start, each with its shortest word.

    graphs.shortest_words over the subset construction, letters in alphabet
    order, so dict order is shortest-word-first with lexicographic
    tie-breaking.
    """
    rels = [a.relation(k) for k in range(len(a.alphabet))]

    def steps(s: int):
        for k, rel in enumerate(rels):
            yield k, image(rel, s)

    return dict(shortest_words([(as_mask(a, start), ())], steps, budget, "subset construction"))


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
            targets = [(False, image(a.relation(k), s))]
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
    counting them would empty the class.  Each support is the node whose
    index is its own mask, so the graph is a bitmask digraph on 2^n nodes,
    and the test is that every strongly connected component is one node.
    """
    g = build_support_graph(a, full=True, budgets=budgets)
    rows = [0] * (1 << a.n)
    for src, _, _, dst in g.edges:
        rows[src] |= 1 << dst
    return all(c & (c - 1) == 0 for c in scc_masks(rows, (1 << len(rows)) - 2))


# ---------------------------------------------------------------------------
# Extended support graph

# A replay step is (word, borders, cut): letter indices, border pairs in
# application order, and the boundary index to read the result from.
Step = tuple[tuple[int, ...], tuple[tuple[int, int], ...], int]


# products allowed per edge of budgets.path_cap: the work of a closure is
# edges x atoms, and the edge cap alone leaves the atoms unbounded
PRODUCTS_PER_EDGE = 64

# an edge's provenance operation: a letter, or a product of two edges
_WORD, _COMPOSE, _BORDER = 0, 1, 2


class ExtendedSupportGraph:
    """Fixpoint closure of source-restricted word relations under borders.

    Edges are keyed by their relation label (the source and destination are
    the label's left and right projections), and each stores the first
    derivation that produced it.  With track_plain the key is the pair of
    the label and the plain relation of the edge's witness word, so one
    label may carry several edges; without it, edge_plain gives each edge
    the plain relation of its first derivation.  An automaton with more than
    budgets.extended_states states is refused before any seed is read.
    Seeds, in the constructor and in grow, are read through core.as_mask,
    and an empty seed is an InputError.

    The closure multiplies edges on the right by atoms only (see the module
    docstring).  Each edge is composed with the letter edges at its
    destination when it is popped.  A border pairs an edge e with a funnel
    atom h at dst(e), the first edge from that node with h's funnel key;
    the pair is met at e's pop or at h's, whichever loop comes first.  So a
    node costs (letters + distinct funnels) products per incoming edge,
    where a pairwise closure pays in-degree times out-degree.  products
    counts the compositions and borders attempted.  Edges are capped at
    budgets.path_cap and products at PRODUCTS_PER_EDGE times that, so a
    closure that keeps adding atoms on few nodes stops in bounded work.

    grow registers more seeds and runs the closure to its fixpoint again;
    the constructor is grow on the given seeds.  After grow returns, every
    registered node has exactly the out-edges (keys) it has in the graph
    seeded at every support.  The keys out of a support s depend only on
    the closure at the nodes #-reachable from s: every edge from s is a
    letter edge at s multiplied on the right by letter edges and funnel
    atoms at nodes #-reachable from s.  A product depends on an atom only
    through the atom's funnel key, and the set of funnel keys at a node is
    fixed by that node's own segment edges.  The out_at/in_at pair
    bookkeeping is by ids and counts, so it holds across resumed runs.
    Ids, and so first derivations, follow the growth order.

    search(want), with want a predicate on supports, returns the first
    registered node that satisfies it, and works through the queued seeds
    and edges only until one does; None at the fixpoint.  Nodes and edges
    are registered in the same order whatever drives the closure, so the
    node a search finds has seen exactly the edges with ids below
    registered_at(node), a prefix of the full closure with the same ids and
    provenance.  A budget stop inside search is kept as its message: every
    search from then on scans the nodes registered before the stop and
    raises BudgetExceededError with that message when none satisfies want,
    just where a fresh closure driven by want would stop.  A search that
    ends the closure, at its fixpoint or at a budget stop, settles it: the
    graph drops what only further closure work and the label views read,
    and keeps what search, out_edges, reachable_with_steps and
    witness_steps read.  A settled graph is not grown.
    """

    # an Automaton keeps one graph per origin and Budgets value for its
    # lifetime, so a graph holds no per-instance dict
    __slots__ = (
        "automaton", "budgets", "track_plain", "products", "_max_products",
        "_keys", "_label", "_plain", "_src", "_dst", "_op", "_left", "_right",
        "_letter_image", "_letters_at", "_funnels_at", "_funnel_image",
        "_plain_image", "_tables", "_funnel_of", "_out_at", "_in_at", "_by_src",
        "_by_dst", "_nodes", "_node_at", "_seeds", "_pending", "_steps_memo",
        "_plain_derived", "_stop", "_settled",
    )

    def __init__(
        self,
        a: Automaton,
        budgets: Budgets,
        seeds: Sequence[int],
        track_plain: bool = False,
    ):
        if a.n > budgets.extended_states:
            raise BudgetExceededError(
                f"extended support graph allows at most {budgets.extended_states} states"
                f" (automaton has {a.n}); raise the budget to override"
            )
        self.automaton = a
        self.budgets = budgets
        self.track_plain = track_plain
        # an edge's key is its label, paired with its plain relation when
        # tracked
        self._keys: dict[Rows | tuple[Rows, Rows], int] = {}
        self._label: list[Rows] = []
        self._plain: list[Rows | None] = []
        self._src: list[int] = []
        self._dst: list[int] = []
        # provenance columns: the operation, and its letter or its two edges
        self._op = array("b")
        self._left = array("i")
        self._right = array("i")
        # right factors at each node: its letter edges, one per distinct key,
        # each applied through its letter's image table (shared by all
        # nodes), and its funnel atoms, the first edge from it with each
        # distinct funnel key (a node without atoms has no entry)
        self._letter_image = [image_table(a.relation(k)) for k in range(len(a.alphabet))]
        self._letters_at: dict[int, list[int]] = {}
        self._funnels_at: dict[int, dict[Rows | tuple[Rows, Rows], int]] = {}
        # image tables of a funnel atom's funnel and, when tracked, its plain,
        # shared through _table; a border segment's funnel, by label
        self._funnel_image: dict[int, Image] = {}
        self._plain_image: dict[int, Image] = {}
        self._tables: dict[Rows, Image] = {}
        self._funnel_of: dict[Rows, Rows] = {}
        # edge count when a popped edge's own products / a popped funnel
        # atom's incoming loop started; 0 until the edge is popped
        self._out_at: list[int] = []
        self._in_at: list[int] = []
        self._by_src: dict[int, array] = {}
        self._by_dst: dict[int, list[int]] = {}
        self._nodes: list[int] = []
        # edge count when each node was registered
        self._node_at: dict[int, int] = {}
        self._seeds: list[int] = []
        self._pending: deque[int] = deque()
        self._steps_memo: dict[int, Step] = {}
        # a label-keyed graph derives the _plain of its edges past this count
        # at each edge_plain call
        self._plain_derived = 0
        # compositions and borders attempted
        self.products = 0
        self._max_products = PRODUCTS_PER_EDGE * budgets.path_cap
        # the message of the budget stop that ended a search's closure, and
        # whether a search has ended it
        self._stop: str | None = None
        self._settled = False
        self.grow(seeds)

    # -- construction ------------------------------------------------------

    def grow(self, seeds: Iterable[int]) -> None:
        """Register more seeds and close the graph to its fixpoint again."""
        if self._settled:
            raise InputError("a settled closure is not grown")
        self._queue(seeds)
        self._run()

    def _queue(self, seeds: Iterable) -> None:
        masks = [as_mask(self.automaton, s) for s in seeds]
        if 0 in masks:
            raise InputError("empty seed support")
        self._seeds.extend(masks)

    def _key(self, label: Rows, plain: Rows | None) -> Rows | tuple[Rows, Rows]:
        return (label, plain) if self.track_plain else label

    def _add_node(self, s: int) -> None:
        # s is registered before its letter edges are added
        if s in self._node_at:
            return
        self._node_at[s] = len(self._label)
        self._nodes.append(s)
        self._by_src[s] = array("i")
        self._by_dst[s] = []
        a = self.automaton
        letters = self._letters_at[s] = []
        for k in range(len(a.alphabet)):
            plain = a.relation(k)
            label = restrict(plain, s)
            self._add(label, plain, _WORD, k, -1)
            # two letters may share a restricted label: keep one edge
            eid = self._keys[self._key(label, plain)]
            if eid not in letters:
                letters.append(eid)

    def _add(self, label: Rows, plain: Rows | None, op: int, left: int, right: int) -> None:
        key = self._key(label, plain)
        if key in self._keys:
            return
        if len(self._label) >= self.budgets.path_cap:
            raise BudgetExceededError(
                f"extended support graph exceeded {self.budgets.path_cap} edges"
            )
        eid = len(self._label)
        self._keys[key] = eid
        self._label.append(label)
        self._plain.append(plain)
        src = dst = 0
        for i, row in enumerate(label):
            if row:
                src |= 1 << i
                dst |= row
        self._src.append(src)
        self._dst.append(dst)
        if dst & ~src == 0:
            # a border segment: the edge is a funnel atom of src when no
            # earlier edge from src has the same funnel (and plain relation);
            # a plain-tracked graph holds many edges per label
            fun = self._funnel_of.get(label)
            if fun is None:
                fun = self._funnel_of[label] = funnel(label, src)
            atoms = self._funnels_at.setdefault(src, {})
            fkey = self._key(fun, plain)
            if fkey not in atoms:
                atoms[fkey] = eid
                self._funnel_image[eid] = self._table(fun)
                if self.track_plain:
                    self._plain_image[eid] = self._table(plain)
        self._op.append(op)
        self._left.append(left)
        self._right.append(right)
        self._out_at.append(0)
        self._in_at.append(0)
        # src is an older node, so the letter edges _add_node(dst) may add
        # never leave it: registering eid first keeps the order of _by_src[src]
        self._by_src[src].append(eid)
        self._add_node(dst)
        self._by_dst[dst].append(eid)
        self._pending.append(eid)

    def _table(self, rows: Rows) -> Image:
        img = self._tables.get(rows)
        if img is None:
            img = self._tables[rows] = image_table(rows)
        return img

    def _run(self, want: Callable[[int], bool] | None = None) -> int | None:
        # Registers the queued seeds, then pops edges.  A popped edge is
        # composed with every letter edge at its destination and bordered
        # through every funnel atom there; a popped funnel atom is also
        # bordered with the edges into its source.  A pair (edge, atom) is
        # met at whichever of the two loops comes first.  Pops do not follow
        # edge ids (_add_node queues letter edges ahead of the edge that
        # created the node), so "first" is read from the loop start counts,
        # never from ids.  With want, the nodes registered since the last
        # check are tested in order after each seed and pop, and the first
        # that satisfies it is returned; None at the fixpoint.
        out_at, in_at = self._out_at, self._in_at
        funnel_image, plain_image = self._funnel_image, self._plain_image
        product, letter_image, letter = self._product, self._letter_image, self._left
        nodes, seeds, pending = self._nodes, self._seeds, self._pending
        seen = len(nodes)
        while True:
            if want is not None:
                while seen < len(nodes):
                    seen += 1
                    if want(nodes[seen - 1]):
                        return nodes[seen - 1]
            if seeds:
                self._add_node(seeds.pop(0))
                continue
            if not pending:
                return None
            eid = pending.popleft()
            dst = self._dst[eid]
            atoms = list(self._funnels_at.get(dst, {}).values())
            out_at[eid] = len(self._label)
            for f in self._letters_at[dst]:
                img = letter_image[letter[f]]
                product(eid, f, img, img, _COMPOSE)
            # Funnelled destinations are closed under the segment relation,
            # so reading the bordered graph at the border's start or at its
            # end yields the same relation; one edge covers both boundaries.
            for h in atoms:
                if eid >= in_at[h]:
                    product(eid, h, funnel_image[h], plain_image.get(h), _BORDER)
            img = funnel_image.get(eid)
            if img is not None:
                plain_img = plain_image.get(eid)
                in_at[eid] = len(self._label)
                for e in list(self._by_dst[self._src[eid]]):
                    if e != eid and eid >= out_at[e]:
                        product(e, eid, img, plain_img, _BORDER)

    def _product(self, e: int, f: int, img: Image, plain_img: Image | None, op: int) -> None:
        # e's label (and plain relation) times a right factor f, given by the
        # image tables of what it applies; most results are edges already
        # present, recognised here without building a provenance
        self.products += 1
        if self.products > self._max_products:
            raise BudgetExceededError(
                f"extended support graph products reached {self.products}, over"
                f" {PRODUCTS_PER_EDGE} x path_cap = {self._max_products}"
            )
        key = label = tuple(map(img, self._label[e]))
        plain = None
        if self.track_plain:
            plain = tuple(map(plain_img, self._plain[e]))
            key = label, plain
        if key not in self._keys:
            self._add(label, plain, op, e, f)

    # -- search ----------------------------------------------------------------

    def search(self, want: Callable[[int], bool]) -> int | None:
        """The first registered node that satisfies want, closing the graph
        only as far as that takes; None at the fixpoint (see the class
        docstring, also for budget stops and settling)."""
        for s in self._nodes:
            if want(s):
                return s
        if self._stop is not None:
            raise BudgetExceededError(self._stop)
        if self._settled or not (self._seeds or self._pending):
            return None
        try:
            found = self._run(want)
        except BudgetExceededError as exc:
            self._stop = str(exc)
            self._settle()
            # a node registered before the stop may satisfy want
            return self.search(want)
        if found is None:
            self._settle()
        return found

    def registered_at(self, s: int) -> int:
        """Edge count when node s was registered: the edges a search that
        returns s has seen."""
        return self._node_at[s]

    def _settle(self) -> None:
        # keep the nodes, destinations, out-edges and provenance columns
        self._settled = True
        del self._seeds, self._pending, self._keys, self._label, self._plain, self._src, self._by_dst
        del self._letter_image, self._letters_at, self._funnels_at, self._funnel_of
        del self._funnel_image, self._plain_image, self._tables, self._out_at, self._in_at

    # -- views -------------------------------------------------------------

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(self._nodes)

    @property
    def edges(self) -> tuple[tuple[int, Rows, int], ...]:
        return tuple(zip(self._src, self._label, self._dst))

    def edge_parts(self, eid: int) -> tuple[int, Rows, int]:
        return self._src[eid], self._label[eid], self._dst[eid]

    @property
    def edge_count(self) -> int:
        return len(self._dst)

    def out_edges(self, s: int) -> tuple[int, ...]:
        """Ids of the edges from node s, in id order."""
        return tuple(self._by_src.get(s, ()))

    def in_edges(self, t: int) -> tuple[int, ...]:
        """Ids of the edges into node t, in id order."""
        return tuple(self._by_dst.get(t, ()))

    def edge_plain(self, eid: int) -> Rows:
        """Unrestricted one-word relation of the edge's complete witness word.

        A plain-tracked graph keys every edge on it.  A label-keyed graph
        derives the edges added since its last call, in one forward pass
        over provenance: a word edge has its letter's relation, and a
        compose or border edge the composition of its operands' (which have
        smaller ids), so each edge gets the plain relation of its first
        derivation.  The right operand is always a letter edge or a funnel
        atom, so that plain relation is a product of letter relations and
        atoms' plains.
        """
        if not self.track_plain and self._plain_derived < len(self._op):
            plain, op, left, right = self._plain, self._op, self._left, self._right
            # few distinct operand pairs recur across many edges
            composed: dict[tuple[Rows, Rows], Rows] = {}
            for e in range(self._plain_derived, len(op)):
                if op[e] == _WORD:
                    continue
                pair = plain[left[e]], plain[right[e]]
                if pair not in composed:
                    composed[pair] = compose(*pair)
                plain[e] = composed[pair]
            self._plain_derived = len(op)
        return self._plain[eid]

    # -- witness flattening --------------------------------------------------

    def witness_steps(self, eid: int) -> list[Step]:
        """Replay steps for an edge: one bordered graph, read at its last
        boundary, whose destination there is the edge's destination."""
        memo, op, left, right = self._steps_memo, self._op, self._left, self._right
        stack = [eid]
        while stack:
            e = stack[-1]
            if e in memo:
                stack.pop()
                continue
            if op[e] == _WORD:
                memo[e] = ((left[e],), (), 1)
                stack.pop()
                continue
            missing = [x for x in (left[e], right[e]) if x not in memo]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            (w1, b1, _), (w2, b2, c2) = memo[left[e]], memo[right[e]]
            off = len(w1)
            borders = b1 + tuple((x + off, y + off) for x, y in b2)
            if op[e] == _BORDER:
                borders += ((off, off + c2),)
            memo[e] = (w1 + w2, borders, off + c2)
        return [memo[eid]]

    # -- reachability ---------------------------------------------------------

    def reachable_with_steps(self, start: int, limit: int | None = None) -> dict[int, list[Step]]:
        """Nodes #-reachable from start over the edges with ids below limit
        (all edges when None), each with the replay steps of a shortest path
        to it, in breadth-first order: graphs.shortest_words over edge ids,
        each path turned into steps at the end."""
        by_src, dst_of = self._by_src, self._dst
        if limit is None:
            limit = len(dst_of)
        paths = shortest_words(
            [(start, ())],
            lambda s: ((e, dst_of[e]) for e in by_src.get(s, ()) if e < limit),
        )
        return {t: [self.witness_steps(e)[0] for e in path] for t, path in paths}

    def dot(self) -> str:
        a = self.automaton
        lines = ["digraph extended {", "  rankdir=LR;"]
        for s in sorted(self._nodes):
            lines.append(f'  "{_set_label(a, s)}";')
        rendered = []
        for eid in range(len(self._label)):
            (step,) = self.witness_steps(eid)
            label = _step_label(a, step)
            style = ", style=dashed" if step[1] else ""
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
    word, borders, _ = step
    text = _word_text(a, word)
    if borders:
        text += " " + "".join(f"({x},{y})" for x, y in borders)
    return text


def build_extended_support_graph(
    a: Automaton,
    seeds: Iterable | None = None,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> ExtendedSupportGraph:
    """Close a new graph from Supp(alpha) and the given seeds to its fixpoint.

    The #-searches do not build graphs here: they resume the closures the
    Automaton keeps (_kept_search).
    """
    return ExtendedSupportGraph(a, budgets, [a.initial_support, *(seeds or [])])


def replay_steps(a: Automaton, start, steps: Sequence[Step]) -> int:
    """Fold replay steps through layered graphs; returns the final support mask."""
    cur = as_mask(a, start)
    for word, borders, cut in steps:
        lg = border_chain(linked_graph_of_word(a, cur, word), borders)
        cur = lg.boundary(cut)
    return cur


def _check_replay(a: Automaton, start: int, steps: Sequence[Step], want: int) -> None:
    """Re-execute witness steps through the layered graphs; a mismatch is an
    internal error, never a wrong answer."""
    got = replay_steps(a, start, steps)
    if got != want:
        raise RuntimeError(
            f"witness replay reached {a.names(got)} instead of {a.names(want)}"
        )


def _steps_payload(a: Automaton, steps: Sequence[Step]) -> list[dict]:
    return [
        {
            "word": [a.alphabet[k] for k in word],
            "borders": [list(b) for b in borders],
            "cut": cut,
        }
        for word, borders, cut in steps
    ]


def _kept_search(
    a: Automaton, origin: int, want: Callable[[int], bool], budgets: Budgets
) -> tuple[ExtendedSupportGraph, int | None]:
    """The closure from origin that a keeps for budgets, and its search for
    want (ExtendedSupportGraph.search).

    The closure reads only the letter relations, so one per origin and
    Budgets value serves every #-search on a, and on what with_acceptance
    and with_initial derive from it, for as long as a lives.  Anything but
    a budget stop that escapes the search drops the closure: an edge popped
    but not fully multiplied must never yield a later "no".
    """
    key = origin, budgets
    graph = a._searches.get(key)
    if graph is None:
        graph = a._searches[key] = ExtendedSupportGraph(a, budgets, ())
        graph._queue([origin])
    try:
        return graph, graph.search(want)
    except BudgetExceededError:
        raise
    except BaseException:
        del a._searches[key]
        raise


def _sharp_search(
    a: Automaton, start: int, want: Callable[[int], bool], budgets: Budgets
) -> tuple[int, list[Step]] | None:
    """The first support #-reachable from start that satisfies want, with
    the steps of a shortest path to it over the edges registered before it;
    None when there is none.  The closure from start registers only
    supports #-reachable from it, so a find reads a prefix of it and a None
    the whole of it.  The steps are replayed before being returned; a
    mismatch would be an internal error, never a wrong answer.
    """
    graph, t = _kept_search(a, start, want, budgets)
    if t is None:
        return None
    steps = graph.reachable_with_steps(start, graph.registered_at(t))[t]
    _check_replay(a, start, steps, t)
    return t, steps


def sharp_reachable(a: Automaton, C, D, budgets: Budgets = DEFAULT_BUDGETS) -> Verdict:
    """Is D #-reachable from C?  Yes-verdicts carry replayed witness steps.

    C -> C holds by the trivial path convention (empty step list).  The
    witness steps are _sharp_search's, one per edge of a shortest path over
    the edges of C's closure registered before D; the closure is the one
    the Automaton keeps for C and budgets, resumed only as far as D.
    """
    cmask, dmask = as_mask(a, C), as_mask(a, D)
    if cmask == 0 or dmask == 0:
        raise InputError("empty support set")
    found = _sharp_search(a, cmask, dmask.__eq__, budgets)
    if found is None:
        return Verdict("no", reason="not reachable in the extended support graph")
    return Verdict("yes", {"steps": _steps_payload(a, found[1])})


# ---------------------------------------------------------------------------
# Limit procedures for structurally simple automata


def _limit_reach(a: Automaton, budgets: Budgets) -> Verdict:
    """Limit reach on a structurally simple automaton (decide runs the
    gate): yes iff some subset of the target is #-reachable from the initial
    support; the witness steps are replayed before they are returned."""
    fmask = a.acceptance_mask()
    found = _sharp_search(a, a.initial_support, lambda s: s & ~fmask == 0, budgets)
    if found is None:
        reason = "no subset of the target is #-reachable from the initial support"
        return Verdict("no", reason=reason)
    t, steps = found
    return Verdict("yes", {"support": list(a.names(t)), "steps": _steps_payload(a, steps)})


def _pumped_length(step: Step, k: int) -> int:
    """len(_pump_step(step, k)), from the atom lengths alone."""
    word, borders, cut = step
    lens = [1] * len(word)
    for n1, n2 in borders:
        lens[n1 - 1] += k * sum(lens[n1:n2])
    return sum(lens[:cut])


def _pump_step(step: Step, k: int) -> list[int]:
    """The step's word up to its cut, each border segment appended k times
    to the atom before it.

    Only what the cut reads is built: walking the borders backwards, a
    border is applied only when its target atom is still read, and then its
    segment is read too.
    """
    word, borders, cut = step
    read = (1 << cut) - 1
    applied = []
    for n1, n2 in reversed(borders):
        hit = read >> (n1 - 1) & 1
        applied.append(hit)
        if hit:
            read |= (1 << n2) - (1 << n1)
    atoms: list[list[int]] = [[x] for x in word]
    for (n1, n2), hit in zip(borders, reversed(applied)):
        if hit:
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

    The witness is _sharp_search's first subset of the target #-reachable
    from Supp(alpha), read from the closure the Automaton keeps for
    Supp(alpha) and budgets, with its replayed steps; Supp(alpha) inside
    the target gives no steps and the empty word.  Each border segment of the
    witness is repeated k times; k doubles until the exactly computed
    probability passes the threshold or budgets.word_cap trips.  InputError
    when no subset of the target is #-reachable, which the full closure shows.
    """
    bound = as_fraction(eps, "eps")
    if bound <= 0 or bound >= 1:
        raise InputError("eps must satisfy 0 < eps < 1")
    tmask = as_mask(a, target)
    if tmask == 0:
        raise InputError("empty target set")
    found = _sharp_search(a, a.initial_support, lambda s: s & ~tmask == 0, budgets)
    if found is None:
        raise InputError("no subset of the target is #-reachable from the initial support")
    return _pumped_word(a, found[1], tmask, bound, budgets)


def _pumped_word(
    a: Automaton, steps: Sequence[Step], tmask: int, bound: Fraction, budgets: Budgets
) -> tuple[str, ...]:
    """The word of steps that #-reach a subset of tmask, each border segment
    repeated k times, for the first k in 1, 2, 4, ... at which the exact
    probability of tmask is at least 1 - bound.  budgets.word_cap ends the
    doubling: every pumped border adds at least k letters, and the
    BudgetExceededError carries the best probability reached as best.  A
    word that stays the same from k to 2k has no border left to pump, so
    its probability is fixed; only corrupt steps do that: RuntimeError.
    """
    best = Fraction(0)
    k, last = 1, -1
    while True:
        length = sum(_pumped_length(step, k) for step in steps)
        if length > budgets.word_cap:
            raise BudgetExceededError(
                f"pumped word length {length} exceeds cap; best probability {_short(best)}",
                best=best,
            )
        if length == last:
            raise RuntimeError(
                f"pumped word stopped growing at length {length}; best {_short(best)}"
            )
        word: list[int] = []
        for step in steps:
            word.extend(_pump_step(step, k))
        vec = vector_product(a.initial, a.scaled_matrices, word)
        p = sum((vec[i] for i in bits(tmask)), Fraction(0))
        if p >= 1 - bound:
            return a.letters(word)
        best = max(best, p)
        k, last = 2 * k, length


def probability_text(p: Fraction) -> str:
    """p as a witness or a message shows it: exact str(p) whenever Python
    can render it, else _short(p).  The exact p stays recomputable by
    replaying the witness's prefix and period."""
    try:
        return str(p)
    except ValueError:
        return _short(p)


def _short(p: Fraction) -> str:
    """A probability for a message: exact while its terms fit in 128 bits,
    else "~" and its first 12 decimals, rounded down, in integer arithmetic
    (str of an int past 4300 digits raises ValueError)."""
    if max(p.numerator.bit_length(), p.denominator.bit_length()) <= 128:
        return str(p)
    whole, rest = divmod(p.numerator, p.denominator)
    return f"~{whole}.{rest * 10**12 // p.denominator:012d}"


def _limit_parity(a: Automaton, budgets: Budgets) -> Verdict:
    """Limit parity on a structurally simple automaton (decide runs the
    gate): yes iff profiles.almost_period finds, over the #-reachable
    supports in breadth-first order, a support A and a period that maps A
    into A and accepts almost surely on it.  The steps to A are replayed and
    the period's exact lasso probability from the uniform distribution on A
    is rechecked to be 1; a failed recheck raises RuntimeError.  The witness
    has A, the period and a pumped prefix whose lasso accepts with
    probability at least 9/10, or, when synthesis stops on a budget, prefix
    and probability None and prefix_error saying why.  The #-reachable
    supports are those of the closure the Automaton keeps for Supp(alpha)
    and budgets, read to its fixpoint."""
    graph, _ = _kept_search(a, a.initial_support, lambda s: False, budgets)
    reach = graph.reachable_with_steps(a.initial_support)
    found = almost_period(a, reach, budgets.monoid)
    if found is None:
        return Verdict(
            "no", reason="no #-reachable support admits an almost-surely accepting period"
        )
    node, rho = found
    _check_replay(a, a.initial_support, reach[node], node)
    period = a.letters(rho)
    # recheck the period without the monoid: from the uniform
    # distribution on the stable support it accepts almost surely
    uniform = [Fraction(node >> i & 1, node.bit_count()) for i in range(a.n)]
    p = lasso.lasso_acceptance_probability(a.with_initial(uniform), LassoWord((), period))
    if p != 1:
        raise RuntimeError(
            f"period {' '.join(period)} accepts with probability {probability_text(p)}, not 1,"
            f" from the uniform distribution on {a.names(node)}"
        )
    witness = {
        "support": list(a.names(node)),
        "period": list(period),
        "prefix": None,
        "probability": None,
    }
    bound = Fraction(1, 10)
    # pump toward the first #-reachable support inside the stable one
    steps = next(st for t, st in reach.items() if t & ~node == 0)
    try:
        prefix = _pumped_word(a, steps, node, bound, budgets)
    except BudgetExceededError as exc:
        witness["prefix_error"] = f"{type(exc).__name__}: {exc}"
    else:
        p = lasso.lasso_acceptance_probability(a, LassoWord(prefix, period))
        if p < 1 - bound:
            raise RuntimeError(
                f"pumped lasso accepts with probability {probability_text(p)} < {1 - bound}"
            )
        witness["prefix"] = list(prefix)
        witness["probability"] = probability_text(p)
    return Verdict("yes", witness)

"""Layered bipartite graphs of words, compaction, and border actions.

A linked graph records, layer by layer, which positive transitions a word
can take from a starting support.  Each layer is a bipartite graph on the
state set, stored as an n*n bitmask: bit i*n + j encodes the edge (i, j).
Boundaries are numbered 0..length, boundary 0 being the origin; a border
(n1, n2) with 1 <= n1 < n2 <= length rewires layer n1 through the recurrent
part of the segment made of layers n1+1..n2 and drops downstream edges
whose sources died.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import Automaton, as_mask, bits
from .errors import InputError
from .graphs import bottom_states_mask, image_table, reachable_mask


def layer_rows(layer: int, n: int) -> tuple[int, ...]:
    """Per-source destination masks of a bipartite layer mask."""
    full = (1 << n) - 1
    return tuple(layer >> (i * n) & full for i in range(n))


def layer_of_rows(rows: Sequence[int], src_mask: int, n: int) -> int:
    layer = 0
    for i in bits(src_mask):
        layer |= rows[i] << (i * n)
    return layer


def layer_sources(layer: int, n: int) -> int:
    full = (1 << n) - 1
    out = 0
    for i in range(n):
        if layer >> (i * n) & full:
            out |= 1 << i
    return out


def layer_dests(layer: int, n: int) -> int:
    full = (1 << n) - 1
    out = 0
    for i in range(n):
        out |= layer >> (i * n) & full
    return out


def layer_pairs(layer: int, n: int) -> Iterator[tuple[int, int]]:
    for b in bits(layer):
        yield divmod(b, n)


def compose_layers(x: int, y: int, n: int) -> int:
    """Relational composition of two bipartite layer masks."""
    img = image_table(layer_rows(y, n))
    out = 0
    for i, row in enumerate(layer_rows(x, n)):
        out |= img(row) << (i * n)
    return out


@dataclass(frozen=True)
class LinkedGraph:
    """Nonempty sequence of chained bipartite layers on n states."""

    n: int
    layers: tuple[int, ...]

    def __post_init__(self):
        if not self.layers:
            raise InputError("a linked graph needs at least one layer")
        prev = None
        for idx, layer in enumerate(self.layers):
            src = layer_sources(layer, self.n)
            if src == 0:
                raise InputError(f"layer {idx + 1} is empty")
            if prev is not None and src != prev:
                raise InputError(
                    f"sources of layer {idx + 1} differ from the previous destinations"
                )
            prev = layer_dests(layer, self.n)

    def __len__(self) -> int:
        return len(self.layers)

    @property
    def org(self) -> int:
        return layer_sources(self.layers[0], self.n)

    @property
    def dest(self) -> int:
        return layer_dests(self.layers[-1], self.n)

    def boundary(self, i: int) -> int:
        """Support after i layers; boundary 0 is the origin."""
        if not 0 <= i <= len(self.layers):
            raise InputError(f"boundary index {i} out of range")
        if i == 0:
            return self.org
        return layer_dests(self.layers[i - 1], self.n)

    def pairs(self, i: int) -> frozenset[tuple[int, int]]:
        """Edges of layer i (1-indexed) as state-index pairs."""
        if not 1 <= i <= len(self.layers):
            raise InputError(f"layer index {i} out of range")
        return frozenset(layer_pairs(self.layers[i - 1], self.n))


def concat(lg1: LinkedGraph, lg2: LinkedGraph) -> LinkedGraph:
    if lg1.n != lg2.n:
        raise InputError("linked graphs live on different state counts")
    if lg1.dest != lg2.org:
        raise InputError("destination of the first graph differs from the origin of the second")
    return LinkedGraph(lg1.n, lg1.layers + lg2.layers)


def linked_graph_of_word(a: Automaton, A, word) -> LinkedGraph:
    """Layered positive-transition graph of a word from the support A."""
    start = as_mask(a, A)
    if start == 0:
        raise InputError("empty starting support")
    w = a.word(word)
    if not w:
        raise InputError("empty word")
    n = a.n
    layers = []
    cur = start
    for k in w:
        rows = a.relation(k)
        layer = layer_of_rows(rows, cur, n)
        layers.append(layer)
        cur = layer_dests(layer, n)
    return LinkedGraph(n, tuple(layers))


def compaction(lg: LinkedGraph) -> int:
    """Compose all layers into one bipartite graph from org to dest."""
    n = lg.n
    comp = layer_of_rows([1 << i for i in range(n)], lg.org, n)
    for layer in lg.layers:
        comp = compose_layers(comp, layer, n)
    return comp


def rec(lg: LinkedGraph) -> int:
    """States in a terminal component of the compaction.

    Requires dest(lg) <= org(lg) so the compaction is a digraph on org.
    """
    if lg.dest & ~lg.org:
        raise InputError("rec needs the destination inside the origin")
    return bottom_states_mask(layer_rows(compaction(lg), lg.n), lg.org)


def rec_from(s: int, lg: LinkedGraph) -> int:
    """Part of rec(lg) reachable from state index s in the compaction."""
    if not lg.org >> s & 1:
        raise InputError("state is not in the origin")
    rows = layer_rows(compaction(lg), lg.n)
    return reachable_mask(rows, 1 << s, lg.org) & rec(lg)


def is_border(lg: LinkedGraph, b: tuple[int, int]) -> bool:
    n1, n2 = b
    if not (1 <= n1 < n2 <= len(lg.layers)):
        return False
    return lg.boundary(n2) & ~lg.boundary(n1) == 0


def borders(lg: LinkedGraph) -> list[tuple[int, int]]:
    """All valid borders, ordered by (n1, n2)."""
    m = len(lg.layers)
    return [
        (n1, n2)
        for n1 in range(1, m)
        for n2 in range(n1 + 1, m + 1)
        if lg.boundary(n2) & ~lg.boundary(n1) == 0
    ]


def border_action(lg: LinkedGraph, b: tuple[int, int]) -> LinkedGraph:
    """Apply one border: rewire layer n1 into the recurrent part of the
    segment n1+1..n2, then restrict later layers to surviving sources."""
    n1, n2 = b
    if not (1 <= n1 < n2 <= len(lg.layers)):
        raise InputError(f"({n1},{n2}) is not a border: indices out of range")
    if lg.boundary(n2) & ~lg.boundary(n1):
        raise InputError(f"({n1},{n2}) is not a border: boundary {n2} leaves boundary {n1}")
    n = lg.n
    seg = LinkedGraph(n, lg.layers[n1:n2])
    seg_rows = layer_rows(compaction(seg), n)
    rec_states = rec(seg)
    reach = tuple(
        reachable_mask(seg_rows, 1 << y, seg.org) if seg.org >> y & 1 else 0
        for y in range(n)
    )
    rewired = 0
    for x, y in layer_pairs(lg.layers[n1 - 1], n):
        rewired |= (reach[y] & rec_states) << (x * n)
    new_layers = list(lg.layers)
    new_layers[n1 - 1] = rewired
    cur = layer_dests(rewired, n)
    for idx in range(n1, len(lg.layers)):
        kept = 0
        for i in bits(cur):
            kept |= lg.layers[idx] & (((1 << n) - 1) << (i * n))
        new_layers[idx] = kept
        cur = layer_dests(kept, n)
    return LinkedGraph(n, tuple(new_layers))


def border_chain(lg: LinkedGraph, chain) -> LinkedGraph:
    """Apply a sequence of borders in order, validating each in turn."""
    out = lg
    for b in chain:
        out = border_action(out, (int(b[0]), int(b[1])))
    return out

"""Layered bipartite graphs of words, compaction, and border actions.

A linked graph records, layer by layer, which positive transitions a word
can take from a starting support.  Each layer is a bipartite graph on the
state set, held as a relation in rows (graphs.Rows): layer[i] is the mask
of the destinations of state i, and the row of a state the layer does not
start from is empty.  Boundaries are numbered 0..length, boundary 0 being
the origin; a border (n1, n2) with 1 <= n1 < n2 <= length rewires layer n1
through the recurrent part of the segment made of layers n1+1..n2 and
drops downstream edges whose sources died.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import Automaton, as_mask, bits
from .errors import InputError
from .graphs import Rows, bottom_states_mask, compose, image, reachable_mask, restrict


def layer_sources(layer: Sequence[int]) -> int:
    """States with at least one edge in the layer."""
    out = 0
    for i, row in enumerate(layer):
        if row:
            out |= 1 << i
    return out


def layer_pairs(layer: Sequence[int]) -> Iterator[tuple[int, int]]:
    for i, row in enumerate(layer):
        for j in bits(row):
            yield i, j


@dataclass(frozen=True)
class LinkedGraph:
    """Nonempty sequence of chained bipartite layers on n states."""

    n: int
    layers: tuple[Rows, ...]

    def __post_init__(self):
        if not self.layers:
            raise InputError("a linked graph needs at least one layer")
        full = (1 << self.n) - 1
        prev = None
        for idx, layer in enumerate(self.layers):
            if len(layer) != self.n:
                raise InputError(f"layer {idx + 1} has {len(layer)} rows on {self.n} states")
            if any(row & ~full for row in layer):
                raise InputError(f"layer {idx + 1} has an edge to a state index >= {self.n}")
            src = layer_sources(layer)
            if src == 0:
                raise InputError(f"layer {idx + 1} is empty")
            if prev is not None and src != prev:
                raise InputError(
                    f"sources of layer {idx + 1} differ from the previous destinations"
                )
            prev = image(layer, full)

    def __len__(self) -> int:
        return len(self.layers)

    @property
    def org(self) -> int:
        return layer_sources(self.layers[0])

    @property
    def dest(self) -> int:
        return self.boundary(len(self.layers))

    def boundary(self, i: int) -> int:
        """Support after i layers; boundary 0 is the origin."""
        if not 0 <= i <= len(self.layers):
            raise InputError(f"boundary index {i} out of range")
        if i == 0:
            return self.org
        return image(self.layers[i - 1], (1 << self.n) - 1)

    def pairs(self, i: int) -> frozenset[tuple[int, int]]:
        """Edges of layer i (1-indexed) as state-index pairs."""
        if not 1 <= i <= len(self.layers):
            raise InputError(f"layer index {i} out of range")
        return frozenset(layer_pairs(self.layers[i - 1]))


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
    layers = []
    cur = start
    for k in w:
        layer = restrict(a.relation(k), cur)
        layers.append(layer)
        cur = image(layer, cur)
    return LinkedGraph(a.n, tuple(layers))


def compaction(lg: LinkedGraph) -> Rows:
    """Compose all layers into one bipartite graph from org to dest."""
    comp = lg.layers[0]
    for layer in lg.layers[1:]:
        comp = compose(comp, layer)
    return comp


def rec(lg: LinkedGraph) -> int:
    """States in a terminal component of the compaction.

    Requires dest(lg) <= org(lg) so the compaction is a digraph on org.
    """
    if lg.dest & ~lg.org:
        raise InputError("rec needs the destination inside the origin")
    return bottom_states_mask(compaction(lg), lg.org)


def rec_from(s: int, lg: LinkedGraph) -> int:
    """Part of rec(lg) reachable from state index s in the compaction."""
    if s < 0 or not lg.org >> s & 1:
        raise InputError("state is not in the origin")
    return reachable_mask(compaction(lg), 1 << s, lg.org) & rec(lg)


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
    seg_rows = compaction(seg)
    rec_states = bottom_states_mask(seg_rows, seg.org)
    funnel = tuple(
        reachable_mask(seg_rows, 1 << y, seg.org) & rec_states if seg.org >> y & 1 else 0
        for y in range(n)
    )
    new_layers = list(lg.layers)
    new_layers[n1 - 1] = compose(lg.layers[n1 - 1], funnel)
    cur = image(new_layers[n1 - 1], lg.boundary(n1 - 1))
    for idx in range(n1, len(lg.layers)):
        new_layers[idx] = restrict(lg.layers[idx], cur)
        cur = image(new_layers[idx], cur)
    return LinkedGraph(n, tuple(new_layers))


def border_chain(lg: LinkedGraph, chain) -> LinkedGraph:
    """Apply a sequence of borders in order, validating each in turn."""
    out = lg
    for b in chain:
        out = border_action(out, (int(b[0]), int(b[1])))
    return out

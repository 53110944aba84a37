"""Relation kernels on bitmask digraphs: images, composition, reachability,
reach closures and strongly connected components.

A relation on state indices is held one way throughout the library: as
rows (Rows), a tuple with rows[i] the mask of the successors of state i.
The same tuple is a bitmask digraph, and this module is the one home of
the operations on it.  A relation applied once to a mask goes through
image, a loop over the mask's bits; a relation applied many times goes
through image_table, which pays for a lookup table once and then costs one
lookup per 8-bit chunk.  compose applies the right factor's table to every
row of the left one, and restrict empties the rows outside a mask, which
turns a relation into its part from a given support.

Recurrent (bottom) classes come from reach_closure, one Warshall pass over
the rows: a state is recurrent when every state it reaches reaches it back,
and its class is then everything it reaches.  bottom_scc_masks,
bottom_states_mask and funnel (each state's reachable recurrent states, the
border rule's rewiring) are read off that closure.  scc_masks gives every
component in reverse topological order, for the callers that need the
transient ones too.

shortest_words is the one breadth-first search behind every closure that
records a shortest witness word: the profile monoids, the subset
construction, the path search over single states and the #-reachability
walk of the extended support graph.
"""
from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .core import bits
from .errors import BudgetExceededError

Rows = tuple[int, ...]
Image = Callable[[int], int]


def image(rows: Sequence[int], mask: int) -> int:
    """Union of rows[i] over the states i in mask."""
    out = 0
    for i in bits(mask):
        out |= rows[i]
    return out


def image_table(rows: Sequence[int]) -> Image:
    """img(m) = image(rows, m), by table lookup.

    One table per 8-bit chunk of a mask, each with at most 256 entries, so
    the tables stay small at any state count.
    """
    tables = []
    for base in range(0, len(rows), 8):
        table = [0]
        for r in rows[base:base + 8]:
            table += [m | r for m in table]
        tables.append(table)
    if len(tables) == 1:
        return tables[0].__getitem__

    def img(mask: int) -> int:
        out = 0
        for table in tables:
            out |= table[mask & 0xFF]
            mask >>= 8
        return out

    return img


def compose(x: Sequence[int], y: Sequence[int]) -> Rows:
    """Relational composition: x, then y."""
    return tuple(map(image_table(y), x))


def restrict(rows: Sequence[int], mask: int) -> Rows:
    """The relation with the rows of the states outside mask emptied."""
    return tuple(row if mask >> i & 1 else 0 for i, row in enumerate(rows))


def reachable_mask(rows: Sequence[int], seeds: int, node_mask: int = -1) -> int:
    """States reachable from the seed mask, seeds included, within node_mask."""
    seen = frontier = seeds & node_mask
    while frontier:
        frontier = image(rows, frontier) & node_mask & ~seen
        seen |= frontier
    return seen


def shortest_words(
    starts: Iterable, successors: Callable, budget: int | None = None, what: str = ""
) -> Iterator[tuple[Hashable, tuple]]:
    """Elements reachable from the starts, each with its shortest word, as discovered.

    Breadth first: the starts with their given words (a repeated start is
    skipped), then, element by element, each (label, successor) pair of
    successors(element) in order; a new successor's word is the element's
    plus label.  The starts are not counted against a budget; a new element
    once budget elements are known raises BudgetExceededError, so a caller
    that stops early never pays for the rest.
    """
    words: dict = {}
    for s, w in starts:
        words.setdefault(s, w)
    yield from words.items()
    queue = deque(words)
    while queue:
        e = queue.popleft()
        w = words[e]
        for label, t in successors(e):
            if t not in words:
                if budget is not None and len(words) >= budget:
                    raise BudgetExceededError(f"{what} exceeded {budget} elements")
                words[t] = wt = w + (label,)
                queue.append(t)
                yield t, wt


def scc_masks(rows: Sequence[int], node_mask: int) -> list[int]:
    """SCCs of the digraph restricted to node_mask, as masks in reverse topological order.

    Reverse topological: every edge goes from a later list entry to an earlier
    one, so bottom components come first.
    """
    order: list[int] = []
    seen = 0
    for root in bits(node_mask):
        if seen >> root & 1:
            continue
        # iterative DFS recording finish order
        stack = [(root, rows[root] & node_mask)]
        seen |= 1 << root
        while stack:
            node, todo = stack[-1]
            if todo:
                low = todo & -todo
                stack[-1] = (node, todo ^ low)
                child = low.bit_length() - 1
                if not (seen >> child & 1):
                    seen |= 1 << child
                    stack.append((child, rows[child] & node_mask))
            else:
                order.append(node)
                stack.pop()
    # transpose
    n = len(rows)
    trans = [0] * n
    for i in bits(node_mask):
        for j in bits(rows[i] & node_mask):
            trans[j] |= 1 << i
    comps: list[int] = []
    assigned = 0
    for root in reversed(order):
        if assigned >> root & 1:
            continue
        comp = 1 << root
        assigned |= 1 << root
        frontier = [root]
        while frontier:
            i = frontier.pop()
            for j in bits(trans[i] & node_mask & ~assigned):
                assigned |= 1 << j
                comp |= 1 << j
                frontier.append(j)
        comps.append(comp)
    comps.reverse()
    return comps


def reach_closure(rows: Sequence[int], node_mask: int) -> list[int]:
    """r[i], the states reachable from i within node_mask, i included; 0 for
    i outside node_mask.

    One Warshall pass: for each pivot k, every state that reaches k gains
    what k reaches.
    """
    r = [row & node_mask | 1 << i if node_mask >> i & 1 else 0 for i, row in enumerate(rows)]
    for k in range(len(r)):
        rk, bk = r[k], 1 << k
        # a pivot outside the mask (rk == 0) or reaching only itself adds nothing
        if rk & ~bk:
            r = [x | rk if x & bk else x for x in r]
    return r


def _bottom_classes(r: Sequence[int]) -> list[int]:
    """Bottom classes of a reach closure r, ordered by their least state.

    i is recurrent iff every state j it reaches has r[j] == r[i] (j reaches
    i back), and its class is then r[i]; the class is listed at its least
    state.
    """
    out = []
    seen = 0
    for i, ri in enumerate(r):
        if not ri or seen >> i & 1:
            continue
        rest = ri
        while rest:
            low = rest & -rest
            if r[low.bit_length() - 1] != ri:
                break
            rest ^= low
        else:
            out.append(ri)
            seen |= ri
    return out


def bottom_scc_masks(rows: Sequence[int], node_mask: int) -> list[int]:
    """SCCs with no edge leaving them, restricted to node_mask, ordered by
    their least state."""
    return _bottom_classes(reach_closure(rows, node_mask))


def bottom_states_mask(rows: Sequence[int], node_mask: int) -> int:
    """Union of the bottom SCCs within node_mask: the recurrent states."""
    return sum(bottom_scc_masks(rows, node_mask))


def funnel(rows: Sequence[int], node_mask: int) -> Rows:
    """Per state y of node_mask, the recurrent states within node_mask that y
    reaches; 0 for y outside node_mask."""
    r = reach_closure(rows, node_mask)
    rec = sum(_bottom_classes(r))
    return tuple(x & rec for x in r)

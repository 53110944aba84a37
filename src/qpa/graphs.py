"""Small graph helpers: image tables, reachability and strongly connected components.

Two digraph flavors are used in this package: bitmask digraphs on state
indices (rows[i] = successor mask) and dict digraphs on hashable nodes
(support sets, product states).  A bitmask digraph is also a boolean
relation; image_table is the one kernel that applies such a relation to a
mask, and every relational composition in the package goes through it.
"""
from __future__ import annotations

from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .core import bits

Image = Callable[[int], int]


def image_table(rows: Sequence[int]) -> Image:
    """img(m) = union of rows[i] over the states i in m, by table lookup.

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


def reachable_mask(rows: Iterable[int] | tuple[int, ...], seeds: int, node_mask: int = -1) -> int:
    """States reachable from the seed mask, seeds included, within node_mask."""
    rows = tuple(rows)
    seen = seeds & node_mask
    frontier = seen
    while frontier:
        nxt = 0
        for i in bits(frontier):
            nxt |= rows[i]
        nxt &= node_mask
        frontier = nxt & ~seen
        seen |= frontier
    return seen


def scc_masks(rows: tuple[int, ...], node_mask: int) -> list[int]:
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


def bottom_scc_masks(rows: tuple[int, ...], node_mask: int) -> list[int]:
    """SCCs with no edge leaving them, restricted to node_mask."""
    out = []
    for comp in scc_masks(rows, node_mask):
        if all(rows[i] & node_mask & ~comp == 0 for i in bits(comp)):
            out.append(comp)
    return out


def bottom_states_mask(rows: tuple[int, ...], node_mask: int) -> int:
    m = 0
    for comp in bottom_scc_masks(rows, node_mask):
        m |= comp
    return m


def sccs(succ: Mapping[Hashable, Iterable[Hashable]]) -> list[list[Hashable]]:
    """SCCs of a dict digraph in reverse topological order (bottoms first)."""
    nodes = list(succ)
    index = {v: i for i, v in enumerate(nodes)}
    adj = [[index[w] for w in succ[v] if w in index] for v in nodes]
    order: list[int] = []
    seen = [False] * len(nodes)
    for root in range(len(nodes)):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(adj[root]))]
        while stack:
            node, it = stack[-1]
            advanced = False
            for child in it:
                if not seen[child]:
                    seen[child] = True
                    stack.append((child, iter(adj[child])))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
    trans: list[list[int]] = [[] for _ in nodes]
    for i, out in enumerate(adj):
        for j in out:
            trans[j].append(i)
    comp_of = [-1] * len(nodes)
    comps: list[list[Hashable]] = []
    for root in reversed(order):
        if comp_of[root] >= 0:
            continue
        cid = len(comps)
        comp = [root]
        comp_of[root] = cid
        frontier = [root]
        while frontier:
            i = frontier.pop()
            for j in trans[i]:
                if comp_of[j] < 0:
                    comp_of[j] = cid
                    comp.append(j)
                    frontier.append(j)
        comps.append([nodes[i] for i in comp])
    comps.reverse()
    return comps


def has_cycle_ignoring_self_loops(succ: Mapping[Hashable, Iterable[Hashable]]) -> bool:
    """True iff the digraph has a cycle through at least two distinct nodes."""
    return any(len(c) > 1 for c in sccs(succ))

import random

from hypothesis import given, settings, strategies as st

from qpa.core import bits
from qpa.graphs import (
    bottom_scc_masks,
    bottom_states_mask,
    compose,
    funnel,
    image,
    image_table,
    reach_closure,
    reachable_mask,
    restrict,
    scc_masks,
)
from qpa.linked import LinkedGraph, border_action

import oracles as O


def test_image_and_table_agree():
    # up to 19 states, so the table spans up to three 8-bit chunks
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(1, 19)
        rows = _random_rows(rng, n)
        img = image_table(rows)
        for _ in range(20):
            m = rng.randrange(1 << n)
            union = 0
            for i in range(n):
                if m >> i & 1:
                    union |= rows[i]
            assert image(rows, m) == img(m) == union


def _pair_set(rows):
    return {(i, j) for i, row in enumerate(rows) for j in range(len(rows)) if row >> j & 1}


def test_compose_and_restrict_match_pair_sets():
    # up to 10 states, so the right factor's table spans two 8-bit chunks
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(1, 10)
        x, y = _random_rows(rng, n), _random_rows(rng, n)
        px, py = _pair_set(x), _pair_set(y)
        want = {(i, k) for i, j in px for j2, k in py if j == j2}
        got = compose(x, y)
        assert len(got) == n and _pair_set(got) == want
        m = rng.randrange(1 << n)
        cut = restrict(x, m)
        assert len(cut) == n
        assert _pair_set(cut) == {(i, j) for i, j in px if m >> i & 1}


def test_reachable_mask_basic():
    rows = (0b010, 0b100, 0b100)
    assert reachable_mask(rows, 0b001) == 0b111
    assert reachable_mask(rows, 0b100) == 0b100
    assert reachable_mask(rows, 0b001, node_mask=0b011) == 0b011


def test_scc_masks_order_bottoms_first():
    # 0 -> 1 -> 2, 2 -> 1: sccs {0}, {1,2}; bottom {1,2}
    rows = (0b010, 0b100, 0b010)
    comps = scc_masks(rows, 0b111)
    assert set(comps) == {0b001, 0b110}
    assert comps[0] == 0b110
    assert bottom_scc_masks(rows, 0b111) == [0b110]
    assert bottom_states_mask(rows, 0b111) == 0b110


def test_bottom_restricted():
    # restricted to {0,1}: edge 1->2 leaves the node set and is ignored,
    # so 0 and 1 collapse into a single bottom component
    rows = (0b010, 0b101, 0b000)
    assert bottom_scc_masks(rows, 0b011) == [0b011]
    assert bottom_scc_masks(rows, 0b111) == [0b100]


def _random_rows(rng, n):
    return tuple(
        sum(1 << j for j in range(n) if rng.random() < 0.3) for _ in range(n)
    )


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 7))
def test_scc_partition_and_bottoms(seed, n):
    rng = random.Random(seed)
    rows = _random_rows(rng, n)
    full = (1 << n) - 1
    comps = scc_masks(rows, full)
    assert sum(comps) == full  # disjoint cover
    # brute-force mutual reachability
    reach = [reachable_mask(rows, 1 << i) | (1 << i) for i in range(n)]
    comp_of = {}
    for c in comps:
        for i in range(n):
            if c >> i & 1:
                comp_of[i] = c
    for i in range(n):
        for j in range(n):
            mutual = bool(reach[i] >> j & 1) and bool(reach[j] >> i & 1)
            assert (comp_of[i] == comp_of[j]) == mutual
    bottoms = bottom_scc_masks(rows, full)
    for b in bottoms:
        img = 0
        for i in range(n):
            if b >> i & 1:
                img |= rows[i]
        assert img & ~b == 0
    # non-bottom components must have an escaping edge
    for c in comps:
        if c in bottoms:
            continue
        img = 0
        for i in range(n):
            if c >> i & 1:
                img |= rows[i]
        assert img & ~c


# -- the reach-closure kernel against the SCC pass it replaced -------------------


def _scc_bottoms(rows, mask):
    # bottom classes as the Kosaraju pass gave them: every component of
    # scc_masks with no edge leaving it
    return [
        c for c in scc_masks(rows, mask) if all(rows[i] & mask & ~c == 0 for i in bits(c))
    ]


def _scc_funnel(rows, mask):
    rec = sum(_scc_bottoms(rows, mask))
    return tuple(
        reachable_mask(rows, 1 << y, mask) & rec if mask >> y & 1 else 0
        for y in range(len(rows))
    )


def _digraphs(seed, count):
    """Seeded digraphs of 1-20 states with a random node mask: densities
    from empty to full, some rows emptied, self-loops added or cleared."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 20)
        p = rng.choice((0.0, 0.05, 0.15, 0.3, 0.6, 1.0))
        rows = []
        for i in range(n):
            row = sum(1 << j for j in range(n) if rng.random() < p)
            if rng.random() < 0.15:
                row = 0
            elif rng.random() < 0.3:
                row ^= 1 << i
            rows.append(row)
        mask = rng.choice(((1 << n) - 1, rng.randrange(1 << n)))
        yield tuple(rows), mask


def test_reach_closure_matches_oracle_closure():
    for rows, mask in _digraphs(31, 300):
        n = len(rows)
        restricted = tuple(rows[i] & mask if mask >> i & 1 else 0 for i in range(n))
        fwd = O.oclosure(restricted, n)
        want = [fwd[i] if mask >> i & 1 else 0 for i in range(n)]
        assert reach_closure(rows, mask) == want


def test_bottom_classes_match_oracle_and_scc_pass():
    for rows, mask in _digraphs(32, 400):
        got = bottom_scc_masks(rows, mask)
        # the same list as the oracle, ordered by least state
        assert got == O.obottom_sccs(rows, len(rows), mask)
        assert set(got) == set(_scc_bottoms(rows, mask))
        assert bottom_states_mask(rows, mask) == sum(_scc_bottoms(rows, mask))


def test_funnel_matches_scc_pass():
    for rows, mask in _digraphs(33, 400):
        assert funnel(rows, mask) == _scc_funnel(rows, mask)


def test_funnel_matches_border_action():
    # a border segment as the extended graph meets it: total on its source
    # mask, with every destination inside it; the one-segment linked graph
    # (identity on the mask, then the segment) rewires its first layer
    # into exactly the funnel
    rng = random.Random(35)
    checked = 0
    for rows, mask in _digraphs(34, 300):
        if not mask:
            continue
        members = list(bits(mask))
        seg = tuple(
            (row & mask or 1 << rng.choice(members)) if mask >> i & 1 else 0
            for i, row in enumerate(rows)
        )
        ident = tuple(1 << i if mask >> i & 1 else 0 for i in range(len(rows)))
        lg = border_action(LinkedGraph(len(rows), (ident, seg)), (1, 2))
        assert lg.layers[0] == funnel(seg, mask)
        checked += 1
    assert checked > 250

import random

from hypothesis import given, settings, strategies as st

from qpa.graphs import (
    bottom_scc_masks,
    bottom_states_mask,
    compose,
    image,
    image_table,
    reachable_mask,
    restrict,
    scc_masks,
)


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

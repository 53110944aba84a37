import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from qpa.errors import BudgetExceededError
from qpa.profiles import (
    INF,
    build_profile_monoid,
    build_safe_monoid,
    class_minima,
    compose_profiles,
    compose_safe_profiles,
    image_table,
    letter_profile,
    letter_safe_profile,
    monoid_closure,
    normalize_priorities,
    profile_digraph,
    profile_image,
    profile_of_word,
    safe_identity,
)

from conftest import random_automaton
import oracles as O
from oracles import opath_profile


EX1_PRIOS = {"s": 1, "t": 1, "u": 0}


def decode(profile):
    """Min-matrix view of a layered profile: entry (i, j) is the level of the
    first layer holding j in row i, INF when no layer does."""
    levels, layers = profile[0], profile[1:]
    n = len(layers[0])
    return tuple(
        tuple(
            next((v for v, layer in zip(levels, layers) if layer[i] >> j & 1), INF)
            for j in range(n)
        )
        for i in range(n)
    )


def as_dict(a, profile):
    return {
        (a.states[i], a.states[j]): v
        for i, row in enumerate(decode(profile))
        for j, v in enumerate(row)
        if v != INF
    }


def test_letter_profile_ex1(ex1):
    prios = normalize_priorities(ex1, EX1_PRIOS)
    pa = letter_profile(ex1, prios, 0)
    assert as_dict(ex1, pa) == {
        ("s", "s"): 1,
        ("s", "t"): 1,
        ("t", "s"): 1,
        ("t", "u"): 0,
        ("u", "t"): 0,
    }
    pb = letter_profile(ex1, prios, 1)
    assert as_dict(ex1, pb) == {("s", "s"): 1, ("t", "u"): 0, ("u", "t"): 0}


def test_profile_of_word_composes(ex1):
    prios = normalize_priorities(ex1, EX1_PRIOS)
    pa = letter_profile(ex1, prios, 0)
    pb = letter_profile(ex1, prios, 1)
    assert compose_profiles(pa, pb) == profile_of_word(ex1, prios, "ab")
    pab = profile_of_word(ex1, prios, "ab")
    assert as_dict(ex1, pab)[("u", "u")] == 0
    assert as_dict(ex1, pab)[("s", "u")] == 0


def test_profile_image_and_digraph(ex1):
    prios = normalize_priorities(ex1, EX1_PRIOS)
    p = profile_of_word(ex1, prios, "ab")
    assert profile_image(p, ex1.mask("s")) == ex1.mask("s u")
    rows = profile_digraph(p)
    assert rows[ex1.state_index["u"]] == ex1.mask("u")


def test_class_minima(ex1):
    prios = normalize_priorities(ex1, EX1_PRIOS)
    p = profile_of_word(ex1, prios, "ab")
    assert class_minima(p, ex1.full_mask) == [(ex1.mask("u"), 0)]
    pa = profile_of_word(ex1, prios, "a")
    minima = dict(class_minima(pa, ex1.full_mask))
    assert minima == {ex1.full_mask: 0}


def test_monoid_closure_words(ex1):
    prios = normalize_priorities(ex1, EX1_PRIOS)
    monoid = build_profile_monoid(ex1, EX1_PRIOS)
    pab = profile_of_word(ex1, prios, "ab")
    assert monoid[pab] == (0, 1)
    for profile, word in monoid.items():
        assert profile_of_word(ex1, prios, word) == profile


def test_monoid_budget(ex1):
    with pytest.raises(BudgetExceededError):
        build_profile_monoid(ex1, EX1_PRIOS, budget=1)


def test_monoid_closure_generic():
    add = lambda x, y: (x + y) % 5
    elems = monoid_closure([1], add, budget=100, what="residues")
    assert set(elems) == {0, 1, 2, 3, 4}
    assert elems[2] == (0, 0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 4), st.integers(1, 6))
def test_profile_matches_path_enumeration(seed, n, wlen):
    rng = random.Random(seed)
    a = random_automaton(rng, n, acceptance="parity")
    prios = normalize_priorities(a, None)
    w = tuple(rng.randrange(len(a.alphabet)) for _ in range(wlen))
    p = decode(profile_of_word(a, prios, w))
    expected = opath_profile(a, prios, w)
    for i in range(a.n):
        for j in range(a.n):
            if (i, j) in expected:
                assert p[i][j] == expected[(i, j)]
            else:
                assert p[i][j] == INF


def test_safe_profiles(ex2):
    safe = ex2.mask("1 3")
    pa = letter_safe_profile(ex2, safe, 0)
    rows, full = pa
    assert rows[ex2.state_index["1"]] == ex2.mask("1 3")
    assert rows[ex2.state_index["3"]] == ex2.mask("3")
    assert full == ex2.mask("1 3")
    pb = letter_safe_profile(ex2, safe, 1)
    rows_b, full_b = pb
    assert rows_b[ex2.state_index["1"]] == 0
    assert rows_b[ex2.state_index["3"]] == ex2.mask("1")
    assert full_b == 0
    pab = compose_safe_profiles(pa, pb)
    assert pab[0][ex2.state_index["1"]] == ex2.mask("1")
    assert pab[1] == 0
    ident = safe_identity(ex2, safe)
    assert compose_safe_profiles(ident, pa) == pa
    assert compose_safe_profiles(pa, ident) == pa


def test_safe_monoid(ex2):
    safe = ex2.mask("1 3")
    monoid = build_safe_monoid(ex2, safe)
    pa = letter_safe_profile(ex2, safe, 0)
    assert monoid[pa] == (0,)
    # only nonempty products; the empty word is handled via safe_identity
    assert safe_identity(ex2, safe) not in monoid
    for prof, word in monoid.items():
        got = letter_safe_profile(ex2, safe, word[0])
        for k in word[1:]:
            got = compose_safe_profiles(got, letter_safe_profile(ex2, safe, k))
        assert got == prof


def test_safe_monoid_matches_oracle_seeded():
    rng = random.Random(1107)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = random_automaton(rng, n, n_letters=rng.randint(1, 3))
        safe = rng.randrange(1, 1 << n)
        letters = [
            tuple(r & safe if safe >> i & 1 else 0 for i, r in enumerate(rows))
            for rows in O.oletter_rows(a)
        ]
        for (rows, full), w in build_safe_monoid(a, safe).items():
            expected_rows = tuple(1 << i if safe >> i & 1 else 0 for i in range(n))
            for k in w:
                expected_rows = O.ocompose_rows(expected_rows, letters[k])
            expected_full = sum(
                1 << i
                for i in O.obits(safe)
                if all(O.osupport(a, 1 << i, w[:t]) & ~safe == 0 for t in range(1, len(w) + 1))
            )
            assert rows == expected_rows
            assert full == expected_full


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_profile_composition_associative(seed, n, l1, l2):
    rng = random.Random(seed)
    a = random_automaton(rng, n, acceptance="parity")
    prios = normalize_priorities(a, None)
    w1 = tuple(rng.randrange(len(a.alphabet)) for _ in range(l1))
    w2 = tuple(rng.randrange(len(a.alphabet)) for _ in range(l2))
    assert compose_profiles(
        profile_of_word(a, prios, w1), profile_of_word(a, prios, w2)
    ) == profile_of_word(a, prios, w1 + w2)


# -- layered profiles against the min-matrix form and path enumeration ----------

GAP_PRIORITIES = (0, 3, 4)
PATH_CAP = 4096


def finite_entries(matrix):
    return {(i, j): v for i, row in enumerate(matrix) for j, v in enumerate(row) if v != INF}


def matrix_closure(a, prios):
    """Min-matrix profiles of all nonempty words, each with its shortest word,
    in length-lexicographic order: the closure before profiles were layered."""
    n = a.n
    gens = [O._min_plus_letter(rows, prios, n) for rows in O.oletter_rows(a)]

    def key(m):
        return tuple(tuple(INF if v == O.INF else v for v in row) for row in m)

    words = {}
    queue = deque()
    for k, g in enumerate(gens):
        if key(g) not in words:
            words[key(g)] = (k,)
            queue.append(g)
    while queue:
        e = queue.popleft()
        w = words[key(e)]
        for k, g in enumerate(gens):
            c = O._min_plus_compose(e, g, n)
            if key(c) not in words:
                words[key(c)] = w + (k,)
                queue.append(c)
    return words


def gap_automaton(rng, n, n_letters, by_name):
    """A random automaton with priorities drawn from a gapped set, given as a
    vector or as a name-keyed mapping."""
    a = random_automaton(rng, n, n_letters=n_letters)
    prios = tuple(rng.choice(GAP_PRIORITIES) for _ in range(n))
    return a, prios, dict(zip(a.states, prios)) if by_name else prios


def check_monoid_against_references(rng, n, n_letters, by_name):
    a, prios, given_prios = gap_automaton(rng, n, n_letters, by_name)
    monoid = build_profile_monoid(a, given_prios)
    reference = matrix_closure(a, prios)
    assert [decode(p) for p in monoid] == list(reference)
    assert list(monoid.values()) == list(reference.values())
    for p, w in monoid.items():
        if n ** (len(w) + 1) <= PATH_CAP:
            assert finite_entries(decode(p)) == opath_profile(a, prios, w)


def test_monoid_matches_references_seeded():
    rng = random.Random(1107)
    for _ in range(40):
        check_monoid_against_references(rng, rng.randint(1, 4), rng.randint(1, 3), rng.random() < 0.5)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 4), st.integers(1, 3), st.booleans())
def test_monoid_matches_references(seed, n, n_letters, by_name):
    check_monoid_against_references(random.Random(seed), n, n_letters, by_name)


def check_class_minima_by_brute_force(rng, n, by_name):
    a, prios, given_prios = gap_automaton(rng, n, 2, by_name)
    for p in build_profile_monoid(a, given_prios):
        m = decode(p)
        rows = [sum(1 << j for j in range(n) if m[i][j] != INF) for i in range(n)]
        for mask in range(1, 1 << n):
            comps = O.obottom_sccs(rows, n, mask)
            expected = {
                comp: min(m[i][j] for i in O.obits(comp) for j in O.obits(comp)) for comp in comps
            }
            got = class_minima(p, mask)
            assert len(got) == len(comps)
            assert dict(got) == expected


def test_class_minima_matches_brute_force_seeded():
    rng = random.Random(1107)
    for _ in range(40):
        check_class_minima_by_brute_force(rng, rng.randint(1, 4), rng.random() < 0.5)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 4), st.booleans())
def test_class_minima_matches_brute_force(seed, n, by_name):
    check_class_minima_by_brute_force(random.Random(seed), n, by_name)


@pytest.mark.parametrize("n", [9, 12, 17])
def test_multi_chunk_tables_match_matrix_profiles(n):
    rng = random.Random(n)
    a = random_automaton(rng, n, n_letters=2, acceptance="parity")
    prios = normalize_priorities(a, None)
    rows = a.relation(0)
    img = image_table(rows)
    for _ in range(200):
        mask = rng.randrange(1 << n)
        assert img(mask) == O.oimage(rows, mask)
    for _ in range(10):
        w1 = tuple(rng.randrange(2) for _ in range(rng.randint(1, 5)))
        w2 = tuple(rng.randrange(2) for _ in range(rng.randint(1, 5)))
        expected = O._min_plus_letter(a.relation(w1[0]), prios, n)
        for k in w1[1:] + w2:
            expected = O._min_plus_compose(expected, O._min_plus_letter(a.relation(k), prios, n), n)
        p = profile_of_word(a, prios, w1 + w2)
        assert finite_entries(decode(p)) == finite_entries(
            [[INF if v == O.INF else v for v in row] for row in expected]
        )
        assert compose_profiles(profile_of_word(a, prios, w1), profile_of_word(a, prios, w2)) == p

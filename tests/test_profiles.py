import random
from collections import deque
from contextlib import nullcontext

import pytest
from hypothesis import given, settings, strategies as st

from qpa.core import Acceptance
from qpa.errors import BudgetExceededError
from qpa.graphs import image
from qpa.profiles import (
    INF,
    almost_period,
    class_minima,
    image_table,
    iter_checked_profiles,
    iter_profile_monoid,
    profile_of_word,
)

from conftest import random_automaton
import oracles as O
from oracles import opath_profile


EX1_PRIOS = {"s": 1, "t": 1, "u": 0}


@pytest.fixture
def ex1p(ex1):
    """ex1 under the parity condition EX1_PRIOS."""
    return ex1.with_acceptance(Acceptance.parity(EX1_PRIOS))


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


def letter_profile(a, k):
    """Profile of the one-letter word k."""
    return profile_of_word(a, (k,))


def compose_profiles(x, y):
    """Profile of the concatenated words.

    Layer c of xy relates q to q'' iff some middle state q' has one half at
    most v_c and the other finite: L_c(xy)[i] = F_y(L_c x[i]) | L_c y(F x[i]).
    """
    assert x[0] == y[0]
    out = [x[0]]
    for layer_x, layer_y in zip(x[1:], y[1:]):
        out.append(tuple(O.oimage(y[-1], m) | O.oimage(layer_y, f) for m, f in zip(layer_x, x[-1])))
    return tuple(out)


def monoid_closure(generators, compose, budget, what="monoid"):
    """The eager closure: generators under composition, each element with its
    shortest word (BFS, ties by generator order); raises BudgetExceededError
    before the element count passes the budget, generators not counted."""
    elems = {}
    queue = deque()
    for k, g in enumerate(generators):
        if g not in elems:
            elems[g] = (k,)
            queue.append(g)
    while queue:
        e = queue.popleft()
        w = elems[e]
        for k, g in enumerate(generators):
            c = compose(e, g)
            if c not in elems:
                if len(elems) >= budget:
                    raise BudgetExceededError(f"{what} closure exceeded {budget} elements")
                elems[c] = w + (k,)
                queue.append(c)
    return elems


def as_dict(a, profile):
    return {
        (a.states[i], a.states[j]): v
        for i, row in enumerate(decode(profile))
        for j, v in enumerate(row)
        if v != INF
    }


def test_letter_profile_ex1(ex1p):
    pa = letter_profile(ex1p, 0)
    assert as_dict(ex1p, pa) == {
        ("s", "s"): 1,
        ("s", "t"): 1,
        ("t", "s"): 1,
        ("t", "u"): 0,
        ("u", "t"): 0,
    }
    pb = letter_profile(ex1p, 1)
    assert as_dict(ex1p, pb) == {("s", "s"): 1, ("t", "u"): 0, ("u", "t"): 0}


def test_profile_of_word_composes(ex1p):
    pa = letter_profile(ex1p, 0)
    pb = letter_profile(ex1p, 1)
    assert compose_profiles(pa, pb) == profile_of_word(ex1p, "ab")
    pab = profile_of_word(ex1p, "ab")
    assert as_dict(ex1p, pab)[("u", "u")] == 0
    assert as_dict(ex1p, pab)[("s", "u")] == 0


def test_profile_image_and_digraph(ex1p):
    p = profile_of_word(ex1p, "ab")
    assert image(p[-1], ex1p.mask("s")) == ex1p.mask("s u")
    assert p[-1][ex1p.state_index["u"]] == ex1p.mask("u")


def test_class_minima(ex1p):
    p = profile_of_word(ex1p, "ab")
    assert class_minima(p, ex1p.full_mask) == [(ex1p.mask("u"), 0)]
    pa = profile_of_word(ex1p, "a")
    minima = dict(class_minima(pa, ex1p.full_mask))
    assert minima == {ex1p.full_mask: 0}


def test_monoid_closure_words(ex1p):
    monoid = dict(iter_profile_monoid(ex1p))
    pab = profile_of_word(ex1p, "ab")
    assert monoid[pab] == (0, 1)
    for profile, word in monoid.items():
        assert profile_of_word(ex1p, word) == profile


def test_monoid_budget(ex1p):
    with pytest.raises(BudgetExceededError):
        list(iter_profile_monoid(ex1p, budget=1))


def test_monoid_closure_generic():
    add = lambda x, y: (x + y) % 5
    elems = monoid_closure([1], add, budget=100, what="residues")
    assert set(elems) == {0, 1, 2, 3, 4}
    assert elems[2] == (0, 0)


def drain(it):
    """The pairs a closure yields before it ends or trips its budget, and whether it tripped."""
    out = []
    try:
        for pair in it:
            out.append(pair)
    except BudgetExceededError:
        return out, True
    return out, False


def check_lazy_closure_against_eager(rng, n, n_letters):
    """The lazy closure against the eager one: iter_profile_monoid yields its
    elements in its order with its words, and under every budget below the
    full size it yields its prefix and raises where it raises: once the
    letters and the budget's worth of elements are out."""
    a = gap_automaton(rng, n, n_letters)
    gens = [letter_profile(a, k) for k in range(n_letters)]
    full = list(monoid_closure(gens, compose_profiles, budget=10**6).items())
    assert drain(iter_profile_monoid(a, 10**6)) == (full, False)
    distinct = len(set(gens))
    for budget in range(1, len(full) + 1):
        reached = max(budget, distinct)
        got, raised = drain(iter_profile_monoid(a, budget))
        assert raised == (reached < len(full))
        assert got == full[:reached]
    with pytest.raises(BudgetExceededError) if distinct < len(full) else nullcontext():
        monoid_closure(gens, compose_profiles, budget=distinct)


def test_lazy_closure_matches_eager_seeded():
    rng = random.Random(1107)
    for _ in range(30):
        check_lazy_closure_against_eager(rng, rng.randint(1, 5), rng.randint(1, 3))


# two letters at most: every budget below the full size is a fresh closure, so
# the cost grows with the square of the monoid, and three letters on five
# states reach about a thousand profiles (the seeded draws include some)
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 5), st.integers(1, 2))
def test_lazy_closure_matches_eager(seed, n, n_letters):
    check_lazy_closure_against_eager(random.Random(seed), n, n_letters)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 4), st.integers(1, 6))
def test_profile_matches_path_enumeration(seed, n, wlen):
    rng = random.Random(seed)
    a = random_automaton(rng, n, acceptance="parity")
    w = tuple(rng.randrange(len(a.alphabet)) for _ in range(wlen))
    p = decode(profile_of_word(a, w))
    expected = opath_profile(a, a.priorities(), w)
    for i in range(a.n):
        for j in range(a.n):
            if (i, j) in expected:
                assert p[i][j] == expected[(i, j)]
            else:
                assert p[i][j] == INF


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_profile_composition_associative(seed, n, l1, l2):
    rng = random.Random(seed)
    a = random_automaton(rng, n, acceptance="parity")
    w1 = tuple(rng.randrange(len(a.alphabet)) for _ in range(l1))
    w2 = tuple(rng.randrange(len(a.alphabet)) for _ in range(l2))
    assert compose_profiles(
        profile_of_word(a, w1), profile_of_word(a, w2)
    ) == profile_of_word(a, w1 + w2)


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


def gap_automaton(rng, n, n_letters):
    """A random automaton under a parity condition with priorities drawn
    from a gapped set."""
    a = random_automaton(rng, n, n_letters=n_letters)
    return a.with_acceptance(Acceptance.parity({q: rng.choice(GAP_PRIORITIES) for q in a.states}))


def check_monoid_against_references(rng, n, n_letters):
    a = gap_automaton(rng, n, n_letters)
    prios = a.priorities()
    monoid = dict(iter_profile_monoid(a))
    reference = matrix_closure(a, prios)
    assert [decode(p) for p in monoid] == list(reference)
    assert list(monoid.values()) == list(reference.values())
    for p, w in monoid.items():
        if n ** (len(w) + 1) <= PATH_CAP:
            assert finite_entries(decode(p)) == opath_profile(a, prios, w)


def test_monoid_matches_references_seeded():
    rng = random.Random(1107)
    for _ in range(40):
        check_monoid_against_references(rng, rng.randint(1, 4), rng.randint(1, 3))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 4), st.integers(1, 3))
def test_monoid_matches_references(seed, n, n_letters):
    check_monoid_against_references(random.Random(seed), n, n_letters)


def check_class_minima_by_brute_force(rng, n):
    a = gap_automaton(rng, n, 2)
    for p, _ in iter_profile_monoid(a):
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
        check_class_minima_by_brute_force(rng, rng.randint(1, 4))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 4))
def test_class_minima_matches_brute_force(seed, n):
    check_class_minima_by_brute_force(random.Random(seed), n)


def check_odd_mask_on_closed_sets(rng, n):
    """On a set g closed under a profile's digraph, the bottom components within
    g are the whole digraph's bottom components inside g, so all of them have
    even minima iff g misses every odd-minimum bottom component of the whole
    digraph."""
    a = gap_automaton(rng, n, 2)
    for p, _ in iter_profile_monoid(a):
        odd = 0
        for comp, mn in class_minima(p, a.full_mask):
            if mn % 2:
                odd |= comp
        for g in range(1, 1 << n):
            if image(p[-1], g) & ~g:
                continue
            assert (g & odd == 0) == all(mn % 2 == 0 for _, mn in class_minima(p, g))


def test_odd_mask_matches_class_minima_seeded():
    rng = random.Random(1107)
    for _ in range(30):
        check_odd_mask_on_closed_sets(rng, rng.randint(1, 5))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 5))
def test_odd_mask_matches_class_minima(seed, n):
    check_odd_mask_on_closed_sets(random.Random(seed), n)


def check_almost_period_against_eager(rng, n):
    """almost_period against an eager scan: the first checked profile (a
    letter or an idempotent) in BFS order and, inside it, the first support
    in the given order that the profile maps into itself with only
    even-minimum bottom classes on it, the classes taken on the support
    itself."""
    a = random_automaton(rng, n, rng.randint(1, 3), acceptance="parity")
    supports = rng.sample(range(1, 1 << n), min(4, (1 << n) - 1))
    expected = None
    for prof, rho in iter_profile_monoid(a):
        if not O.ochecked_profile(prof[-1], rho):
            continue
        expected = next(
            (
                (g, rho)
                for g in supports
                if image(prof[-1], g) & ~g == 0
                and all(mn % 2 == 0 for _, mn in class_minima(prof, g))
            ),
            None,
        )
        if expected is not None:
            break
    assert almost_period(a, supports, 10**6) == expected


def test_almost_period_matches_eager_seeded():
    rng = random.Random(1107)
    for _ in range(40):
        check_almost_period_against_eager(rng, rng.randint(1, 5))


def check_checked_profiles(rng, n):
    """iter_checked_profiles is iter_profile_monoid filtered to the letters
    and the idempotents, and under a budget it yields the filtered BFS
    prefix and raises exactly where the unfiltered closure raises."""
    a = random_automaton(rng, n, rng.randint(1, 3), acceptance="parity")
    full = list(iter_profile_monoid(a))
    checked = [(p, w) for p, w in full if O.ochecked_profile(p[-1], w)]
    assert list(iter_checked_profiles(a, 10**6)) == checked
    letters = sum(len(w) == 1 for _, w in full)
    for budget in range(1, min(len(full), 30)):
        prefix = full[:max(budget, letters)]
        got = []
        with pytest.raises(BudgetExceededError) if len(prefix) < len(full) else nullcontext():
            for item in iter_checked_profiles(a, budget):
                got.append(item)
        assert got == [(p, w) for p, w in prefix if O.ochecked_profile(p[-1], w)]


def test_checked_profiles_filter_the_monoid_seeded():
    rng = random.Random(2091)
    for _ in range(40):
        check_checked_profiles(rng, rng.randint(1, 5))


def check_idempotent_power(rng, n):
    """The lemma behind the filter.  For a profile P of a word w, with R its
    digraph, and E = P^k the first power whose digraph is idempotent: every
    bottom class of E lies in a bottom class of P with the same minimum,
    the two cover the same states, so the odd-minimum (and even-minimum)
    classes of both have the same union, and on every set g closed under R
    the almost check (only even-minimum bottom classes within g) reads the
    same for P and E."""
    a = gap_automaton(rng, n, rng.randint(1, 3))
    w = tuple(rng.randrange(len(a.alphabet)) for _ in range(rng.randint(1, 4)))
    p = profile_of_word(a, w)
    k, e = 1, p
    while O.ocompose_rows(e[-1], e[-1]) != e[-1]:
        k += 1
        assert k <= 1 << n  # the idempotent power of an n-state relation comes sooner
        e = profile_of_word(a, w * k)
    p_classes, e_classes = class_minima(p, a.full_mask), class_minima(e, a.full_mask)
    for comp, mn in e_classes:
        assert [pm for pc, pm in p_classes if comp & ~pc == 0] == [mn]
    assert sum(c for c, _ in e_classes) == sum(c for c, _ in p_classes)

    def odd_union(classes):
        return sum(c for c, mn in classes if mn % 2)

    assert odd_union(e_classes) == odd_union(p_classes)
    for g in range(1, 1 << n):
        if O.oimage(p[-1], g) & ~g:
            continue
        assert all(mn % 2 == 0 for _, mn in class_minima(p, g)) == all(
            mn % 2 == 0 for _, mn in class_minima(e, g)
        )
    return k > 1


def test_idempotent_power_lemma_seeded():
    rng = random.Random(1107)
    powers = [check_idempotent_power(rng, rng.randint(1, 5)) for _ in range(200)]
    assert sum(powers) >= 50, "too few draws needed a power above one"


@pytest.mark.parametrize("n", [9, 12, 17])
def test_multi_chunk_tables_match_matrix_profiles(n):
    rng = random.Random(n)
    a = random_automaton(rng, n, n_letters=2, acceptance="parity")
    prios = a.priorities()
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
        p = profile_of_word(a, w1 + w2)
        assert finite_entries(decode(p)) == finite_entries(
            [[INF if v == O.INF else v for v in row] for row in expected]
        )
        assert compose_profiles(profile_of_word(a, w1), profile_of_word(a, w2)) == p

"""Finite profile monoids abstracting finite words for the decision procedures.

A priority profile of a word records, per state pair (q, q'), the minimum
priority seen on any positive-probability path from q to q' reading that
word (endpoints included), or INF when no such path exists.  Profiles
compose associatively, so the profiles of all nonempty words form a finite
monoid generated by the letter profiles.

A profile is stored as threshold layers of bitmasks rather than as a
matrix.  With the distinct priorities v_0 < ... < v_{d-1}, a profile is the
tuple (levels, L_0, ..., L_{d-1}) where levels = (v_0, ..., v_{d-1}) and
L_c[i] is the mask of the states q' whose entry (q_i, q') is at most v_c.
Every finite entry is at most v_{d-1}, so the top layer L_{d-1} holds the
finite rows: it is the profile's digraph.  An entry is v_c for the first
layer c that contains it, and INF when the top layer does not.

Because every entry already includes the priorities of both endpoints,
right-multiplying by a letter acts row by row on the layers:
L'_c[i] = img(L_c[i]) | (img(L_{d-1}[i]) & P_c), with P_c the states of
priority at most v_c and img the letter's successor relation.  img is read
from per-letter tables over 8-bit chunks of a mask, so the monoid closure
runs on table lookups alone.

A safe profile, for a fixed set F, stores the state pairs connected by
positive paths that remain inside F throughout, together with the set of
states whose entire positive tree stays inside F for the word.
"""
from __future__ import annotations

from collections import deque
from typing import Callable, Mapping, Sequence, TypeVar

from .core import Automaton, bits
from .errors import BudgetExceededError, InputError
from .graphs import bottom_scc_masks

INF = 1 << 30

Profile = tuple[tuple[int, ...], ...]
SafeProfile = tuple[tuple[int, ...], int]
Image = Callable[[int], int]

T = TypeVar("T")


def normalize_priorities(a: Automaton, p: Mapping[str, int] | Sequence[int] | None) -> tuple[int, ...]:
    """Priority vector by state index; defaults to the automaton's acceptance."""
    if p is None:
        return a.priorities()
    if isinstance(p, Mapping):
        missing = [q for q in a.states if q not in p]
        if missing:
            raise InputError(f"priorities missing for {missing}")
        return tuple(int(p[q]) for q in a.states)
    vec = tuple(int(x) for x in p)
    if len(vec) != a.n:
        raise InputError("priority vector length differs from state count")
    return vec


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


def _letter_index(a: Automaton, letter: str | int) -> int:
    return letter if isinstance(letter, int) else a.word([letter])[0]


class _PriorityLetters:
    """Threshold levels of one priority assignment and the letters' image tables."""

    def __init__(self, a: Automaton, priorities):
        p = normalize_priorities(a, priorities)
        self.a = a
        self.levels = tuple(sorted(set(p)))
        # P_c for every level below the top one; the top level admits every state
        self.below = tuple(
            sum(1 << i for i, x in enumerate(p) if x <= v) for v in self.levels[:-1]
        )
        self.images = [image_table(a.relation(k)) for k in range(len(a.alphabet))]

    def letter(self, k: int) -> Profile:
        rel = self.a.relation(k)
        layers = [
            tuple(r if pc >> i & 1 else r & pc for i, r in enumerate(rel)) for pc in self.below
        ]
        return (self.levels, *layers, rel)

    def times_letter(self, x: Profile, k: int) -> Profile:
        """x . k, layer by layer through the letter's image table."""
        img = self.images[k]
        finite = tuple(map(img, x[-1]))
        out = [x[0]]
        for layer, pc in zip(x[1:-1], self.below):
            out.append(tuple([m | f & pc for m, f in zip(map(img, layer), finite)]))
        out.append(finite)
        return tuple(out)


def letter_profile(a: Automaton, priorities: Mapping[str, int] | Sequence[int] | None, letter: str | int) -> Profile:
    """Profile of a single letter: entry (q,q') = min(p(q), p(q')) on positive moves."""
    return _PriorityLetters(a, priorities).letter(_letter_index(a, letter))


def compose_profiles(x: Profile, y: Profile) -> Profile:
    """Profile of the concatenated words.

    Layer c of xy relates q to q'' iff some middle state q' has one half at
    most v_c and the other finite: L_c(xy)[i] = F_y(L_c x[i]) | L_c y(F x[i]).
    """
    if x[0] != y[0]:
        raise InputError("profiles of different priority levels do not compose")
    finite_y = image_table(y[-1])
    finite_x = x[-1]
    out = [x[0]]
    for layer_x, layer_y in zip(x[1:], y[1:]):
        img_y = image_table(layer_y)
        out.append(tuple(finite_y(m) | img_y(f) for m, f in zip(layer_x, finite_x)))
    return tuple(out)


def profile_of_word(a: Automaton, priorities, word) -> Profile:
    """Profile of a nonempty word, right-multiplying letter by letter."""
    w = a.word(word)
    if not w:
        raise InputError("the empty word has no profile")
    letters = _PriorityLetters(a, priorities)
    prof = letters.letter(w[0])
    for k in w[1:]:
        prof = letters.times_letter(prof, k)
    return prof


def profile_digraph(profile: Profile) -> tuple[int, ...]:
    """Finite-entry rows of a profile as destination bitmasks."""
    return profile[-1]


def profile_image(profile: Profile, mask: int) -> int:
    rows = profile[-1]
    out = 0
    for i in bits(mask):
        out |= rows[i]
    return out


def class_minima(profile: Profile, mask: int) -> list[tuple[int, int]]:
    """Per bottom SCC of the profile digraph within mask, the internal minimum entry.

    The minimum ranges over all finite entries (q, q') with both states in
    the component; it covers every state visited at intermediate positions
    of the underlying word, because profile entries already fold those in.
    It is the level of the first layer that links two states of the
    component, or INF when no layer does.
    """
    levels, layers = profile[0], profile[1:]
    out = []
    for comp in bottom_scc_masks(profile[-1], mask):
        members = tuple(bits(comp))
        m = next(
            (v for v, layer in zip(levels, layers) if any(layer[i] & comp for i in members)),
            INF,
        )
        out.append((comp, m))
    return out


def monoid_closure(
    generators: Sequence[T],
    compose: Callable[[T, T], T],
    budget: int,
    what: str = "monoid",
) -> dict[T, tuple[int, ...]]:
    """Close generators under composition, mapping each element to a witness word.

    The witness is the shortest generating word as a tuple of generator
    indices, ties broken by generator order (BFS in length-lexicographic
    order).  Raises BudgetExceededError before the element count passes the
    budget.
    """
    elems: dict[T, tuple[int, ...]] = {}
    queue: deque[T] = deque()
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


def _letter_closure(
    generators: list[T], times_letter: Callable[[T, int], T], budget: int, what: str
) -> dict[T, tuple[int, ...]]:
    """monoid_closure where composing with a generator is a step by its letter.

    Letters with equal generators act alike, so either letter's step serves.
    """
    letter_of = {g: k for k, g in enumerate(generators)}
    return monoid_closure(generators, lambda e, g: times_letter(e, letter_of[g]), budget, what)


def build_profile_monoid(a: Automaton, priorities=None, budget: int = 1_000_000) -> dict[Profile, tuple[int, ...]]:
    """Closure of the letter profiles; maps profile -> shortest generating word."""
    letters = _PriorityLetters(a, priorities)
    gens = [letters.letter(k) for k in range(len(a.alphabet))]
    return _letter_closure(gens, letters.times_letter, budget, "priority profile")


def letter_safe_profile(a: Automaton, safe_mask: int, letter: str | int) -> SafeProfile:
    rel = a.relation(_letter_index(a, letter))
    rows = tuple(rel[i] & safe_mask if safe_mask >> i & 1 else 0 for i in range(a.n))
    full = 0
    for i in bits(safe_mask):
        if rel[i] & ~safe_mask == 0:
            full |= 1 << i
    return rows, full


def _safe_times(x: SafeProfile, img: Image, yfull: int) -> SafeProfile:
    xrows, xfull = x
    full = 0
    for i in bits(xfull):
        if xrows[i] & ~yfull == 0:
            full |= 1 << i
    return tuple(map(img, xrows)), full


def compose_safe_profiles(x: SafeProfile, y: SafeProfile) -> SafeProfile:
    yrows, yfull = y
    return _safe_times(x, image_table(yrows), yfull)


def safe_identity(a: Automaton, safe_mask: int) -> SafeProfile:
    """Safe profile of the empty word: stay put, inside F."""
    rows = tuple(1 << i if safe_mask >> i & 1 else 0 for i in range(a.n))
    return rows, safe_mask


def build_safe_monoid(a: Automaton, safe_mask: int, budget: int = 1_000_000) -> dict[SafeProfile, tuple[int, ...]]:
    """Closure of the letter safe-profiles for the set F given as a mask."""
    gens = [letter_safe_profile(a, safe_mask, k) for k in range(len(a.alphabet))]
    steps = [(image_table(rows), full) for rows, full in gens]
    return _letter_closure(gens, lambda x, k: _safe_times(x, *steps[k]), budget, "safe profile")

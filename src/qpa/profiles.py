"""Finite profile monoids abstracting finite words for the decision procedures.

A priority profile of a word records, per state pair (q, q'), the minimum
priority seen on any positive-probability path from q to q' reading that
word (endpoints included), or INF when no such path exists.  The
priorities are the automaton's own acceptance (Automaton.priorities), so
every profile of this module reads them and nothing else.  Profiles
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

The closure is graphs.shortest_words, breadth first and lazy:
iter_profile_monoid yields each profile with its shortest word as it is
discovered, so a search stops at its first witness without materializing
the monoid, and the budget trips only if the search runs that far.  Every
scan of the library reads this iterator; none collects a whole monoid.  almost_period is the almost-sure scan shared by
the simple and the structurally simple procedures.

The profile scans check only the profiles of iter_checked_profiles: the
letters and the profiles whose digraph R is idempotent (R.R = R).  The
whole monoid is still generated and counted against the budget.  This
loses no answer.  Say P passes on a set g: g is closed under R = R(P), and
every bottom class C of R inside g has an even P-minimum.  Some power R^k
is idempotent, and E = P^k is in the monoid.  The bottom classes of R^k
are the cyclic classes C_r of the bottom classes C of R, and R^k links
every pair of states of C_r.  So the E-minimum over C_r is the minimum of
E^m = P^(km) over C_r for every m, and for m large enough some km-step
path between states of C_r passes the minimum transition of C: the
E-minimum over C_r is the P-minimum over C.  Hence E passes on g too, and
the even-minimum bottom classes of E cover the same states as those of P.
The letters are checked as well because most witnesses are letters, and
the first idempotent often lies much deeper in the BFS.

The safety-shaped questions (safety, and positive coBüchi) need no
monoid: qualitative decides them by a lasso search over supports.
"""
from __future__ import annotations

from typing import Collection, Iterator

from .core import Automaton
from .errors import InputError
from .graphs import bottom_scc_masks, image, image_table, shortest_words

INF = 1 << 30

Profile = tuple[tuple[int, ...], ...]


class _PriorityLetters:
    """Threshold levels of the automaton's priorities and the letters' image tables."""

    def __init__(self, a: Automaton):
        p = a.priorities()
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


def profile_of_word(a: Automaton, word) -> Profile:
    """Profile of a nonempty word, right-multiplying letter by letter."""
    w = a.word(word)
    if not w:
        raise InputError("the empty word has no profile")
    letters = _PriorityLetters(a)
    prof = letters.letter(w[0])
    for k in w[1:]:
        prof = letters.times_letter(prof, k)
    return prof


def class_minima(profile: Profile, mask: int) -> list[tuple[int, int]]:
    """Per bottom SCC of the profile digraph within mask, the internal minimum
    entry; the components come ordered by their least state.

    The minimum ranges over all finite entries (q, q') with both states in
    the component; it covers every state visited at intermediate positions
    of the underlying word, because profile entries already fold those in.
    It is the level of the first layer that links two states of the
    component, or INF when no layer does.
    """
    levels, layers = profile[0], profile[1:]
    out = []
    for comp in bottom_scc_masks(profile[-1], mask):
        m = next((v for v, layer in zip(levels, layers) if image(layer, comp) & comp), INF)
        out.append((comp, m))
    return out


def iter_profile_monoid(a: Automaton, budget: int = 1_000_000) -> Iterator[tuple[Profile, tuple[int, ...]]]:
    """The profiles of all nonempty words in BFS order, each with its shortest word.

    graphs.shortest_words from the letter profiles, composing on the right
    with each letter in alphabet order, so words come length-lexicographic;
    a letter whose profile repeats an earlier one adds no element but still
    composes."""
    letters = _PriorityLetters(a)
    ks = range(len(a.alphabet))
    starts = [(letters.letter(k), (k,)) for k in ks]
    return shortest_words(
        starts,
        lambda x: ((k, letters.times_letter(x, k)) for k in ks),
        budget,
        "priority profile closure",
    )


def iter_checked_profiles(a: Automaton, budget: int) -> Iterator[tuple[Profile, tuple[int, ...]]]:
    """The profiles of iter_profile_monoid that a scan checks, in BFS order:
    the letters and those whose digraph is idempotent.  Every profile of
    the closure still counts against the budget."""
    for prof, rho in iter_profile_monoid(a, budget):
        top = prof[-1]
        if len(rho) == 1 or all(image(top, row) == row for row in top):
            yield prof, rho


def almost_period(a: Automaton, supports: Collection[int], budget: int) -> tuple[int, tuple[int, ...]] | None:
    """The first support, in the given order inside the first checked
    profile in BFS order, that the profile maps into itself with only
    even-minimum bottom classes on it, with the profile's word; None once
    the monoid has none.  Only the letters and the idempotent profiles are
    checked (iter_checked_profiles): when some profile P passes on g, so
    does its idempotent power, so the answer is the same as over the whole
    monoid.  A bottom class that meets a closed support lies inside it, so
    the check reads as the support missing every odd-minimum bottom class
    of the whole digraph, found once per profile."""
    for prof, rho in iter_checked_profiles(a, budget):
        img = image_table(prof[-1])
        odd = None
        for g in supports:
            if img(g) & ~g:
                continue
            if odd is None:
                odd = 0
                for comp, mn in class_minima(prof, a.full_mask):
                    if mn % 2:
                        odd |= comp
            if g & odd == 0:
                return g, rho
    return None

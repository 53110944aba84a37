"""Word semantics on the table: matrix products, propagation, support steps,
#-powers, and analysis of the homogeneous chain induced by a stable set and
a word.

Dense arithmetic runs on integer rows over one common denominator: products
through int_mul, linear systems through fraction-free elimination in
solve_linear.  Fractions are built only for the answer a caller reads."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Mapping, Sequence

from .core import (
    Acceptance,
    Automaton,
    Matrix,
    ScaledMatrix,
    as_mask,
    as_vector,
    as_weights,
    bits,
    scaled,
)
from .errors import InputError
from .graphs import bottom_scc_masks, bottom_states_mask, image
from .profiles import class_minima, profile_of_word


IntRows = list[tuple[int, ...]]


def unscaled(rows: Sequence[Sequence[int]], den: int) -> Matrix:
    """The Fraction matrix rows/den, every entry normalized."""
    return tuple(tuple(Fraction(v, den) for v in row) for row in rows)


def int_mul(x: Sequence[Sequence[int]], y: Sequence[Sequence[int]]) -> IntRows:
    """Dense integer product.  The product of (X, dx) and (Y, dy) is
    (int_mul(X, Y), dx * dy), left unnormalized: this is the one dense
    matrix kernel of the library."""
    yt = tuple(zip(*y))
    return [tuple(sum(map(mul, xi, yj)) for yj in yt) for xi in x]


def int_pow(x: Sequence[Sequence[int]], e: int) -> IntRows:
    """x**e for e >= 1 by repeated squaring; the denominator becomes den**e."""
    out = None
    while True:
        if e & 1:
            out = x if out is None else int_mul(out, x)
        e >>= 1
        if not e:
            return out
        x = int_mul(x, x)


def _compose(
    rows: Sequence[Sequence[int]], den: int, letters: Sequence[ScaledMatrix], word: Sequence[int]
) -> tuple[IntRows, int]:
    """(rows, den) times letters[word[0]] ... letters[word[-1]], in integers;
    the denominators multiply."""
    for k in word:
        x, dx = letters[k]
        rows = int_mul(rows, x)
        den *= dx
    return rows, den


def vector_product(
    vec: Sequence[Fraction], letters: Sequence[ScaledMatrix], word: Sequence[int]
) -> tuple[Fraction, ...]:
    """Exact row vector vec times the letter matrices of word.

    letters[k] is letter k's matrix scaled to integer rows over one
    denominator (Automaton.scaled_matrices keeps them per automaton).  The
    vector is scaled to one integer row, composed in integers over the
    product of the denominators, and unscaled once, at the end.
    """
    return unscaled(*_compose(*scaled([vec]), letters, word))[0]


def word_matrix(a: Automaton, word) -> Matrix:
    """Exact product of the letter matrices; the empty word gives the identity.

    Composed as integer rows over one common denominator (`_compose` on the
    scaled letters) and unscaled to normalized Fractions only at the end.
    """
    w = a.word(word)
    if not w:
        return unscaled([[int(i == j) for j in range(a.n)] for i in range(a.n)], 1)
    letters = a.scaled_matrices
    return unscaled(*_compose(*letters[w[0]], letters, w[1:]))


def propagate(a: Automaton, beta: Mapping[str, Fraction] | Sequence[Fraction], word) -> dict[str, Fraction]:
    """Push a distribution through a finite word; exact, zero entries omitted."""
    return as_weights(a, vector_product(as_vector(a, beta), a.scaled_matrices, a.word(word)))


def word_relation(a: Automaton, word: Sequence[int]) -> tuple[int, ...]:
    """Positive-transition relation of a word as destination bitmasks."""
    rows = tuple(1 << i for i in range(a.n))
    for k in word:
        rel = a.relation(k)
        rows = tuple(image(rel, row) for row in rows)
    return rows


def support_step(a: Automaton, S, word) -> int:
    """S . word: the support of delta(S, word), as a bitmask."""
    mask = as_mask(a, S)
    for k in a.word(word):
        mask = image(a.relation(k), mask)
    return mask


def sharp_power(a: Automaton, S, word) -> int:
    """S . word^#: recurrent states of the homogeneous chain induced on S by the word.

    Requires S stable (S . word = S); computed as the union of bottom SCCs
    of the positive-transition digraph of the word restricted to S.
    """
    mask = as_mask(a, S)
    w = a.word(word)
    if support_step(a, mask, w) != mask:
        raise InputError("S not rho-stable")
    rows = word_relation(a, w)
    return bottom_states_mask(rows, mask)


def solve_linear(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]]) -> list[list[Fraction]]:
    """Solve A X = B exactly for square, invertible integer A and integer B.

    Fraction-free Gauss-Jordan elimination (Bareiss): each step replaces
    every row r other than the pivot row p by (piv * r - r[col] * p) / prev,
    where prev is the previous pivot; the division is exact, so the rows stay
    integers.  A zero pivot is swapped with a later row.  At the end the left
    block is piv * I for the last pivot, and X = right block / piv is built as
    Fractions only then.  A singular A raises InputError.
    """
    n = len(A)
    aug = [list(A[i]) + list(B[i]) for i in range(n)]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise InputError("singular linear system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        prow = aug[col]
        piv = prow[col]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [(piv * v - f * pv) // prev for v, pv in zip(aug[r], prow)]
        prev = piv
    return [[Fraction(v, prev) for v in row[n:]] for row in aug]


@dataclass
class ChainAnalysis:
    """Recurrence structure of the chain induced by a stable set and a word.

    absorption maps (state index, class position) to the exact probability
    of ending up in that recurrent class when starting from the state.
    """

    closed_set: int
    classes: tuple[int, ...]
    transient: int
    absorption: dict[tuple[int, int], Fraction]

    def absorption_row(self, state: int) -> tuple[Fraction, ...]:
        return tuple(self.absorption[(state, c)] for c in range(len(self.classes)))

    def class_mass(self, vec: Sequence[Fraction]) -> list[Fraction]:
        """Absorption mass per class for an exact start vector on the closed set."""
        out = [Fraction(0)] * len(self.classes)
        for i, p in enumerate(vec):
            if p != 0:
                for c in range(len(self.classes)):
                    out[c] += p * self.absorption[(i, c)]
        return out


def chain_analysis(a: Automaton, G, word) -> ChainAnalysis:
    """Classes, transient part and exact absorption probabilities of (G, word).

    Only the transient rows of the word matrix are composed, as integer rows
    M over the denominator den of the scaled letters.  With T the transient
    states, the absorption probabilities X solve (den * I - M_TT) X = B in
    integers, where B sums the rows of M over each class; solve_linear makes
    the Fractions.
    """
    mask = as_mask(a, G)
    w = a.word(word)
    if not w:
        raise InputError("empty word defines no chain")
    if support_step(a, mask, w) & ~mask:
        raise InputError("G not closed under rho")
    rows = word_relation(a, w)
    classes = tuple(bottom_scc_masks(rows, mask))
    recurrent = 0
    for c in classes:
        recurrent |= c
    transient = mask & ~recurrent
    absorption: dict[tuple[int, int], Fraction] = {}
    for ci, c in enumerate(classes):
        for i in bits(mask):
            if c >> i & 1:
                absorption[(i, ci)] = Fraction(1)
            elif not (transient >> i & 1):
                absorption[(i, ci)] = Fraction(0)
    if transient:
        tlist = list(bits(transient))
        letters = a.scaled_matrices
        first, den = letters[w[0]]
        M, den = _compose([first[q] for q in tlist], den, letters, w[1:])
        A = [[den * (r == s) - row[t] for s, t in enumerate(tlist)] for r, row in enumerate(M)]
        B = [[sum(row[j] for j in bits(c)) for c in classes] for row in M]
        X = solve_linear(A, B)
        for r, q in enumerate(tlist):
            for ci in range(len(classes)):
                absorption[(q, ci)] = X[r][ci]
    return ChainAnalysis(mask, classes, transient, absorption)


def chain_parity_almost(a: Automaton, G, word) -> tuple[bool, tuple[tuple[int, int], ...]]:
    """Whether the chain induced by (G, word) satisfies parity almost surely.

    Returns the answer together with (class mask, internal minimum) per
    recurrent class.  Within a recurrent class every positive-probability
    word path between class states recurs infinitely often almost surely,
    so min p(Inf) equals the minimum profile entry over the class.
    """
    mask = as_mask(a, G)
    w = a.word(word)
    if not w:
        raise InputError("empty word defines no chain")
    if support_step(a, mask, w) & ~mask:
        raise InputError("G not closed under rho")
    prof = profile_of_word(a, w)
    minima = tuple(class_minima(prof, mask))
    return all(m % 2 == 0 for _, m in minima), minima


def make_accepting_absorbing(a: Automaton, F=None) -> Automaton:
    """Turn every state of F into a sink; Reach(F) probabilities are preserved.

    Used to reduce reachability to Buchi: once F is absorbing, visiting F
    at all and visiting it infinitely often are the same event.
    """
    mask = a.acceptance_mask() if F is None else as_mask(a, F)
    if mask == 0:
        return a
    zero, one = Fraction(0), Fraction(1)
    sink = [tuple(one if i == j else zero for j in range(a.n)) for i in range(a.n)]
    mats = [[sink[i] if mask >> i & 1 else row for i, row in enumerate(mat)] for mat in a.matrices]
    return Automaton(a.states, a.alphabet, mats, a.initial, a.acceptance)


def reach_as_buchi(a: Automaton) -> Automaton:
    """The reach condition of a as Buchi on the same target, made absorbing.

    Acceptance probabilities of every word are preserved; see
    make_accepting_absorbing.
    """
    buchi = a.with_acceptance(Acceptance.buchi(a.acceptance.states))
    return make_accepting_absorbing(buchi, a.acceptance_mask())

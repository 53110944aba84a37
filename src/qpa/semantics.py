"""Word semantics on the table: matrix products, propagation, support steps,
#-powers, and analysis of the homogeneous chain induced by a stable set and
a word."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .core import Acceptance, Automaton, Matrix, as_mask, as_vector, as_weights, bits
from .errors import InputError
from .graphs import bottom_scc_masks, bottom_states_mask
from .profiles import class_minima, profile_of_word


def mat_mul(x: Matrix, y: Matrix) -> Matrix:
    n = len(x)
    yt = tuple(zip(*y))
    return tuple(
        tuple(sum(xi[m] * yj[m] for m in range(n)) for yj in yt) for xi in x
    )


def identity_matrix(n: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def word_matrix(a: Automaton, word) -> Matrix:
    """Exact product of the letter matrices; the empty word gives the identity."""
    w = a.word(word)
    out = identity_matrix(a.n)
    for k in w:
        out = mat_mul(out, a.matrices[k])
    return out


def vec_mat(vec: Sequence[Fraction], m: Matrix) -> tuple[Fraction, ...]:
    n = len(vec)
    return tuple(sum(vec[i] * m[i][j] for i in range(n)) for j in range(n))


def propagate(a: Automaton, beta: Mapping[str, Fraction] | Sequence[Fraction], word) -> dict[str, Fraction]:
    """Push a distribution through a finite word; exact, zero entries omitted."""
    vec = as_vector(a, beta)
    for k in a.word(word):
        vec = vec_mat(vec, a.matrices[k])
    return as_weights(a, vec)


def propagate_vector(a: Automaton, vec: Sequence[Fraction], word: Sequence[int]) -> tuple[Fraction, ...]:
    out = tuple(vec)
    for k in word:
        out = vec_mat(out, a.matrices[k])
    return out


def rel_image(rows: Sequence[int], mask: int) -> int:
    out = 0
    for i in bits(mask):
        out |= rows[i]
    return out


def rel_compose(x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
    return tuple(rel_image(y, row) for row in x)


def word_relation(a: Automaton, word: Sequence[int]) -> tuple[int, ...]:
    """Positive-transition relation of a word as destination bitmasks."""
    rows = tuple(1 << i for i in range(a.n))
    for k in word:
        rows = rel_compose(rows, a.relation(k))
    return rows


def support_step(a: Automaton, S, word) -> int:
    """S . word: the support of delta(S, word), as a bitmask."""
    mask = as_mask(a, S)
    for k in a.word(word):
        mask = rel_image(a.relation(k), mask)
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


def solve_linear(A: list[list[Fraction]], B: list[list[Fraction]]) -> list[list[Fraction]]:
    """Solve A X = B exactly by Gaussian elimination; A must be invertible."""
    n = len(A)
    m = len(B[0]) if B else 0
    aug = [list(A[i]) + list(B[i]) for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise InputError("singular linear system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [vr - f * vc for vr, vc in zip(aug[r], aug[col])]
    return [row[n : n + m] for row in aug]


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
    """Classes, transient part and exact absorption probabilities of (G, word)."""
    mask = as_mask(a, G)
    w = a.word(word)
    if not w:
        raise InputError("empty word defines no chain")
    if support_step(a, mask, w) & ~mask:
        raise InputError("G not closed under rho")
    rows = word_relation(a, w)
    classes = tuple(sorted(bottom_scc_masks(rows, mask), key=lambda m: m & -m))
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
        tpos = {q: r for r, q in enumerate(tlist)}
        M = word_matrix(a, w)
        A = [
            [
                (Fraction(1) if r == s else Fraction(0)) - M[q][tlist[s]]
                for s in range(len(tlist))
            ]
            for r, q in enumerate(tlist)
        ]
        B = [
            [sum(M[q][j] for j in bits(c)) for c in classes]
            for q in tlist
        ]
        X = solve_linear(A, B)
        for q in tlist:
            for ci in range(len(classes)):
                absorption[(q, ci)] = X[tpos[q]][ci]
    return ChainAnalysis(mask, classes, transient, absorption)


def chain_parity_almost(a: Automaton, G, word, priorities=None) -> tuple[bool, tuple[tuple[int, int], ...]]:
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
    prof = profile_of_word(a, priorities, w)
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
    one, zero = Fraction(1), Fraction(0)
    mats = []
    for mat in a.matrices:
        rows = []
        for i in range(a.n):
            if mask >> i & 1:
                rows.append(tuple(one if j == i else zero for j in range(a.n)))
            else:
                rows.append(mat[i])
        mats.append(tuple(rows))
    return Automaton(a.states, a.alphabet, mats, a.initial, a.acceptance)

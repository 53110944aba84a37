"""Exact-arithmetic domain types: automata, acceptance conditions, lasso words, verdicts."""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import InputError

Matrix = tuple[tuple[Fraction, ...], ...]

SET_KINDS = ("safety", "reach", "buchi", "cobuchi")
ACCEPTANCE_KINDS = SET_KINDS + ("parity",)


@dataclass(frozen=True)
class Acceptance:
    """Acceptance condition on infinite runs.

    Set-based kinds keep their state set in `states`; parity keeps one
    priority per state in `priorities` and accepts a run iff the minimum
    priority seen infinitely often is even.  Buchi is parity {0,1} (F maps
    to 0), coBuchi is parity {1,2} (F maps to 2).
    """

    kind: str
    states: frozenset[str] = frozenset()
    priorities: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if self.kind not in ACCEPTANCE_KINDS:
            raise InputError(f"unknown acceptance kind {self.kind!r}")

    @classmethod
    def safety(cls, states: Iterable[str]) -> Acceptance:
        return cls("safety", frozenset(states))

    @classmethod
    def reach(cls, states: Iterable[str]) -> Acceptance:
        return cls("reach", frozenset(states))

    @classmethod
    def buchi(cls, states: Iterable[str]) -> Acceptance:
        return cls("buchi", frozenset(states))

    @classmethod
    def cobuchi(cls, states: Iterable[str]) -> Acceptance:
        return cls("cobuchi", frozenset(states))

    @classmethod
    def parity(cls, priorities: Mapping[str, int]) -> Acceptance:
        return cls("parity", frozenset(), tuple(sorted(priorities.items())))

    @property
    def priority_map(self) -> dict[str, int]:
        return dict(self.priorities)


@dataclass(frozen=True)
class LassoWord:
    """An infinite word prefix . period^omega with a nonempty period."""

    prefix: tuple[str, ...]
    period: tuple[str, ...]

    def __post_init__(self):
        if not self.period:
            raise InputError("lasso period must be nonempty")

    def __str__(self) -> str:
        head = " ".join(self.prefix)
        return f"({head})({' '.join(self.period)})^w" if head else f"({' '.join(self.period)})^w"


@dataclass
class Verdict:
    """Outcome of a decision query plus a machine-checkable witness.

    answer is "yes", "no" or "undecidable_in_general".  Every "yes" for a
    decidable query carries a witness that replays through the library.
    """

    answer: str
    witness: dict | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.answer == "yes"


@dataclass(frozen=True)
class Budgets:
    """Resource ceilings; exceeding any of them raises BudgetExceededError."""

    monoid: int = 1_000_000
    subset: int = 1_000_000
    path_cap: int = 200_000
    extended_states: int = 6
    pump_doublings: int = 20
    word_cap: int = 100_000


DEFAULT_BUDGETS = Budgets()


class Automaton:
    """A finite probabilistic table with an optional acceptance condition.

    states and alphabet are ordered; matrices[k][i][j] is the probability of
    moving from state i to state j on letter k.  Entries are exact Fractions
    and every row sums to 1.  Instances are treated as immutable; state sets
    are bitmasks over the state indices throughout the library.
    """

    def __init__(
        self,
        states: Sequence[str],
        alphabet: Sequence[str],
        matrices: Sequence[Sequence[Sequence[Fraction | int | str]]],
        initial: Sequence[Fraction | int | str],
        acceptance: Acceptance | None = None,
    ):
        self.states = tuple(states)
        self.alphabet = tuple(alphabet)
        self.matrices: tuple[Matrix, ...] = tuple(
            tuple(tuple(Fraction(p) for p in row) for row in mat) for mat in matrices
        )
        self.initial = tuple(Fraction(p) for p in initial)
        self.acceptance = acceptance
        self.state_index = {q: i for i, q in enumerate(self.states)}
        self.letter_index = {a: k for k, a in enumerate(self.alphabet)}
        self._relations: dict[int, tuple[int, ...]] = {}

    # -- basic views -------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def mask(self, names: Iterable[str] | str) -> int:
        """Bitmask of a state set given as names (a string is split on spaces)."""
        if isinstance(names, str):
            names = names.split()
        m = 0
        for q in names:
            if q not in self.state_index:
                raise InputError(f"unknown state {q!r}")
            m |= 1 << self.state_index[q]
        return m

    def names(self, mask: int) -> tuple[str, ...]:
        return tuple(q for i, q in enumerate(self.states) if mask >> i & 1)

    def word(self, letters: str | Sequence[str] | Sequence[int]) -> tuple[int, ...]:
        """Normalize a word to letter indices.

        A string is split on whitespace; if that fails and every character
        is a letter, it is read character by character.  Sequences may mix
        letter names and letter indices.
        """
        if isinstance(letters, str):
            toks: Sequence[str] | Sequence[int] = letters.split()
            if not all(t in self.letter_index for t in toks):
                chars = [c for c in letters if not c.isspace()]
                if chars and all(c in self.letter_index for c in chars):
                    toks = chars
            letters = toks
        out = []
        for t in letters:
            if isinstance(t, int):
                if not 0 <= t < len(self.alphabet):
                    raise InputError(f"letter index {t} out of range")
                out.append(t)
            elif t in self.letter_index:
                out.append(self.letter_index[t])
            else:
                raise InputError(f"unknown letter {t!r}")
        return tuple(out)

    def letters(self, word: Sequence[int]) -> tuple[str, ...]:
        return tuple(self.alphabet[k] for k in word)

    def relation(self, letter: int) -> tuple[int, ...]:
        """Positive-transition rows of one letter as destination bitmasks."""
        if letter not in self._relations:
            mat = self.matrices[letter]
            rows = []
            for i in range(self.n):
                m = 0
                for j in range(self.n):
                    if mat[i][j] > 0:
                        m |= 1 << j
                rows.append(m)
            self._relations[letter] = tuple(rows)
        return self._relations[letter]

    @property
    def initial_support(self) -> int:
        m = 0
        for i, p in enumerate(self.initial):
            if p > 0:
                m |= 1 << i
        return m

    def epsilon(self) -> Fraction:
        """Smallest positive entry over all letter matrices."""
        best: Fraction | None = None
        for mat in self.matrices:
            for row in mat:
                for p in row:
                    if p > 0 and (best is None or p < best):
                        best = p
        if best is None:
            raise InputError("automaton has no positive transition")
        return best

    # -- acceptance views --------------------------------------------------

    def acceptance_mask(self) -> int:
        if self.acceptance is None or self.acceptance.kind not in SET_KINDS:
            raise InputError("acceptance is not a state-set condition")
        return self.mask(self.acceptance.states)

    def priorities(self) -> tuple[int, ...]:
        """Per-state priorities for parity-expressible acceptance."""
        acc = self.acceptance
        if acc is None:
            raise InputError("automaton has no acceptance condition")
        if acc.kind == "parity":
            pm = acc.priority_map
            missing = [q for q in self.states if q not in pm]
            if missing:
                raise InputError(f"parity priorities missing for {missing}")
            return tuple(pm[q] for q in self.states)
        if acc.kind == "buchi":
            return tuple(0 if q in acc.states else 1 for q in self.states)
        if acc.kind == "cobuchi":
            return tuple(2 if q in acc.states else 1 for q in self.states)
        raise InputError(f"{acc.kind} acceptance has no parity encoding")

    def with_acceptance(self, acceptance: Acceptance | None) -> Automaton:
        return Automaton(self.states, self.alphabet, self.matrices, self.initial, acceptance)

    # -- equality (state/letter order sensitive) ----------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Automaton):
            return NotImplemented
        return (
            self.states == other.states
            and self.alphabet == other.alphabet
            and self.matrices == other.matrices
            and self.initial == other.initial
            and self.acceptance == other.acceptance
        )

    def __repr__(self) -> str:
        return f"Automaton(|Q|={self.n}, |Sigma|={len(self.alphabet)}, acceptance={self.acceptance!r})"


def validate_automaton(a: Automaton) -> list[str]:
    """All invariant violations of an automaton, as human-readable strings."""
    out: list[str] = []
    if not a.states:
        out.append("no states declared")
    if not a.alphabet:
        out.append("no letters declared")
    if len(set(a.states)) != len(a.states):
        out.append("duplicate state names")
    if len(set(a.alphabet)) != len(a.alphabet):
        out.append("duplicate letter names")
    if len(a.matrices) != len(a.alphabet):
        out.append("matrix count differs from alphabet size")
        return out
    n = a.n
    for k, letter in enumerate(a.alphabet):
        mat = a.matrices[k]
        if len(mat) != n or any(len(row) != n for row in mat):
            out.append(f"matrix for letter {letter} is not {n}x{n}")
            continue
        for i, q in enumerate(a.states):
            if any(p < 0 for p in mat[i]):
                out.append(f"negative probability for state {q}, letter {letter}")
            if sum(mat[i]) != 1:
                out.append(f"row sum != 1 for state {q}, letter {letter}")
    if len(a.initial) != n:
        out.append("initial distribution length differs from state count")
    else:
        if any(p < 0 for p in a.initial):
            out.append("negative initial probability")
        if sum(a.initial) != 1:
            out.append("initial distribution does not sum to 1")
    acc = a.acceptance
    if acc is not None:
        if acc.kind in SET_KINDS:
            for q in sorted(acc.states):
                if q not in a.state_index:
                    out.append(f"acceptance refers to unknown state {q}")
        else:
            pm = acc.priority_map
            for q in sorted(pm):
                if q not in a.state_index:
                    out.append(f"parity priority on unknown state {q}")
                elif pm[q] < 0:
                    out.append(f"negative priority on state {q}")
            for q in a.states:
                if q not in pm:
                    out.append(f"missing parity priority for state {q}")
    return out


def checked(a: Automaton) -> Automaton:
    """Return the automaton unchanged, raising InputError on any violation."""
    problems = validate_automaton(a)
    if problems:
        raise InputError("; ".join(problems))
    return a


def as_vector(a: Automaton, beta: Mapping[str, Fraction | int | str] | Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Normalize a distribution given by name or by index to an exact vector."""
    if isinstance(beta, Mapping):
        vec = [Fraction(0)] * a.n
        for q, p in beta.items():
            if q not in a.state_index:
                raise InputError(f"unknown state {q!r}")
            vec[a.state_index[q]] = Fraction(p)
    else:
        vec = [Fraction(p) for p in beta]
        if len(vec) != a.n:
            raise InputError("distribution length differs from state count")
    if any(p < 0 for p in vec):
        raise InputError("negative probability in distribution")
    if sum(vec) != 1:
        raise InputError("distribution does not sum to 1")
    return tuple(vec)


def as_weights(a: Automaton, vec: Sequence[Fraction]) -> dict[str, Fraction]:
    """Render a vector as a name-keyed map, omitting zero entries."""
    return {a.states[i]: p for i, p in enumerate(vec) if p != 0}


def as_mask(a: Automaton, S: int | Iterable[str]) -> int:
    """A state set given as a bitmask or by names (see Automaton.mask), as a bitmask."""
    return S if isinstance(S, int) else a.mask(S)


def support_mask(vec: Sequence[Fraction]) -> int:
    m = 0
    for i, p in enumerate(vec):
        if p > 0:
            m |= 1 << i
    return m


def bits(mask: int):
    """Iterate the set bit positions of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low

"""Exact-arithmetic domain types: automata, acceptance conditions, lasso words, verdicts."""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .errors import InputError

Matrix = tuple[tuple[Fraction, ...], ...]
# integer rows over one common denominator
ScaledMatrix = tuple[tuple[tuple[int, ...], ...], int]

SET_KINDS = ("safety", "reach", "buchi", "cobuchi")
ACCEPTANCE_KINDS = SET_KINDS + ("parity",)


@dataclass(frozen=True)
class Acceptance:
    """Acceptance condition on infinite runs.

    Set-based kinds keep their state set in `states`; parity keeps one
    priority per state in `priorities` and accepts a run iff the minimum
    priority seen infinitely often is even; a priority is a nonnegative int
    (not a bool), and anything else raises InputError here.  Buchi is
    parity {0,1} (F maps to 0), coBuchi is parity {1,2} (F maps to 2).
    """

    kind: str
    states: frozenset[str] = frozenset()
    priorities: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if self.kind not in ACCEPTANCE_KINDS:
            raise InputError(f"unknown acceptance kind {self.kind!r}")
        for q, p in self.priorities:
            if not isinstance(p, int) or isinstance(p, bool):
                raise InputError(f"priority on state {q} is not an int: {p!r}")
            if p < 0:
                raise InputError(f"negative priority on state {q}")

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
    # extended support graph edges; its products are capped at
    # supportgraph.PRODUCTS_PER_EDGE x path_cap
    path_cap: int = 200_000
    extended_states: int = 6
    word_cap: int = 100_000


DEFAULT_BUDGETS = Budgets()


class Automaton:
    """A finite probabilistic table with an optional acceptance condition.

    states and alphabet are ordered; matrices[k][i][j] is the probability of
    moving from state i to state j on letter k.  Entries are exact Fractions
    and every row sums to 1.  State sets are bitmasks over the state
    indices throughout the library.

    An Automaton is checked when it is built: the constructor converts each
    letter matrix once, builds its integer rows over one common denominator
    once (scaled_matrices), and checks the tables on those integers.  No
    entry is negative, every row sums to its denominator, the initial
    vector sums to 1 and the acceptance names only known states, with a
    priority on every state for parity.  Any problem raises InputError with
    validate_automaton's messages joined by "; ", so every Automaton that
    exists is a valid one.

    Instances are treated as immutable, and the library relies on it: an
    instance keeps memos of what it derives from its tables (the letter
    relations, classify.is_structurally_simple's verdict per Budgets value
    and supportgraph's #-closures per origin and Budgets value) and trusts
    them for its lifetime.  Build a new Automaton, or use with_acceptance
    or with_initial, rather than changing one.
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
            tuple(
                tuple([p if type(p) is Fraction else as_fraction(p, "transition probability") for p in row])
                for row in mat
            )
            for mat in matrices
        )
        self.scaled_matrices: tuple[ScaledMatrix, ...] = tuple(map(scaled, self.matrices))
        self.initial = tuple(as_fraction(p, "initial probability") for p in initial)
        self.acceptance = acceptance
        self.state_index = {q: i for i, q in enumerate(self.states)}
        self.letter_index = {a: k for k, a in enumerate(self.alphabet)}
        self._relations: dict[int, tuple[int, ...]] = {}
        # classify.is_structurally_simple's verdict, or its budget-stop message
        self._gate: dict[Budgets, Verdict | str] = {}
        # supportgraph's #-closures (ExtendedSupportGraph), per origin mask
        # and Budgets value
        self._searches: dict[tuple[int, Budgets], object] = {}
        problems = validate_automaton(self)
        if problems:
            raise InputError("; ".join(problems))

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
            rows, _ = self.scaled_matrices[letter]
            self._relations[letter] = tuple(
                sum(1 << j for j, x in enumerate(row) if x > 0) for row in rows
            )
        return self._relations[letter]

    @property
    def initial_support(self) -> int:
        return support_mask(self.initial)

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
        """The same tables under another acceptance condition.

        The tables are not converted or checked again: the result shares
        them, their integer rows and the memos that depend on the tables
        alone (the letter relations, the gate verdicts and the #-closures).
        Only the new acceptance is checked.
        """
        b = object.__new__(Automaton)
        b.__dict__.update(self.__dict__)
        b.acceptance = acceptance
        problems = _acceptance_problems(b)
        if problems:
            raise InputError("; ".join(problems))
        return b

    def with_initial(self, initial: Sequence[Fraction | int | str]) -> Automaton:
        """The same tables from another initial distribution.

        As with with_acceptance, the result shares the tables, their integer
        rows and the memos; only the new vector is checked, with the
        constructor's messages.
        """
        b = object.__new__(Automaton)
        b.__dict__.update(self.__dict__)
        b.initial = tuple(as_fraction(p, "initial probability") for p in initial)
        problems = _initial_problems(b)
        if problems:
            raise InputError("; ".join(problems))
        return b

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
    """All invariant violations of an automaton, as human-readable strings.

    This is the check the constructor runs, on the integer rows it built,
    so it returns [] for every automaton that could be built; it is the
    reporting view of what Automaton(...) raises InputError for.
    """
    out: list[str] = []
    if not a.states:
        out.append("no states declared")
    if not a.alphabet:
        out.append("no letters declared")
    if len(a.state_index) != len(a.states):
        out.append("duplicate state names")
    if len(a.letter_index) != len(a.alphabet):
        out.append("duplicate letter names")
    if len(a.matrices) != len(a.alphabet):
        out.append("matrix count differs from alphabet size")
        return out
    n = a.n
    for letter, (rows, den) in zip(a.alphabet, a.scaled_matrices):
        if len(rows) != n or any(len(row) != n for row in rows):
            out.append(f"matrix for letter {letter} is not {n}x{n}")
            continue
        for q, row in zip(a.states, rows):
            if min(row, default=0) < 0:
                out.append(f"negative probability for state {q}, letter {letter}")
            if sum(row) != den:
                out.append(f"row sum != 1 for state {q}, letter {letter}")
    return out + _initial_problems(a) + _acceptance_problems(a)


def _initial_problems(a: Automaton) -> list[str]:
    """What is wrong with the initial vector: its length, a negative entry
    or a sum other than 1."""
    if len(a.initial) != a.n:
        return ["initial distribution length differs from state count"]
    out: list[str] = []
    (row,), den = scaled((a.initial,))
    if min(row, default=0) < 0:
        out.append("negative initial probability")
    if sum(row) != den:
        out.append("initial distribution does not sum to 1")
    return out


def _acceptance_problems(a: Automaton) -> list[str]:
    """The states an acceptance condition names that a does not have, and
    for parity the states it gives no priority (Acceptance checks the
    priorities themselves)."""
    acc = a.acceptance
    out: list[str] = []
    if acc is None:
        return out
    if acc.kind in SET_KINDS:
        for q in sorted(acc.states):
            if q not in a.state_index:
                out.append(f"acceptance refers to unknown state {q}")
    else:
        pm = acc.priority_map
        for q in sorted(pm):
            if q not in a.state_index:
                out.append(f"parity priority on unknown state {q}")
        for q in a.states:
            if q not in pm:
                out.append(f"missing parity priority for state {q}")
    return out


def as_vector(a: Automaton, beta: Mapping[str, Fraction | int | str] | Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Normalize a distribution given by name or by index to an exact vector."""
    if isinstance(beta, Mapping):
        vec = [Fraction(0)] * a.n
        for q, p in beta.items():
            if q not in a.state_index:
                raise InputError(f"unknown state {q!r}")
            vec[a.state_index[q]] = as_fraction(p, f"probability of {q!r}")
    else:
        vec = [as_fraction(p, "probability") for p in beta]
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
    """A state set given as a bitmask or by names (see Automaton.mask), as a
    bitmask.  InputError for an int outside 0..a.full_mask; 0 is returned."""
    if not isinstance(S, int):
        return a.mask(S)
    if not 0 <= S <= a.full_mask:
        raise InputError(f"state mask {S} is out of range for {a.n} states")
    return S


def as_fraction(x: Fraction | int | str, what: str) -> Fraction:
    """x as an exact number; InputError, naming what, when it is none.  A
    Fraction is immutable and is returned as it is, not copied."""
    if type(x) is Fraction:
        return x
    try:
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise InputError(f"{what} is not a number: {x!r}") from None


def support_mask(vec: Sequence[Fraction]) -> int:
    m = 0
    for i, p in enumerate(vec):
        if p > 0:
            m |= 1 << i
    return m


def scaled(mat: Sequence[Sequence[Fraction | int]]) -> ScaledMatrix:
    """An exact matrix as integer rows over one common denominator.

    The denominator is the lcm of the entry denominators, so the rows times
    1/den give back the matrix exactly.
    """
    den = lcm(*{v.denominator for row in mat for v in row})
    return tuple(tuple([v.numerator * (den // v.denominator) for v in row]) for row in mat), den


def bits(mask: int):
    """Iterate the set bit positions of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low

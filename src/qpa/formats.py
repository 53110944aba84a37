"""Textual v1 file formats for probabilistic automata and DFAs.

Automaton format (UTF-8, line oriented, '#' starts a comment):

    states: s t u
    alphabet: a b
    init: s=1/2 t=1/2
    acceptance: parity s=1 t=1 u=0     # or: buchi s | cobuchi s | safety s t | reach u
    trans: s a s 1/2

Probabilities are exact rationals: "1/2", "1", "0.25" all parse exactly.
The acceptance line is optional (bare tables are legal); everything else is
required.  The parser checks the syntax and the names, and parses each
distinct probability token once per text; the Automaton constructor checks
the tables (rows and the initial vector summing to 1, a priority on every
state) on the integer rows it builds once.

DFA format replaces init/acceptance/trans with:

    init: q0
    accept: q1 q2
    trans: src letter dst
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .core import Acceptance, Automaton, SET_KINDS
from .errors import FormatError, InputError

_TOKEN = re.compile(r"\S+")
_KEY = re.compile(r"^(\w+)\s*:\s*(.*)$")


def _split_lines(text: str, keys: tuple[str, ...]):
    """Yield (lineno, key, body tokens, line) and reject unknown keys.

    The tokens are plain strings; _column finds a token's column, which
    only an error needs.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line or line.isspace():
            continue
        head, colon, body = line.partition(":")
        key = head.strip()
        if not colon or key not in keys:
            m = _KEY.match(line.strip())
            if not m:
                raise FormatError("expected 'key: ...'", lineno, 1)
            raise FormatError(f"unknown section {m.group(1)!r}", lineno, 1)
        yield lineno, key, body.split(), line


def _column(line: str, j: int) -> int:
    """The 1-based column of body token j of a line from _split_lines."""
    return [m.start() + 1 for m in _TOKEN.finditer(line, line.index(":") + 1)][j]


def _parse_prob(
    probs: dict[str, Fraction], tok: str, lineno: int, line: str, j: int, skip: int = 0
) -> Fraction:
    """tok as a probability, parsed once per text through probs.  A bad
    token raises FormatError at body token j's column, plus skip."""
    p = probs.get(tok)
    if p is None:
        try:
            p = Fraction(tok)
        except (ValueError, ZeroDivisionError):
            raise FormatError(f"bad probability {tok!r}", lineno, _column(line, j) + skip)
        if not 0 <= p.numerator <= p.denominator:
            raise FormatError(f"probability {tok!r} outside [0,1]", lineno, _column(line, j) + skip)
        probs[tok] = p
    return p


def parse_automaton(text: str) -> Automaton:
    """Parse the v1 automaton format; raises FormatError / InputError.

    The tables are checked by the Automaton constructor (see Automaton).
    """
    # name -> index, in declaration order
    states: dict[str, int] = {}
    alphabet: dict[str, int] = {}
    init: dict[str, Fraction] = {}
    acceptance: Acceptance | None = None
    trans: dict[tuple[int, int, int], Fraction] = {}
    probs: dict[str, Fraction] = {}
    seen: set[str] = set()

    for lineno, key, toks, line in _split_lines(text, ("states", "alphabet", "init", "acceptance", "trans")):
        if key in ("states", "alphabet") and key in seen:
            raise FormatError(f"duplicate {key!r} section", lineno, 1)
        if key == "states":
            for j, t in enumerate(toks):
                if t in states:
                    raise FormatError(f"duplicate state {t!r}", lineno, _column(line, j))
                states[t] = len(states)
        elif key == "alphabet":
            for j, t in enumerate(toks):
                if t in alphabet:
                    raise FormatError(f"duplicate letter {t!r}", lineno, _column(line, j))
                alphabet[t] = len(alphabet)
        elif key == "init":
            if "init" in seen:
                raise FormatError("duplicate 'init' section", lineno, 1)
            for j, t in enumerate(toks):
                if "=" not in t:
                    raise FormatError(f"expected state=prob, got {t!r}", lineno, _column(line, j))
                q, _, ptok = t.partition("=")
                if q not in states:
                    raise FormatError(f"unknown state {q!r}", lineno, _column(line, j))
                if q in init:
                    raise FormatError(f"duplicate initial weight for {q!r}", lineno, _column(line, j))
                init[q] = _parse_prob(probs, ptok, lineno, line, j, len(q) + 1)
        elif key == "acceptance":
            if acceptance is not None:
                raise FormatError("duplicate 'acceptance' section", lineno, 1)
            if not toks:
                raise FormatError("empty acceptance line", lineno, 1)
            kind = toks[0]
            if kind in SET_KINDS:
                for j, t in enumerate(toks[1:], start=1):
                    if t not in states:
                        raise FormatError(f"unknown state {t!r}", lineno, _column(line, j))
                acceptance = Acceptance(kind, frozenset(toks[1:]))
            elif kind == "parity":
                prio: dict[str, int] = {}
                for j, t in enumerate(toks[1:], start=1):
                    if "=" not in t:
                        raise FormatError(f"expected state=priority, got {t!r}", lineno, _column(line, j))
                    q, _, ptok = t.partition("=")
                    if q not in states:
                        raise FormatError(f"unknown state {q!r}", lineno, _column(line, j))
                    if q in prio:
                        raise FormatError(f"duplicate priority for {q!r}", lineno, _column(line, j))
                    try:
                        prio[q] = int(ptok)
                    except ValueError:
                        raise FormatError(f"bad priority {ptok!r}", lineno, _column(line, j) + len(q) + 1)
                acceptance = Acceptance.parity(prio)
            else:
                raise FormatError(f"unknown acceptance kind {kind!r}", lineno, _column(line, 0))
        else:  # trans
            if len(toks) != 4:
                raise FormatError("expected 'trans: src letter dst prob'", lineno, 1)
            src, letter, dst, ptok = toks
            i = states.get(src)
            if i is None:
                raise FormatError(f"unknown state {src!r}", lineno, _column(line, 0))
            k = alphabet.get(letter)
            if k is None:
                raise FormatError(f"unknown letter {letter!r}", lineno, _column(line, 1))
            j = states.get(dst)
            if j is None:
                raise FormatError(f"unknown state {dst!r}", lineno, _column(line, 2))
            if (k, i, j) in trans:
                raise FormatError(f"duplicate transition {src} {letter} {dst}", lineno, _column(line, 0))
            trans[(k, i, j)] = _parse_prob(probs, ptok, lineno, line, 3)
        seen.add(key)

    for required in ("states", "alphabet", "init", "trans"):
        if required not in seen:
            raise InputError(f"missing '{required}:' line")

    n = len(states)
    zero = Fraction(0)
    matrices = [[[zero] * n for _ in range(n)] for _ in alphabet]
    for (k, i, j), p in trans.items():
        matrices[k][i][j] = p
    initial = [init.get(q, zero) for q in states]
    return Automaton(states, alphabet, matrices, initial, acceptance)


def serialize_automaton(a: Automaton) -> str:
    """Canonical v1 text; parsing it back yields an equal automaton."""
    lines = [
        "states: " + " ".join(a.states),
        "alphabet: " + " ".join(a.alphabet),
        "init: " + " ".join(f"{q}={p}" for q, p in zip(a.states, a.initial) if p > 0),
    ]
    acc = a.acceptance
    if acc is not None:
        if acc.kind in SET_KINDS:
            members = " ".join(q for q in a.states if q in acc.states)
            lines.append(f"acceptance: {acc.kind} {members}".rstrip())
        else:
            pm = acc.priority_map
            lines.append("acceptance: parity " + " ".join(f"{q}={pm[q]}" for q in a.states))
    for k, letter in enumerate(a.alphabet):
        for i, src in enumerate(a.states):
            for j, dst in enumerate(a.states):
                p = a.matrices[k][i][j]
                if p > 0:
                    lines.append(f"trans: {src} {letter} {dst} {p}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DFA:
    """A deterministic, total finite automaton on finite words."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    init: str
    accepting: frozenset[str]
    delta: tuple[tuple[int, ...], ...]  # delta[letter][state] -> state index

    def step(self, q: str, letter: str) -> str:
        return self.states[self.delta[self.alphabet.index(letter)][self.states.index(q)]]

    def accepts(self, word) -> bool:
        i = self.states.index(self.init)
        for letter in word:
            i = self.delta[self.alphabet.index(letter)][i]
        return self.states[i] in self.accepting


def parse_dfa(text: str) -> DFA:
    """Parse the v1 DFA format; the transition table must be deterministic and total."""
    states: list[str] = []
    alphabet: list[str] = []
    init: str | None = None
    accepting: list[str] = []
    moves: dict[tuple[str, str], str] = {}
    seen: set[str] = set()

    for lineno, key, toks, line in _split_lines(text, ("states", "alphabet", "init", "accept", "trans")):
        if key in ("states", "alphabet", "init", "accept") and key in seen:
            raise FormatError(f"duplicate {key!r} section", lineno, 1)
        if key == "states":
            for j, t in enumerate(toks):
                if t in states:
                    raise FormatError(f"duplicate state {t!r}", lineno, _column(line, j))
                states.append(t)
        elif key == "alphabet":
            for j, t in enumerate(toks):
                if t in alphabet:
                    raise FormatError(f"duplicate letter {t!r}", lineno, _column(line, j))
                alphabet.append(t)
        elif key == "init":
            if len(toks) != 1:
                raise FormatError("expected a single initial state", lineno, 1)
            if toks[0] not in states:
                raise FormatError(f"unknown state {toks[0]!r}", lineno, _column(line, 0))
            init = toks[0]
        elif key == "accept":
            for j, t in enumerate(toks):
                if t not in states:
                    raise FormatError(f"unknown state {t!r}", lineno, _column(line, j))
                accepting.append(t)
        else:
            if len(toks) != 3:
                raise FormatError("expected 'trans: src letter dst'", lineno, 1)
            src, letter, dst = toks
            if src not in states:
                raise FormatError(f"unknown state {src!r}", lineno, _column(line, 0))
            if letter not in alphabet:
                raise FormatError(f"unknown letter {letter!r}", lineno, _column(line, 1))
            if dst not in states:
                raise FormatError(f"unknown state {dst!r}", lineno, _column(line, 2))
            if (src, letter) in moves:
                raise FormatError(
                    f"nondeterministic move for {src!r} on {letter!r}", lineno, _column(line, 0)
                )
            moves[(src, letter)] = dst
        seen.add(key)

    for required in ("states", "alphabet", "init", "trans"):
        if required not in seen:
            raise InputError(f"missing '{required}:' line")
    assert init is not None
    for q in states:
        for letter in alphabet:
            if (q, letter) not in moves:
                raise InputError(f"missing move for state {q!r} on letter {letter!r}")

    sidx = {q: i for i, q in enumerate(states)}
    delta = tuple(
        tuple(sidx[moves[(q, letter)]] for q in states) for letter in alphabet
    )
    return DFA(tuple(states), tuple(alphabet), init, frozenset(accepting), delta)


def serialize_dfa(d: DFA) -> str:
    lines = [
        "states: " + " ".join(d.states),
        "alphabet: " + " ".join(d.alphabet),
        f"init: {d.init}",
        ("accept: " + " ".join(q for q in d.states if q in d.accepting)).rstrip(),
    ]
    for k, letter in enumerate(d.alphabet):
        for i, src in enumerate(d.states):
            lines.append(f"trans: {src} {letter} {d.states[d.delta[k][i]]}")
    return "\n".join(lines) + "\n"

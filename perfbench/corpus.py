"""Seeded query pools for the four benchmark workloads.

Each workload has a fixed pool of queries, generated from the workload's
pool seed.  Every pool query has an expected outcome recorded in
`expected/<workload>.json` and confirmed once against the oracles in
`tests/oracles.py` (see confirm.py).  A run's `--seed` orders the pool and
gives every automaton a random state order (see draw).

Automata are written straight to the v1 text format here, so the library
under test only ever sees text that it parses itself.  Nothing in this
module imports `qpa`.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("simple-omega", "structsimple-gate", "sharp-reach", "lasso-exact")

POOL_SEEDS = {
    "simple-omega": 110701,
    "structsimple-gate": 110702,
    "sharp-reach": 110703,
    "lasso-exact": 110704,
}

# Pool sizes are counted in automata; some workloads ask two queries of each.
POOL_AUTOMATA = {
    "simple-omega": 400,
    "structsimple-gate": 150,
    "sharp-reach": 130,
    "lasso-exact": 300,
}

# One fixed budget set per workload, as keyword arguments of qpa.Budgets.
BUDGETS = {
    "simple-omega": {"monoid": 3000},
    "structsimple-gate": {"path_cap": 800},
    "sharp-reach": {"path_cap": 1200},
    "lasso-exact": {},
}

SYNTH_EPS = "1/100"


@dataclass(frozen=True)
class Query:
    """One call into the library.

    kind is decide, sharp, synth, lasso_prob or jets.  text is the
    automaton in the v1 format; args holds the call's other inputs as plain
    names and strings.
    """

    qid: int
    kind: str
    text: str
    args: tuple

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.kind.encode())
        h.update(repr(self.args).encode())
        h.update(self.text.encode())
        return h.hexdigest()[:16]

    def label(self) -> str:
        return f"{self.kind}#{self.qid}"


def automaton_text(
    states: list[str],
    letters: list[str],
    rows: list[list[dict[int, Fraction]]],
    init: int,
    acceptance: str | None,
) -> str:
    """v1 text of an automaton with a Dirac initial distribution.

    rows[k][i] maps destination index to probability for letter k, state i.
    """
    lines = [
        "states: " + " ".join(states),
        "alphabet: " + " ".join(letters),
        f"init: {states[init]}=1",
    ]
    if acceptance is not None:
        lines.append("acceptance: " + acceptance)
    for k, letter in enumerate(letters):
        for i, src in enumerate(states):
            for j, p in sorted(rows[k][i].items()):
                lines.append(f"trans: {src} {letter} {states[j]} {p}")
    return "\n".join(lines) + "\n"


def _dyadic_row(rng: random.Random, n: int) -> dict[int, Fraction]:
    """One or two destinations, split 1/2 + 1/2 when there are two."""
    if rng.random() < 0.5:
        return {rng.randrange(n): Fraction(1)}
    row: dict[int, Fraction] = {}
    for _ in range(2):
        d = rng.randrange(n)
        row[d] = row.get(d, Fraction(0)) + Fraction(1, 2)
    return row


def _weighted_row(rng: random.Random, dests: list[int]) -> dict[int, Fraction]:
    """Non-dyadic weights over the given destinations (repeats merge)."""
    weights = [rng.choice((1, 2, 3, 4, 5)) for _ in dests]
    total = sum(weights)
    row: dict[int, Fraction] = {}
    for d, w in zip(dests, weights):
        row[d] = row.get(d, Fraction(0)) + Fraction(w, total)
    return row


def _acceptance(rng: random.Random, states: list[str], kind: str, max_priority: int = 3) -> str:
    if kind == "parity":
        return "parity " + " ".join(f"{q}={rng.randrange(max_priority + 1)}" for q in states)
    chosen = rng.sample(states, rng.randrange(1, len(states) + 1))
    return kind + " " + " ".join(q for q in states if q in chosen)


def _random_table(rng: random.Random, n: int, n_letters: int):
    states = [f"q{i}" for i in range(n)]
    letters = [chr(ord("a") + k) for k in range(n_letters)]
    rows = [[_dyadic_row(rng, n) for _ in range(n)] for _ in letters]
    return states, letters, rows, rng.randrange(n)


def _simple_omega(rng: random.Random, qid0: int) -> list[Query]:
    n, n_letters = rng.choice(((6, 2), (7, 2), (8, 2), (8, 2), (5, 3)))
    kind = rng.choice(("buchi", "cobuchi", "parity", "parity", "buchi", "cobuchi", "reach", "safety"))
    problem = rng.choice(("almost", "positive"))
    states, letters, rows, init = _random_table(rng, n, n_letters)
    text = automaton_text(states, letters, rows, init, _acceptance(rng, states, kind))
    return [Query(qid0, "decide", text, (problem, "simple"))]


def _structsimple_gate(rng: random.Random, qid0: int) -> list[Query]:
    n = 4 if rng.random() < 0.25 else 3
    kind = rng.choice(("reach", "buchi", "parity", "safety"))
    states, letters, rows, init = _random_table(rng, n, 2)
    text = automaton_text(states, letters, rows, init, _acceptance(rng, states, kind))
    return [
        Query(qid0, "decide", text, ("limit", "struct-simple")),
        Query(qid0 + 1, "decide", text, ("almost", "struct-simple")),
    ]


def _sharp_reach(rng: random.Random, qid0: int) -> list[Query]:
    n = 5 if rng.random() < 0.35 else 4
    states, letters, rows, init = _random_table(rng, n, 2)
    text = automaton_text(states, letters, rows, init, None)
    # targets avoid the initial state, so synthesis has mass to move
    others = [q for q in states if q != states[init]]
    target = tuple(sorted(rng.sample(others, rng.randrange(1, n))))
    return [
        Query(qid0, "sharp", text, ((states[init],), target)),
        Query(qid0 + 1, "synth", text, (target, SYNTH_EPS)),
    ]


def _lasso_exact(rng: random.Random, qid0: int) -> list[Query]:
    """A transient part feeding two or three closed blocks.

    Closed blocks make the acceptance probability a non-trivial fraction;
    non-dyadic weights make the exact numbers grow along the chain.
    """
    n = rng.choice((6, 7, 8, 9, 10, 11, 12))
    states = [f"q{i}" for i in range(n)]
    letters = ["a", "b"]
    n_blocks = rng.choice((2, 2, 3))
    sizes = [rng.choice((2, 3, 4, 5)) for _ in range(n_blocks)]
    while sum(sizes) > n - 2:
        if len(sizes) > 2:
            sizes.pop()
        else:
            sizes[sizes.index(max(sizes))] -= 1
    blocks: list[list[int]] = []
    nxt = n - sum(sizes)
    for s in sizes:
        blocks.append(list(range(nxt, nxt + s)))
        nxt += s
    transient = list(range(n - sum(sizes)))
    rows: list[list[dict[int, Fraction]]] = []
    for _ in letters:
        table: list[dict[int, Fraction]] = []
        for i in range(n):
            block = next((b for b in blocks if i in b), None)
            if block is not None:
                k = rng.choice((2, 3))
                dests = [rng.choice(block) for _ in range(k)]
            else:
                # linger in the transient part, leak into two blocks
                dests = [rng.choice(transient)] + [rng.choice(b) for b in rng.sample(blocks, 2)]
            table.append(_weighted_row(rng, dests))
        rows.append(table)
    kind = rng.choice(("parity", "parity", "buchi", "cobuchi", "reach", "safety"))
    text = automaton_text(states, letters, rows, rng.choice(transient), _acceptance(rng, states, kind))
    prefix = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 4)))
    period = tuple(rng.choice(letters) for _ in range(rng.choice((1, 2, 3, 4))))
    return [
        Query(qid0, "lasso_prob", text, (prefix, period)),
        Query(qid0 + 1, "jets", text, (prefix, period)),
    ]


_GENERATORS = {
    "simple-omega": _simple_omega,
    "structsimple-gate": _structsimple_gate,
    "sharp-reach": _sharp_reach,
    "lasso-exact": _lasso_exact,
}


def pool(workload: str) -> list[Query]:
    """The workload's full query pool; qid is the position in the list."""
    rng = random.Random(POOL_SEEDS[workload])
    gen = _GENERATORS[workload]
    out: list[Query] = []
    for _ in range(POOL_AUTOMATA[workload]):
        out.extend(gen(rng, len(out)))
    return out


def relabel(text: str, rng: random.Random) -> str:
    """The same automaton with its states declared in a random order.

    Declaration order fixes the bit of each state in every support mask
    inside the library, and with it every search order; no outcome class
    depends on it.
    """
    head, rest = text.split("\n", 1)
    states = head.split()[1:]
    rng.shuffle(states)
    return "states: " + " ".join(states) + "\n" + rest


def draw(workload: str, seed: int) -> tuple[list[Query], dict[str, str]]:
    """A run's inputs: the whole pool in seeded order, and for each pool
    automaton a seeded relabelled copy, keyed by the pool text."""
    queries = pool(workload)
    rng = random.Random(f"{workload}/{seed}")
    rng.shuffle(queries)
    texts: dict[str, str] = {}
    for q in queries:
        if q.text not in texts:
            texts[q.text] = relabel(q.text, rng)
    return queries, texts

"""Independent reference implementations used to cross-check the library.

Everything here recomputes answers from first principles on the raw matrix
data: positivity relations, transitive closures, explicit path or rank
enumeration, and a literal layered-graph search for #-reachability.  None of
it calls the algorithmic modules under test; only plain Automaton/DFA field
access is allowed.  Clarity over speed throughout, sizes are tiny.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from qpa.core import Automaton
from qpa.formats import DFA

INF = 10**9


def all_words(n_letters: int, lo: int, hi: int):
    """All words as index tuples, lengths lo..hi, shortlex order."""
    for length in range(lo, hi + 1):
        yield from itertools.product(range(n_letters), repeat=length)


def obits(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def oletter_rows(a: Automaton) -> list[tuple[int, ...]]:
    """Positive-transition rows per letter, straight from the matrices."""
    out = []
    for mat in a.matrices:
        rows = []
        for row in mat:
            m = 0
            for j, p in enumerate(row):
                if p > 0:
                    m |= 1 << j
            rows.append(m)
        out.append(tuple(rows))
    return out


def oimage(rows, mask: int) -> int:
    out = 0
    for i in obits(mask):
        out |= rows[i]
    return out


def ocompose_rows(x, y) -> tuple[int, ...]:
    return tuple(oimage(y, row) for row in x)


def ochecked_profile(rel, word) -> bool:
    """Whether the profile scans check a profile: its word is one letter, or
    its relation is idempotent."""
    return len(word) == 1 or ocompose_rows(rel, rel) == tuple(rel)


def oword_rows(a: Automaton, word) -> tuple[int, ...]:
    rows = tuple(1 << i for i in range(len(a.states)))
    letters = oletter_rows(a)
    for k in word:
        rows = ocompose_rows(rows, letters[k])
    return rows


def osupport(a: Automaton, mask: int, word) -> int:
    letters = oletter_rows(a)
    for k in word:
        mask = oimage(letters[k], mask)
    return mask


def oclosure(rows, n: int) -> tuple[int, ...]:
    """Reflexive-transitive closure by repeated squaring."""
    cur = tuple(rows[i] | (1 << i) for i in range(n))
    while True:
        nxt = tuple(oimage(cur, row) for row in cur)
        if nxt == cur:
            return cur
        cur = nxt


def obottom_sccs(rows, n: int, nodes: int) -> list[int]:
    """Bottom SCC masks of the digraph restricted to the given node set."""
    restricted = tuple((rows[i] & nodes) if nodes >> i & 1 else 0 for i in range(n))
    fwd = oclosure(restricted, n)
    out = []
    for i in obits(nodes):
        scc = 0
        for j in obits(fwd[i] & nodes):
            if fwd[j] >> i & 1:
                scc |= 1 << j
        if fwd[i] & nodes == scc and scc & -scc == 1 << i:
            out.append(scc)
    return out


def osharp(a: Automaton, mask: int, word) -> int | None:
    """mask . word^# by definition; None when mask is not word-stable."""
    if osupport(a, mask, word) != mask:
        return None
    rows = oword_rows(a, word)
    out = 0
    for scc in obottom_sccs(rows, len(a.states), mask):
        out |= scc
    return out


def omatmul(x, y):
    n = len(x)
    return [
        [sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def oword_matrix(a: Automaton, word):
    n = len(a.states)
    out = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for k in word:
        out = omatmul(out, a.matrices[k])
    return out


def osolve_linear(A, B):
    """Solve A X = B by textbook Gauss-Jordan elimination over Fractions."""
    n = len(A)
    aug = [[Fraction(v) for v in A[i]] + [Fraction(v) for v in B[i]] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [vr - f * vc for vr, vc in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def opath_profile(a: Automaton, prios, word) -> dict[tuple[int, int], int]:
    """Profile of a word by literal enumeration of all positive state paths."""
    n = len(a.states)
    best: dict[tuple[int, int], int] = {}
    for path in itertools.product(range(n), repeat=len(word) + 1):
        ok = all(
            a.matrices[k][path[t]][path[t + 1]] > 0 for t, k in enumerate(word)
        )
        if not ok:
            continue
        key = (path[0], path[-1])
        val = min(prios[q] for q in path)
        if val < best.get(key, INF):
            best[key] = val
    return best


def ochain_recurrent(a: Automaton, mask: int, word) -> bool:
    """No prefix split (S_i, word[i+1..j]) may be stable with a strictly
    smaller recurrent part."""
    word = tuple(word)
    supports = [mask]
    for k in word:
        supports.append(osupport(a, supports[-1], (k,)))
    for i in range(len(word)):
        for j in range(i + 1, len(word) + 1):
            u = word[i:j]
            s = supports[i]
            if osupport(a, s, u) == s:
                rec = osharp(a, s, u)
                if rec is not None and rec != s:
                    return False
    return True


# -- layered graphs, borders, and the #-reachability family ----------------


def olayers(a: Automaton, org: frozenset[int], word) -> tuple[frozenset, ...]:
    letters = oletter_rows(a)
    layers = []
    cur = set(org)
    for k in word:
        layer = frozenset(
            (i, j) for i in cur for j in obits(letters[k][i])
        )
        layers.append(layer)
        cur = {j for _, j in layer}
    return tuple(layers)


def oboundaries(org: frozenset[int], layers) -> list[frozenset[int]]:
    bs = [frozenset(org)]
    for layer in layers:
        bs.append(frozenset(j for _, j in layer))
    return bs


def oborders(org, layers) -> list[tuple[int, int]]:
    bs = oboundaries(org, layers)
    n = len(layers)
    return [
        (n1, n2)
        for n1 in range(1, n)
        for n2 in range(n1 + 1, n + 1)
        if bs[n2] <= bs[n1]
    ]


def oapply_border(org, layers, border):
    """Rewire layer n1 through the recurrent part of the segment n1+1..n2,
    then drop downstream edges whose sources died."""
    n1, n2 = border
    bs = oboundaries(org, layers)
    seg_nodes = bs[n1]
    comp = {i: {i} for i in seg_nodes}
    for layer in layers[n1:n2]:
        comp = {
            i: {j for x in comp[i] for (xx, j) in layer if xx == x}
            for i in seg_nodes
        }
    reach = {i: {i} for i in seg_nodes}
    changed = True
    while changed:
        changed = False
        for i in seg_nodes:
            ext = set().union(*(comp[x] for x in reach[i])) | reach[i]
            if ext != reach[i]:
                reach[i] = ext
                changed = True
    # states whose SCC is terminal in the comp digraph
    rec_states = set()
    for i in seg_nodes:
        scc = {j for j in reach[i] if i in reach[j]}
        if reach[i] == scc:
            rec_states |= scc
    new_layers = list(layers)
    new_layers[n1 - 1] = frozenset(
        (x, z)
        for (x, y) in layers[n1 - 1]
        for z in reach[y] & rec_states
    )
    cur = {j for _, j in new_layers[n1 - 1]}
    for idx in range(n1, len(layers)):
        new_layers[idx] = frozenset((i, j) for (i, j) in layers[idx] if i in cur)
        cur = {j for _, j in new_layers[idx]}
    return tuple(new_layers)


def osharp_dests(a: Automaton, org: frozenset[int], word) -> set[frozenset[int]]:
    """All sets D with org ->(#-word) D: destinations of every graph
    reachable by applying valid borders in any order."""
    start = olayers(a, org, word)
    seen = {start}
    stack = [start]
    dests = set()
    while stack:
        layers = stack.pop()
        dests.add(frozenset(j for _, j in layers[-1]))
        for b in oborders(org, layers):
            nxt = oapply_border(org, layers, b)
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return dests


def ostructurally_simple(a: Automaton, max_len: int = 6) -> bool:
    """Minimal-support characterization, by word enumeration up to max_len.

    C is minimal when no #-word destination from C is a proper subset of C.
    The automaton fails exactly when some minimal C plainly reaches (subset
    construction) a support A that #-returns to C while the plain image of
    the returning word differs from C.
    """
    n = len(a.states)
    n_letters = len(a.alphabet)
    letters = oletter_rows(a)
    subsets = list(range(1, 1 << n))
    shrinkable: set[int] = set()
    returners: dict[int, set[int]] = {c: set() for c in subsets}
    for c in subsets:
        cset = frozenset(obits(c))
        for word in all_words(n_letters, 1, max_len):
            plain = osupport(a, c, word)
            for dset in osharp_dests(a, cset, word):
                d = sum(1 << i for i in dset)
                if d & c == d and d != c:
                    shrinkable.add(c)
                if plain != d:
                    returners[d].add(c)
    for c in subsets:
        if c in shrinkable:
            continue
        seen = {c}
        stack = [c]
        while stack:
            s = stack.pop()
            for k in range(n_letters):
                t = oimage(letters[k], s)
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        if seen & returners[c]:
            return False
    return True


def ohierarchical(a: Automaton) -> bool:
    """Rank-function existence by enumeration.

    Raw enumeration over all functions Q -> {0..n-1} when n <= 5.  Beyond
    that, ranks are enumerated per SCC of the positive-transition graph:
    any valid rank is constant on cycles, and compressing its values onto
    {0..#SCC-1} preserves both defining conditions.
    """
    n = len(a.states)
    letters = oletter_rows(a)
    post = [
        [letters[k][i] for k in range(len(a.alphabet))] for i in range(n)
    ]

    def valid(rk):
        for i in range(n):
            for k in range(len(a.alphabet)):
                same = 0
                for j in obits(post[i][k]):
                    if rk[j] < rk[i]:
                        return False
                    if rk[j] == rk[i]:
                        same += 1
                if same > 1:
                    return False
        return True

    if n <= 5:
        return any(valid(rk) for rk in itertools.product(range(n), repeat=n))
    rows = []
    for i in range(n):
        m = 0
        for k in range(len(a.alphabet)):
            m |= letters[k][i]
        rows.append(m)
    fwd = oclosure(tuple(rows), n)
    sccs: list[int] = []
    assigned = 0
    for i in range(n):
        if assigned >> i & 1:
            continue
        scc = 0
        for j in obits(fwd[i]):
            if fwd[j] >> i & 1:
                scc |= 1 << j
        sccs.append(scc)
        assigned |= scc
    comp_of = {}
    for ci, scc in enumerate(sccs):
        for i in obits(scc):
            comp_of[i] = ci
    for assign in itertools.product(range(len(sccs)), repeat=len(sccs)):
        rk = [assign[comp_of[i]] for i in range(n)]
        if valid(rk):
            return True
    return False


# -- lasso words: qualitative verdicts from the product chain ----------------


def _min_plus_letter(rows, prios, n):
    return [
        [
            min(prios[i], prios[j]) if rows[i] >> j & 1 else INF
            for j in range(n)
        ]
        for i in range(n)
    ]


def _min_plus_compose(x, y, n):
    out = [[INF] * n for _ in range(n)]
    for i in range(n):
        xi = x[i]
        oi = out[i]
        for k in range(n):
            v = xi[k]
            if v == INF:
                continue
            yk = y[k]
            for j in range(n):
                w = yk[j]
                if w != INF:
                    m = v if v < w else w
                    if m < oi[j]:
                        oi[j] = m
    return out


class LassoOracle:
    """Qualitative (P = 1, P > 0) verdicts for lasso words on one automaton.

    Verdicts come from bottom SCC analysis of the chain induced by the
    period on supports reached after the prefix; safety additionally tracks
    whether every stepwise support stays inside F.
    """

    def __init__(self, a: Automaton):
        if a.acceptance is None:
            raise ValueError("acceptance required")
        self.a = a
        self.n = n = len(a.states)
        self.kind = a.acceptance.kind
        self.letters = oletter_rows(a)
        fmask = 0
        for i, q in enumerate(a.states):
            if q in a.acceptance.states:
                fmask |= 1 << i
        self.fmask = fmask
        if self.kind == "reach":
            self.rows = tuple(
                tuple(
                    (1 << i) if fmask >> i & 1 else rows[i] for i in range(n)
                )
                for rows in self.letters
            )
            self.prios = [0 if fmask >> i & 1 else 1 for i in range(n)]
        elif self.kind == "buchi":
            self.rows = self.letters
            self.prios = [0 if fmask >> i & 1 else 1 for i in range(n)]
        elif self.kind == "cobuchi":
            self.rows = self.letters
            self.prios = [2 if fmask >> i & 1 else 1 for i in range(n)]
        elif self.kind == "parity":
            self.rows = self.letters
            pm = a.acceptance.priority_map
            self.prios = [pm[q] for q in a.states]
        else:
            self.rows = self.letters
            self.prios = [1 if fmask >> i & 1 else 0 for i in range(n)]
            self.safe_letters = tuple(
                tuple(
                    (rows[i] & fmask) if fmask >> i & 1 else 0 for i in range(n)
                )
                for rows in self.letters
            )
        self._period_cache: dict[tuple, tuple] = {}
        self._verdict_cache: dict[tuple, tuple[bool, bool]] = {}
        init = 0
        for i, p in enumerate(a.initial):
            if p > 0:
                init |= 1 << i
        self.init_mask = init

    def _period_data(self, period: tuple[int, ...]):
        data = self._period_cache.get(period)
        if data is not None:
            return data
        n = self.n
        rel = tuple(1 << i for i in range(n))
        prof = [[self.prios[i] if i == j else INF for j in range(n)] for i in range(n)]
        first = True
        for k in period:
            rel = ocompose_rows(rel, self.rows[k])
            step = _min_plus_letter(self.rows[k], self.prios, n)
            prof = step if first else _min_plus_compose(prof, step, n)
            first = False
        closure = oclosure(rel, n)
        bottoms = obottom_sccs(rel, n, (1 << n) - 1)
        accept = []
        for b in bottoms:
            m = min(prof[i][j] for i in obits(b) for j in obits(b) if prof[i][j] != INF)
            if self.kind == "safety":
                accept.append(m == 1)
            else:
                accept.append(m % 2 == 0)
        if self.kind == "safety":
            srel = tuple(1 << i if self.fmask >> i & 1 else 0 for i in range(n))
            for k in period:
                srel = ocompose_rows(srel, self.safe_letters[k])
            sclosure = oclosure(
                tuple(srel[i] if self.fmask >> i & 1 else 0 for i in range(n)), n
            )
            data = (rel, closure, tuple(bottoms), tuple(accept), sclosure)
        else:
            data = (rel, closure, tuple(bottoms), tuple(accept), None)
        self._period_cache[period] = data
        return data

    def _verdict_general(self, tmask: int, period) -> tuple[bool, bool]:
        key = (tmask, period)
        got = self._verdict_cache.get(key)
        if got is not None:
            return got
        _, closure, bottoms, accept, _ = self._period_data(period)
        reach = 0
        for i in obits(tmask):
            reach |= closure[i]
        pos = neg = False
        for b, ok in zip(bottoms, accept):
            if b & reach:
                if ok:
                    pos = True
                else:
                    neg = True
        out = (pos and not neg, pos)
        self._verdict_cache[key] = out
        return out

    def _verdict_safety(self, ok: bool, sup: int, safe_sup: int, period) -> tuple[bool, bool]:
        key = (ok, sup, safe_sup, period)
        got = self._verdict_cache.get(key)
        if got is not None:
            return got
        _, _, bottoms, accept, sclosure = self._period_data(period)
        reach = 0
        for i in obits(safe_sup):
            reach |= sclosure[i]
        positive = any(b & reach for b, okb in zip(bottoms, accept) if okb)
        almost = False
        if ok:
            almost = True
            seen = set()
            s = sup
            while s not in seen:
                seen.add(s)
                for k in period:
                    s = oimage(self.letters[k], s)
                    if s & ~self.fmask:
                        almost = False
                        break
                if not almost:
                    break
        out = (almost, positive)
        self._verdict_cache[key] = out
        return out

    def verdict(self, prefix, period) -> tuple[bool, bool]:
        """(P = 1, P > 0) for the lasso word prefix . period^omega."""
        period = tuple(period)
        if self.kind == "safety":
            sup = self.init_mask
            safe = sup & self.fmask
            ok = not (sup & ~self.fmask)
            for k in prefix:
                sup = oimage(self.letters[k], sup)
                safe = oimage(self.safe_letters[k], safe) & self.fmask
                ok = ok and not (sup & ~self.fmask)
            return self._verdict_safety(ok, sup, safe, period)
        sup = self.init_mask
        for k in prefix:
            sup = oimage(self.rows[k], sup)
        return self._verdict_general(sup, period)

    def sweep(self, max_prefix: int, max_period: int):
        """Search all lassos within the bounds; returns witness lassos
        {"almost": (prefix, period) or None, "positive": ...}."""
        n_letters = len(self.a.alphabet)
        periods = list(all_words(n_letters, 1, max_period))
        found: dict[str, tuple | None] = {"almost": None, "positive": None}

        def visit(prefix, state):
            for period in periods:
                if self.kind == "safety":
                    alm, pos = self._verdict_safety(state[2], state[0], state[1], period)
                else:
                    alm, pos = self._verdict_general(state[0], period)
                if alm and found["almost"] is None:
                    found["almost"] = (prefix, period)
                if pos and found["positive"] is None:
                    found["positive"] = (prefix, period)
                if found["almost"] is not None and found["positive"] is not None:
                    return True
            if len(prefix) == max_prefix:
                return False
            for k in range(n_letters):
                if self.kind == "safety":
                    sup = oimage(self.letters[k], state[0])
                    safe = oimage(self.safe_letters[k], state[1]) & self.fmask
                    nxt = (sup, safe, state[2] and not (sup & ~self.fmask))
                else:
                    nxt = (oimage(self.rows[k], state[0]),)
                if visit(prefix + (k,), nxt):
                    return True
            return False

        if self.kind == "safety":
            sup = self.init_mask
            start = (sup, sup & self.fmask, not (sup & ~self.fmask))
        else:
            start = (self.init_mask,)
        visit((), start)
        return found


def olasso_verdict(a: Automaton, prefix, period) -> tuple[bool, bool]:
    return LassoOracle(a).verdict(tuple(prefix), tuple(period))


# -- DFA intersection -------------------------------------------------------


def odfa_intersection_nonempty(dfas: list[DFA]) -> bool:
    """Product construction emptiness; the empty word counts when every
    initial state accepts."""
    letters = dfas[0].alphabet
    idx = [
        {letter: d.alphabet.index(letter) for letter in letters} for d in dfas
    ]
    start = tuple(d.states.index(d.init) for d in dfas)
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        if all(d.states[i] in d.accepting for d, i in zip(dfas, cur)):
            return True
        for letter in letters:
            nxt = tuple(
                d.delta[idx[t][letter]][i] for t, (d, i) in enumerate(zip(dfas, cur))
            )
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


# -- plain support graph ----------------------------------------------------


def osupport_graph(a: Automaton, seed: int):
    """Nodes and labeled edges reachable from the seed support: letter steps
    plus single-letter # steps on stable supports."""
    letters = oletter_rows(a)
    n = len(a.states)
    nodes = {seed}
    stack = [seed]
    edges = set()
    while stack:
        s = stack.pop()
        for k in range(len(a.alphabet)):
            t = oimage(letters[k], s)
            edges.add((s, k, False, t))
            if t not in nodes:
                nodes.add(t)
                stack.append(t)
            if t == s:
                rec = 0
                for scc in obottom_sccs(letters[k], n, s):
                    rec |= scc
                edges.add((s, k, True, rec))
                if rec not in nodes:
                    nodes.add(rec)
                    stack.append(rec)
    return nodes, edges

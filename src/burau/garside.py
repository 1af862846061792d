"""Dual Garside structure for finite simply-laced Coxeter graphs.

Nothing here enumerates the Coxeter group.  Group elements are exact integer
matrices at q = -1 (the geometric representation, which is faithful), and
reflection length is rank(w - 1) (Carter's lemma).  The reflections are the
conjugates of the simple reflections; the interval [1, gamma] is found by a
breadth-first search over right multiplication by reflections, keeping u = w t
exactly when l(u) + l(u^-1 gamma) = n (Bessis, "The dual braid monoid").
Every element the library holds is an interval element, interned by its
matrix.  On top of that live dual braid lifts constructed by Hurwitz moves
from the defining factorization gamma = s_1 ... s_n, and the right-greedy
normal form that solves the braid word problem.

Normal forms are maintained incrementally: positive letters append an atom,
negative letters borrow gamma^{-1} and append the complementary simple, and a
local rebalancing pass restores greediness.  Products of simples are only
ever taken when reflection lengths add, which is exactly when the interval
monoid relation [x][y] = [xy] holds, so the computed form is independent of
how the input word was spelled.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .graphs import INF, CoxeterGraph, inverse_word, validate_word
from .laurent import ZZ
from .matrices import STANDARD, generator_matrix

class NotFiniteType(ValueError):
    """Raised when a graph is not of finite Coxeter type."""


def _finite_simply_laced(g: CoxeterGraph) -> bool:
    """Classification check: every connected component must be a path (type A)
    or a tree with a single degree-3 vertex whose branch lengths are
    (1, 1, k), (1, 2, 2), (1, 2, 3) or (1, 2, 4) (types D and E)."""
    if any(m == INF for _, m in g.edge_labels):
        return False
    adj = {v: set() for v in g.vertices()}
    for i, j in g.edges():
        adj[i].add(j)
        adj[j].add(i)
    seen: set[int] = set()
    for start in g.vertices():
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        for v in comp:
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
        edge_count = sum(len(adj[v]) for v in comp) // 2
        if edge_count != len(comp) - 1:
            return False  # a cycle: affine or worse
        degrees = sorted(len(adj[v]) for v in comp)
        if degrees and degrees[-1] > 3:
            return False
        branch_vertices = [v for v in comp if len(adj[v]) == 3]
        if len(branch_vertices) > 1:
            return False
        if branch_vertices:
            b = branch_vertices[0]
            lengths = []
            for first in adj[b]:
                ln, prev, cur = 1, b, first
                while True:
                    nxt = [w for w in adj[cur] if w != prev]
                    if not nxt:
                        break
                    prev, cur = cur, nxt[0]
                    ln += 1
                lengths.append(ln)
            lengths.sort()
            if lengths[0] != 1:
                return False
            if lengths[1] >= 2 and (lengths[1], lengths[2]) not in (
                (2, 2),
                (2, 3),
                (2, 4),
            ):
                return False
    return True


@dataclass(frozen=True)
class DualSimple:
    """An element of the interval [1, gamma]: its matrix, reflection length,
    the indices (1-based into the reflection list) of its reflection
    divisors, and a fixed braid-word lift."""

    matrix: tuple
    length: int
    divisor_reflections: tuple
    lift: tuple

    def __str__(self) -> str:
        body = ",".join(str(r) for r in self.divisor_reflections)
        return f"R{{{body}}}"


@dataclass(frozen=True)
class GarsideNF:
    """gamma^k times a right-greedy list of simples (leftmost first)."""

    k: int
    simples: tuple
    gamma_word: tuple

    def is_trivial(self) -> bool:
        return self.k == 0 and not self.simples

    def canonical_length(self) -> int:
        return len(self.simples)

    def braid_word(self) -> tuple:
        if self.k >= 0:
            word = self.gamma_word * self.k
        else:
            word = inverse_word(self.gamma_word) * (-self.k)
        for s in self.simples:
            word = word + s.lift
        return word

    def __str__(self) -> str:
        inner = " | ".join(str(s) for s in self.simples) or "-"
        return f"gamma^{self.k} . [{inner}]"


def _reflections(atoms: list) -> list:
    """The closure of the simple reflections under conjugation by the
    generators: the atoms in vertex order, then the rest sorted by matrix."""
    found = set(atoms)
    frontier = list(atoms)
    while frontier:
        new = []
        for t in frontier:
            for s in atoms:
                u = _mat_mul(_mat_mul(s, t), s)
                if u not in found:
                    found.add(u)
                    new.append(u)
        frontier = new
    return atoms + sorted(found.difference(atoms))


def _mat_mul(a: tuple, b: tuple) -> tuple:
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum(map(mul, row, col)) for col in cols) for row in a
    )


def _moved_rank(m: tuple) -> int:
    """rank(m - 1) by fraction-free (Bareiss) integer elimination.  For a
    group element this is its reflection length (Carter's lemma)."""
    n = len(m)
    rows = [[m[i][j] - (i == j) for j in range(n)] for i in range(n)]
    rank, prev = 0, 1
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        pv = top[col]
        for r in range(rank + 1, n):
            f = rows[r][col]
            rows[r] = [(pv * x - f * y) // prev for x, y in zip(rows[r], top)]
        prev = pv
        rank += 1
    return rank


class DualGarside:
    """The interval [1, gamma] of one graph, for gamma = s_1 ... s_n, with
    the tables the normal form needs.  Element ids index `matrices`; id 0 is
    the identity and ids 1..N are the reflections, so id i <= n is the atom
    s_i."""

    def __init__(self, graph: CoxeterGraph):
        if not _finite_simply_laced(graph):
            raise NotFiniteType(
                "the dual Garside structure needs a finite simply-laced graph "
                "(components of type A, D or E)"
            )
        self.graph = graph
        self.n = graph.n
        self.gamma_word = tuple(graph.vertices())

        atoms = []
        for i in graph.vertices():
            m = generator_matrix(graph, i, 1, STANDARD, ZZ)
            atoms.append(tuple(tuple(e.evaluate(-1) for e in row) for row in m.rows))
        gamma = gamma_inv = atoms[0]
        for a in atoms[1:]:
            gamma = _mat_mul(gamma, a)
            gamma_inv = _mat_mul(a, gamma_inv)
        refls = _reflections(atoms)
        self._build_interval(refls, gamma)
        self.identity = 0
        self.gamma = self.index.get(gamma)
        if self.gamma is None or self.ell[self.gamma] != self.n:
            raise AssertionError("gamma should have reflection length n")
        self._gamma_inv = gamma_inv
        self.refl_ids = list(range(1, len(refls) + 1))
        self.gamma_atom_ids = {
            i: self.product(self.gamma, i) for i in graph.vertices()
        }
        self.phi = [
            self.index[_mat_mul(_mat_mul(gamma, m), gamma_inv)] for m in self.matrices
        ]
        self.phi_inv = [0] * len(self.phi)
        for w, img in enumerate(self.phi):
            self.phi_inv[img] = w
        self._lifts: dict[int, tuple] | None = None
        self._simple_lift_cache: dict[int, tuple] = {}
        self._simple_cache: dict[int, DualSimple] = {}

    # ---- the interval ------------------------------------------------------

    def _build_interval(self, refls: list, gamma: tuple) -> None:
        """Breadth-first search from the identity by right multiplication with
        reflections.  Each element w keeps its complement w^-1 gamma, and
        u = w t joins the interval iff l(t w^-1 gamma) = n - l(w) - 1.  Every
        reflection lies below gamma, so the reflections take ids 1..N in the
        given order."""
        n = self.n
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        self.matrices = [ident]
        self.index = {ident: 0}
        self.ell = [0]
        self._complement = [gamma]
        rdiv: list[list[int]] = [[]]
        # the products the normal form takes all have a reflection on one
        # side: right[w][k - 1] is the id of w t_k, or -1 outside the
        # interval; levels list ids in increasing order, so row w is appended
        # w-th
        right: list[list[int]] = []
        level = [0]
        while level:
            nxt = []
            for w in level:
                target = n - self.ell[w] - 1
                row = []
                for k, t in enumerate(refls, start=1):
                    u = _mat_mul(self.matrices[w], t)
                    uid = self.index.get(u)
                    if uid is None:
                        comp = _mat_mul(t, self._complement[w])
                        if _moved_rank(comp) != target:
                            row.append(-1)
                            continue
                        uid = len(self.matrices)
                        self.index[u] = uid
                        self.matrices.append(u)
                        self.ell.append(self.ell[w] + 1)
                        self._complement.append(comp)
                        rdiv.append([])
                        nxt.append(uid)
                    row.append(uid)
                    if self.ell[uid] == self.ell[w] + 1:
                        rdiv[uid].append(k)
                right.append(row)
            level = nxt
        self._right = right
        # left[k - 1][w] is the id of t_k w, filled in on first use (-2 before)
        self._left = [[-2] * len(self.matrices) for _ in refls]
        if any(self.index.get(t) != k for k, t in enumerate(refls, start=1)):
            raise AssertionError("every reflection should lie below gamma")
        # reflections that strip one unit of length from the right; they are
        # also the left divisors, since l(w t) = l(t (w t) t) = l(t w)
        self.rdiv = [tuple(sorted(r)) for r in rdiv]

    def product(self, a: int, b: int) -> int | None:
        """The id of a.b, or None when the product leaves the interval.  One
        of a and b must be a reflection (ids 1 .. number of reflections)."""
        refls = len(self._left)
        if 0 < b <= refls:
            got = self._right[a][b - 1]
        elif 0 < a <= refls:
            row = self._left[a - 1]
            got = row[b]
            if got == -2:
                got = row[b] = self.index.get(
                    _mat_mul(self.matrices[a], self.matrices[b]), -1
                )
        else:
            raise ValueError("product needs a reflection on one side")
        return got if got >= 0 else None

    # ---- braid lifts -------------------------------------------------------

    def _hurwitz_lifts(self) -> dict[int, tuple]:
        """One fixed braid word per reflection, read off the Hurwitz orbit of
        the defining factorization gamma = s_1 ... s_n.  Hurwitz moves
        are braid-level identities, so which orbit path finds a reflection
        first does not affect the braid it lifts to.  The search stops once
        every reflection has its first lift."""
        conjugates: dict[tuple, int] = {}

        def conjugate(a: int, b: int) -> int:
            got = conjugates.get((a, b))
            if got is None:
                ma = self.matrices[a]
                got = self.index[_mat_mul(_mat_mul(ma, self.matrices[b]), ma)]
                conjugates[(a, b)] = got
            return got

        start_fact = self.gamma_word
        start_lift = tuple((i,) for i in self.gamma_word)
        lifts: dict[int, tuple] = {}
        seen = {start_fact}
        queue = deque([(start_fact, start_lift)])
        while queue:
            fact, lift = queue.popleft()
            for t, lw in zip(fact, lift):
                if t not in lifts:
                    lifts[t] = lw
            if len(lifts) == len(self.refl_ids):
                return lifts
            for pos in range(self.n - 1):
                a, b = fact[pos], fact[pos + 1]
                la, lb = lift[pos], lift[pos + 1]
                left = fact[:pos] + (conjugate(a, b), a) + fact[pos + 2 :]
                if left not in seen:
                    seen.add(left)
                    queue.append(
                        (left, lift[:pos] + (la + lb + inverse_word(la), la) + lift[pos + 2 :])
                    )
                right = fact[:pos] + (b, conjugate(b, a)) + fact[pos + 2 :]
                if right not in seen:
                    seen.add(right)
                    queue.append(
                        (right, lift[:pos] + (lb, inverse_word(lb) + la + lb) + lift[pos + 2 :])
                    )
        raise AssertionError("Hurwitz orbit missed some reflections")

    @property
    def reflection_lifts(self) -> dict[int, tuple]:
        if self._lifts is None:
            self._lifts = self._hurwitz_lifts()
        return self._lifts

    def simple_lift(self, w: int) -> tuple:
        """A braid word lifting the interval element w, by greedily peeling
        reflections off the right."""
        if w == self.identity:
            return ()
        cached = self._simple_lift_cache.get(w)
        if cached is None:
            t = self.rdiv[w][0]
            cached = self.simple_lift(self.product(w, t)) + self.reflection_lifts[t]
            self._simple_lift_cache[w] = cached
        return cached

    def simple(self, w: int) -> DualSimple:
        got = self._simple_cache.get(w)
        if got is None:
            got = DualSimple(
                matrix=self.matrices[w],
                length=self.ell[w],
                divisor_reflections=self.rdiv[w],  # a reflection's id is its position
                lift=self.simple_lift(w),
            )
            self._simple_cache[w] = got
        return got

    # ---- divisibility ------------------------------------------------------

    def _inverse(self, a: int) -> tuple:
        return _mat_mul(self._complement[a], self._gamma_inv)

    def left_divides(self, a: int, b: int) -> bool:
        rest = _mat_mul(self._inverse(a), self.matrices[b])
        return self.ell[a] + _moved_rank(rest) == self.ell[b]

    def right_divides(self, a: int, b: int) -> bool:
        rest = _mat_mul(self.matrices[b], self._inverse(a))
        return _moved_rank(rest) + self.ell[a] == self.ell[b]

    # ---- normal form -------------------------------------------------------

    def normal_form(self, word) -> GarsideNF:
        return self.new_nf_state(word).result()

    def new_nf_state(self, word) -> "_NFState":
        """A normal-form accumulator holding the given braid word."""
        validate_word(self.graph, word)
        state = _NFState(self)
        for letter in word:
            state.push_letter(letter)
        return state

    def restore_nf_state(self, k: int, factors) -> "_NFState":
        """The accumulator holding gamma^k times `factors`, which must be a
        normal form as `_NFState.factors` lists it; nothing is re-normalised,
        so restoring a saved state costs one link per factor."""
        state = _NFState(self)
        state.k = k
        for w in factors:
            state._append(w)
        state.stack.clear()  # adjacent normal-form factors are already greedy
        return state


class _NFState:
    """Mutable normal-form accumulator: gamma power + doubly linked list of
    simple factors with stable node handles, so rebalancing can delete and
    rewrite locally without index shuffling."""

    def __init__(self, ctx: DualGarside):
        self.ctx = ctx
        self.k = 0
        self.value: dict[int, int] = {}
        self.nxt: dict[int, int | None] = {}
        self.prv: dict[int, int | None] = {}
        self.head: int | None = None
        self.tail: int | None = None
        self.counter = 0
        self.stack: list[int] = []

    def _append(self, w: int) -> None:
        nid = self.counter
        self.counter += 1
        self.value[nid] = w
        self.prv[nid] = self.tail
        self.nxt[nid] = None
        if self.tail is not None:
            self.nxt[self.tail] = nid
        else:
            self.head = nid
        self.tail = nid
        if self.prv[nid] is not None:
            self.stack.append(self.prv[nid])
        self._maybe_extract_gamma(nid)

    def _delete(self, nid: int) -> None:
        p, n = self.prv[nid], self.nxt[nid]
        if p is not None:
            self.nxt[p] = n
        else:
            self.head = n
        if n is not None:
            self.prv[n] = p
        else:
            self.tail = p
        del self.value[nid], self.prv[nid], self.nxt[nid]

    def _maybe_extract_gamma(self, nid: int) -> None:
        ctx = self.ctx
        if self.value.get(nid) != ctx.gamma:
            return
        self.k += 1
        cur = self.prv[nid]
        while cur is not None:
            self.value[cur] = ctx.phi_inv[self.value[cur]]
            cur = self.prv[cur]
        before = self.prv[nid]
        self._delete(nid)
        if before is not None:
            self.stack.append(before)

    def push_letter(self, letter: int) -> None:
        ctx = self.ctx
        if letter > 0:
            self._append(letter)  # the atom s_i has id i
        else:
            self.k -= 1
            for nid in self.value:
                self.value[nid] = ctx.phi[self.value[nid]]
            # gamma s_i has length n - 1, so it is the identity only on one vertex
            if ctx.gamma_atom_ids[-letter] != ctx.identity:
                self._append(ctx.gamma_atom_ids[-letter])
        self._drain()

    def push_simple(self, w: int) -> None:
        """Right-multiply by an interval element directly."""
        if w != self.ctx.identity:
            self._append(w)
            self._drain()

    def canonical_length(self) -> int:
        return len(self.value)

    def _drain(self) -> None:
        ctx = self.ctx
        while self.stack:
            nid = self.stack.pop()
            if nid not in self.value:
                continue
            mid = self.nxt[nid]
            if mid is None:
                continue
            left, right = self.value[nid], self.value[mid]
            slid = None
            for mu in ctx.rdiv[left]:
                cand = ctx.product(mu, right)
                if cand is not None and ctx.ell[cand] == ctx.ell[right] + 1:
                    slid = (mu, cand)
                    break
            if slid is None:
                continue
            mu, cand = slid
            new_left = ctx.product(left, mu)
            self.value[mid] = cand
            if new_left == ctx.identity:
                before = self.prv[nid]
                self._delete(nid)
                if before is not None:
                    self.stack.append(before)
            else:
                self.value[nid] = new_left
                if self.prv[nid] is not None:
                    self.stack.append(self.prv[nid])
                self.stack.append(nid)
            self.stack.append(mid)
            self._maybe_extract_gamma(mid)

    def factors(self) -> list[int]:
        out = []
        cur = self.head
        while cur is not None:
            out.append(self.value[cur])
            cur = self.nxt[cur]
        return out

    def result(self) -> GarsideNF:
        self._drain()
        return GarsideNF(
            k=self.k,
            simples=tuple(self.ctx.simple(w) for w in self.factors()),
            gamma_word=self.ctx.gamma_word,
        )

    def samecurve_report(self, i: int) -> "SamecurveReport":
        """Push sigma_i and return `samecurve_check` of the braid held
        before it, so a caller can keep pushing letters afterwards."""
        ctx = self.ctx
        nf = self.result()
        self.push_letter(i)
        appended = self.result()
        cond1 = nf.k == 0
        cond2 = (
            appended.k == nf.k
            and len(appended.simples) == len(nf.simples) + 1
            and appended.simples[: len(nf.simples)] == nf.simples
            and appended.simples[-1].matrix == ctx.matrices[i]
        )
        if nf.simples:
            last = ctx.index[nf.simples[-1].matrix]
            cond3 = not ctx.left_divides(i, last)
        else:
            cond3 = True
        return SamecurveReport(
            zero_gamma_power=cond1,
            append_stays_greedy=cond2,
            atom_free_last_simple=cond3,
            nf=str(nf),
            nf_appended=str(appended),
        )


@lru_cache(maxsize=None)
def garside_context(g: CoxeterGraph) -> DualGarside:
    return DualGarside(g)


def interval(g: CoxeterGraph) -> list[DualSimple]:
    ctx = garside_context(g)
    return [ctx.simple(w) for w in range(len(ctx.matrices))]


def is_trivial_braid(g: CoxeterGraph, word) -> bool:
    return garside_context(g).normal_form(word).is_trivial()


@dataclass(frozen=True)
class SamecurveReport:
    zero_gamma_power: bool
    append_stays_greedy: bool
    atom_free_last_simple: bool
    nf: str
    nf_appended: str


def samecurve_check(g: CoxeterGraph, word, i: int) -> SamecurveReport:
    """The three normal-form conditions under which appending sigma_i keeps a
    braid's rightmost factor clean: no gamma power, appending sigma_i simply
    extends the factor list, and the atom s_i does not divide the last factor.
    Reported separately; nothing is assumed about the input word."""
    if not 1 <= i <= g.n:
        raise ValueError(f"vertex {i} out of range 1..{g.n}")
    return garside_context(g).new_nf_state(word).samecurve_report(i)

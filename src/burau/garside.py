"""Dual Garside structure for finite simply-laced Coxeter graphs.

Everything starts from the Cartan matrix C, the standard Gram matrix at
q = -1: a graph is of finite type iff C is positive definite (Humphreys,
"Reflection Groups and Coxeter Groups", 6.4), and the atoms are the simple
reflections s_i = I - e_i C_i, read from its rows.

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

A normal form is gamma^k times a list of simples, updated one simple at a
time: a positive letter appends its atom, a negative letter borrows gamma^{-1}
and appends the complementary simple, and one right-to-left sweep over
adjacent pairs makes the list right-greedy again (Dehornoy et al.,
"Foundations of Garside Theory").  Products of simples are only
ever taken when reflection lengths add, which is exactly when the interval
monoid relation [x][y] = [xy] holds, so the computed form is independent of
how the input word was spelled.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .graphs import CoxeterGraph, inverse_word, validate_vertex, validate_word
from .matrices import gram_matrix


class NotFiniteType(ValueError):
    """Raised when a graph is not of finite Coxeter type."""


def _finite_type(g: CoxeterGraph) -> bool:
    """Sylvester's criterion on the Cartan matrix C (2 on the diagonal, -1 or
    -2 for an edge labelled 3 or inf), by Bareiss elimination without row
    swaps: the k-th pivot is the k-th leading principal minor, so C is
    positive definite iff every pivot is positive.  The ends of an inf edge
    span the principal minor 2 * 2 - 2 * 2 = 0, so such graphs fail too."""
    rows = [[e.evaluate(-1) for e in row] for row in gram_matrix(g)]
    prev = 1
    for k in range(g.n):
        top = rows[k]
        pv = top[k]
        if pv <= 0:
            return False
        for r in range(k + 1, g.n):
            f = rows[r][k]
            rows[r] = [(pv * x - f * y) // prev for x, y in zip(rows[r], top)]
        prev = pv
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
        if not _finite_type(graph):
            raise NotFiniteType(
                "the dual Garside structure needs a finite simply-laced graph "
                "(components of type A, D or E)"
            )
        self.graph = graph
        self.n = graph.n
        self.gamma_word = tuple(graph.vertices())

        atoms = []  # s_i = I - e_i C_i, with C the Gram matrix at q = -1
        for i, gram_row in enumerate(gram_matrix(graph)):
            rows = [tuple(int(a == b) for b in range(self.n)) for a in range(self.n)]
            rows[i] = tuple(int(i == j) - e.evaluate(-1) for j, e in enumerate(gram_row))
            atoms.append(tuple(rows))
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

    def simple(self, w: int) -> DualSimple:
        """The interval element w.  Its lift peels the least reflection
        divisor t off the right: lift(w) = lift(w t) + lift(t)."""
        got = self._simple_cache.get(w)
        if got is None:
            if w == self.identity:
                lift = ()
            else:
                t = self.rdiv[w][0]
                lift = self.simple(self.product(w, t)).lift + self.reflection_lifts[t]
            got = DualSimple(
                matrix=self.matrices[w],
                length=self.ell[w],
                divisor_reflections=self.rdiv[w],  # a reflection's id is its position
                lift=lift,
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
        state = _NFState(self, 0, ())
        for letter in word:
            state.push_letter(letter)
        return state

    def restore_nf_state(self, k: int, factors) -> "_NFState":
        """The accumulator holding gamma^k times `factors`, which must be a
        normal form as `_NFState.factors` lists it; nothing is re-normalised,
        because adjacent normal-form factors are already greedy."""
        return _NFState(self, k, factors)


class _NFState:
    """Mutable normal-form accumulator: gamma^k times `simples`, a list of
    interval ids in right-greedy order (leftmost first) holding neither the
    identity nor gamma.

    Right-multiplying by a simple appends it and sweeps right to left.  Each
    adjacent pair is made right-greedy by sliding reflections from the left
    factor into the right one; the sweep stops at the first pair no slide
    changes, or at the first left factor that becomes the identity, which is
    deleted.  The pairs left of that point are greedy already (the domino
    rule), and gamma factors can then only form a suffix: each one popped
    moves past the rest as x gamma = gamma phi^-1(x)."""

    __slots__ = ("ctx", "k", "simples")

    def __init__(self, ctx: DualGarside, k: int, simples):
        self.ctx = ctx
        self.k = k
        self.simples = list(simples)

    def push_letter(self, letter: int) -> None:
        if letter > 0:
            self._push(letter)  # the atom s_i has id i
        else:
            ctx = self.ctx
            self.k -= 1
            self.simples = [ctx.phi[w] for w in self.simples]
            self._push(ctx.gamma_atom_ids[-letter])

    def push_simple(self, w: int) -> None:
        """Right-multiply by an interval element directly."""
        self._push(w)

    def _push(self, w: int) -> None:
        """Right-multiply by the interval element w.  Both public pushes call
        this, not each other, so a profiler wrapping them sees each push
        once."""
        ctx = self.ctx
        if w == ctx.identity:
            return
        simples = self.simples
        simples.append(w)
        j = len(simples) - 1
        while j > 0:
            left = simples[j - 1]
            right = start = simples[j]
            while True:
                for mu in ctx.rdiv[left]:
                    cand = ctx.product(mu, right)
                    if cand is not None and ctx.ell[cand] == ctx.ell[right] + 1:
                        left, right = ctx.product(left, mu), cand
                        break
                else:
                    break
            if right == start:
                break
            simples[j] = right
            if left == ctx.identity:
                del simples[j - 1]
                break
            simples[j - 1] = left
            j -= 1
        while simples and simples[-1] == ctx.gamma:
            simples.pop()
            self.k += 1
            simples[:] = [ctx.phi_inv[x] for x in simples]

    def canonical_length(self) -> int:
        return len(self.simples)

    def is_trivial(self) -> bool:
        """True when the braid held is the identity: no gamma power and no
        simples.  Read off the state, so no lift is built."""
        return self.k == 0 and not self.simples

    def factors(self) -> tuple:
        return tuple(self.simples)

    def result(self) -> GarsideNF:
        return GarsideNF(
            k=self.k,
            simples=tuple(self.ctx.simple(w) for w in self.simples),
            gamma_word=self.ctx.gamma_word,
        )

    def samecurve_report(self, i: int) -> "SamecurveReport":
        """Push sigma_i and return `samecurve_check` of the braid held
        before it, so a caller can keep pushing letters afterwards."""
        k, before = self.k, self.factors()
        self.push_letter(i)
        return SamecurveReport(
            zero_gamma_power=k == 0,
            append_stays_greedy=self.k == k and self.factors() == before + (i,),
            # a simple's left and right reflection divisors are the same set
            atom_free_last_simple=not before or i not in self.ctx.rdiv[before[-1]],
        )


@lru_cache(maxsize=None)
def garside_context(g: CoxeterGraph) -> DualGarside:
    return DualGarside(g)


def interval(g: CoxeterGraph) -> list[DualSimple]:
    ctx = garside_context(g)
    return [ctx.simple(w) for w in range(len(ctx.matrices))]


def is_trivial_braid(g: CoxeterGraph, word) -> bool:
    return garside_context(g).new_nf_state(word).is_trivial()


@dataclass(frozen=True)
class SamecurveReport:
    zero_gamma_power: bool
    append_stays_greedy: bool
    atom_free_last_simple: bool


def samecurve_check(g: CoxeterGraph, word, i: int) -> SamecurveReport:
    """The three normal-form conditions under which appending sigma_i keeps a
    braid's rightmost factor clean: no gamma power, appending sigma_i simply
    extends the factor list, and the atom s_i does not divide the last factor.
    Reported separately; nothing is assumed about the input word."""
    validate_vertex(g, i)
    return garside_context(g).new_nf_state(word).samecurve_report(i)

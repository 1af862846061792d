"""Brute-force reference for the dual Garside tests.

The whole finite Coxeter group, found by breadth-first search on the q = -1
generator matrices, and reflection length as the exact rank over Q of
(matrix - identity).  Nothing here shares code with `burau.garside`, so it
is an independent oracle for the interval, the reflections and divisibility.
"""

from collections import deque
from fractions import Fraction

from burau.laurent import ZZ
from burau.matrices import STANDARD, generator_matrix


def rank_over_q(rows):
    """Exact matrix rank by Gaussian elimination over the rationals."""
    work = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][col]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                f = work[r][col] / pv
                work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def moved_space_dim(m):
    """rank(m - 1): the reflection length of a group element."""
    n = len(m)
    return rank_over_q(
        [[m[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    )


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


class CoxeterGroup:
    """Every element of a finite Coxeter group as an integer matrix, each
    with a word in the generators that reaches it."""

    def __init__(self, g):
        self.n = g.n
        self.gens = []
        for i in g.vertices():
            m = generator_matrix(g, i, 1, STANDARD, ZZ)
            self.gens.append(tuple(tuple(e.evaluate(-1) for e in row) for row in m.rows))
        self.identity = tuple(
            tuple(1 if i == j else 0 for j in range(g.n)) for i in range(g.n)
        )
        self.words = {self.identity: ()}
        queue = deque([self.identity])
        while queue:
            m = queue.popleft()
            for i, s in enumerate(self.gens, start=1):
                u = mat_mul(m, s)
                if u not in self.words:
                    self.words[u] = self.words[m] + (i,)
                    queue.append(u)
        self.elements = list(self.words)

    def __len__(self):
        return len(self.elements)

    def fold(self, word):
        """The image of a braid word: every letter maps to its generator."""
        m = self.identity
        for letter in word:
            m = mat_mul(m, self.gens[abs(letter) - 1])
        return m

    def inverse(self, m):
        return self.fold(reversed(self.words[m]))

    def reflections(self):
        return {m for m in self.elements if moved_space_dim(m) == 1}

    def left_divides(self, a, b):
        return moved_space_dim(a) + moved_space_dim(
            mat_mul(self.inverse(a), b)
        ) == moved_space_dim(b)

    def right_divides(self, a, b):
        return moved_space_dim(
            mat_mul(b, self.inverse(a))
        ) + moved_space_dim(a) == moved_space_dim(b)

    def interval(self, gamma):
        """The elements below gamma: l(w) + l(w^-1 gamma) = l(gamma)."""
        return {m for m in self.elements if self.left_divides(m, gamma)}

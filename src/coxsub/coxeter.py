"""Finite Coxeter systems acting on their root systems.

A Coxeter system is encoded by its Coxeter matrix m, with m[i][i] = 1 and
m[i][j] = m[j][i] >= 2 the order of s_i s_j.  In the geometric
representation each s_i permutes the positive roots other than a_i
(Bjorner-Brenti, Combinatorics of Coxeter Groups, ch. 4), so their orbit
from the simple roots lists them all.  The matrix computes it once, in
exact cyclotomic integers (``_root_system``); every operation after it is
on root indices.

A group element g is the tuple of the roots g(alpha_1), .., g(alpha_n);
it determines g, so equality and hashing are exact.  Elements are interned
into integer ids as they are reached.  The right-multiplication table,
the right-descent bitmasks and the lengths are indexed by id and fill on
demand; W itself is never enumerated.

Conventions used throughout the package:
  * generators are 1-based integers 1..n,
  * a word is a tuple of generator indices, read left to right,
  * words multiply left to right: element_of((i, j)) is s_i followed by
    s_j, acting on the right,
  * s is a right descent of g iff g sends alpha_s to a negative root.

Only finite groups are supported: W is finite iff Phi is, so a matrix
whose orbit passes MAX_ROOTS / 2 positive roots is rejected.
"""

from __future__ import annotations

import json
import re
from collections import deque
from functools import cache
from math import gcd, lcm
from operator import index as _int
from typing import Iterable, NamedTuple, Sequence

Word = tuple[int, ...]

# An input bound: the facets the kernel enumerates can grow exponentially
# with the letters.  It also bounds the vertices of a complex.
MAX_WORD_LETTERS = 62
MAX_ROOTS = 1000  # the reflection table holds |Phi|^2 root indices
MAX_REDUCED_WORDS = 100_000  # default cap of every reduced-word search and of --cap
_INFINITE = f"Coxeter matrix does not define a finite group with at most {MAX_ROOTS} roots"


def _as_word(letters: Iterable[int]) -> Word:
    """The letters as a tuple of ints; any integer type is accepted."""
    try:
        return tuple(map(_int, letters))
    except TypeError:
        raise ValueError(f"letters must be integers, got {letters!r}") from None


def _cyclotomic(n: int) -> tuple[int, ...]:
    """The n-th cyclotomic polynomial, constant term first: Phi_pr(x) =
    Phi_r(x^p) / Phi_r(x) for a prime p not dividing r, and Phi_n(x) =
    Phi_r(x^(n / r)) for r the product of the primes of n."""
    phi, r = [-1, 1], 1
    for p in range(2, n + 1):
        if n % p == 0 and gcd(p, r) == 1:  # the next prime of n
            num = [0] * (p * len(phi) - p + 1)
            num[::p] = phi
            quo = [0] * (len(num) - len(phi) + 1)
            for i in reversed(range(len(quo))):  # long division by the monic phi
                quo[i] = c = num[i + len(phi) - 1]
                for j, b in enumerate(phi):
                    num[i + j] -= c * b
            phi, r = quo, r * p
    out = [0] * (n // r * (len(phi) - 1) + 1)
    out[::n // r] = phi
    return tuple(out)


class CoxeterMatrix:
    """Validated symmetric Coxeter matrix of a finite group.

    ``rows`` holds the matrix as a tuple of rows; ``m[i, j]`` reads the
    entry of the 0-based generators i and j.  ``roots`` and ``reflect``
    are its root system (see ``_root_system``).
    """

    __slots__ = ("rows", "m", "rank", "name", "roots", "reflect")

    def __init__(self, rows: Sequence[Sequence[int]], name: str | None = None):
        try:
            rows = [tuple(r) for r in rows]
            if any(isinstance(x, bool) for r in rows for x in r):
                raise TypeError("a bool is no order, though Python counts True as 1")
            rows = tuple(tuple(map(_int, r)) for r in rows)
        except (TypeError, ValueError, OverflowError):
            raise ValueError("a Coxeter matrix is a list of rows of integers") from None
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("Coxeter matrix must be square")
        if n == 0:
            raise ValueError("Coxeter matrix must have positive rank")
        if n > MAX_ROOTS // 2:  # the simple roots alone are n positive roots
            raise ValueError(f"root systems are limited to {MAX_ROOTS} roots")
        m = {(i, j): rows[i][j] for i in range(n) for j in range(n)}
        for i in range(n):
            if m[i, i] != 1:
                raise ValueError("diagonal entries must be 1")
            for j in range(i + 1, n):
                if m[i, j] != m[j, i]:
                    raise ValueError("Coxeter matrix must be symmetric")
                if m[i, j] < 2:
                    raise ValueError("off-diagonal entries must be >= 2")
                if m[i, j] > MAX_ROOTS // 2:  # <s_i, s_j> alone has 2 m_ij roots
                    raise ValueError(f"root systems are limited to {MAX_ROOTS} roots")
        self.rows = rows
        self.m = m
        self.rank = n
        self.name = name
        self.roots, self.reflect = _root_system(m, n)

    def __repr__(self) -> str:
        return f"CoxeterMatrix({self.name or [list(r) for r in self.rows]})"

    @staticmethod
    def named(name: str) -> "CoxeterMatrix":
        """Build a matrix from a type name: A3, B4, D5, E6..E8, F4, H3, H4, I2:m."""
        name = name.strip()
        im = re.fullmatch(r"[Ii]2(?::(\d+)|\((\d+)\))", name)
        if im:
            order = int(im[1] or im[2])
            if order < 2:
                raise ValueError("I2(m) needs m >= 2")
            return CoxeterMatrix([[1, order], [order, 1]], name=f"I2:{order}")
        tm = re.fullmatch(r"([ABDEFHabdefh])(\d+)", name)
        if not tm:
            raise ValueError(f"unrecognized group name {name!r}")
        family, rank = tm.group(1).upper(), int(tm.group(2))
        # the positive roots of A_n, B_n and D_n, refused before any row is made
        if {"A": rank * (rank + 1) // 2, "B": rank * rank, "D": rank * (rank - 1)}.get(
                family, 0) > MAX_ROOTS // 2:
            raise ValueError(f"root systems are limited to {MAX_ROOTS} roots")
        edges: dict[tuple[int, int], int] = {}
        if family == "A":
            if rank < 1:
                raise ValueError("A_n needs n >= 1")
            edges = {(i, i + 1): 3 for i in range(1, rank)}
        elif family == "B":
            if rank < 2:
                raise ValueError("B_n needs n >= 2")
            edges = {(i, i + 1): 3 for i in range(1, rank - 1)}
            edges[(rank - 1, rank)] = 4
        elif family == "D":
            if rank < 4:
                raise ValueError("D_n needs n >= 4")
            edges = {(i, i + 1): 3 for i in range(1, rank - 1)}
            edges[(rank - 2, rank)] = 3
        elif family == "E":
            if rank not in (6, 7, 8):
                raise ValueError("E_n needs n in {6, 7, 8}")
            chain = [1, 3, 4, 5, 6, 7, 8][: rank - 1]
            edges = {(a, b): 3 for a, b in zip(chain, chain[1:])}
            edges[(2, 4)] = 3
        elif family == "F":
            if rank != 4:
                raise ValueError("only F4 exists")
            edges = {(1, 2): 3, (2, 3): 4, (3, 4): 3}
        else:  # H
            if rank not in (3, 4):
                raise ValueError("H_n needs n in {3, 4}")
            edges = {(1, 2): 5}
            edges.update({(i, i + 1): 3 for i in range(2, rank)})
        rows = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
        for (a, b), order in edges.items():
            rows[a - 1][b - 1] = order
            rows[b - 1][a - 1] = order
        return CoxeterMatrix(rows, name=family + str(rank))

    @staticmethod
    def from_spec(spec) -> "CoxeterMatrix":
        """Accept a name, a JSON string, or a dict with 'type'/'matrix'."""
        if isinstance(spec, CoxeterMatrix):
            return spec
        if isinstance(spec, str):
            text = spec.strip()
            if not text.startswith("{"):
                return CoxeterMatrix.named(text)
            try:
                spec = json.loads(text)
            except RecursionError:
                raise ValueError("group spec nests too deeply") from None
        if isinstance(spec, dict):
            if "matrix" in spec:
                if extra := [k for k in ("type", "rank", "m") if k in spec]:
                    raise ValueError(f"group spec gives 'matrix' and {', '.join(map(repr, extra))}")
                return CoxeterMatrix(spec["matrix"])
            if "type" in spec:
                family = str(spec["type"])
                rank, digits = spec.get("rank"), re.search(r"\d+", family)
                if digits and rank is not None and str(rank) != str(int(digits[0])):
                    raise ValueError(f"type {family} has rank {int(digits[0])}, not {rank!r}")
                if family.upper() == "I2":
                    if "m" not in spec:
                        raise ValueError("type I2 needs its order m")
                    return CoxeterMatrix.named(f"I2:{spec['m']}")
                if digits:
                    return CoxeterMatrix.named(family)
                if rank is None:
                    raise ValueError("named type needs a rank")
                return CoxeterMatrix.named(f"{family}{rank}")
        raise ValueError(f"cannot interpret group spec {spec!r}")


def _root_system(m: dict, n: int) -> tuple[tuple, list[list[int]]]:
    """(roots, reflect): the N positive roots, simple roots first; index
    r + N stands for -root r, and reflect[b][c] indexes s_beta(gamma) for
    beta = root b, gamma = root c.  Coordinate i of a root lies in Z[zeta],
    zeta = e^(i pi / M), M the lcm of the labels of the piece of the
    Coxeter graph holding i, as its residue modulo the 2M-th cyclotomic
    polynomial, constant term first; 2B(a_i, a_j) = -(zeta^(M/m_ij) +
    zeta^(-M/m_ij)).
    """
    pieces: list[set[int]] = []
    for i in range(n):
        joined = {i}.union(*[p for p in pieces if any(m[i, j] > 2 for j in p)])
        pieces = [p for p in pieces if not p <= joined] + [joined]
    phi, links = [()] * n, [[]] * n
    for p in pieces:
        labels = [m[i, j] for i in p for j in p if m[i, j] > 2]
        # 1/6 + 1/3 + 1/2 = 1: a connected rank-3 parabolic subgroup that
        # holds a label >= 6 is infinite, so a larger piece is too
        if len(p) > 2 and max(labels) > 5:
            raise ValueError(_INFINITE)
        big = lcm(*labels)
        f = _cyclotomic(2 * big)
        for i in p:
            phi[i] = f
            links[i] = [(j, big // m[i, j]) for j in p if m[i, j] > 2]
    zero = [(0,) * (len(f) - 1) for f in phi]
    roots = [tuple((1,) + zero[i][1:] if i == j else zero[i] for i in range(n))
             for j in range(n)]
    index = {v: k for k, v in enumerate(roots)}
    perm: list[list[int]] = [[] for _ in range(n)]  # perm[s][r]: index of s(root r)
    parent: list[tuple[int, int]] = []  # root n + k is s(root r) for parent[k] = (r, s)
    for r, beta in enumerate(roots):
        if len(roots) > MAX_ROOTS // 2:
            raise ValueError(_INFINITE)
        for s, f in enumerate(phi):
            if r == s:
                perm[s].append(-1)  # -alpha_s, numbered below
                continue
            # s(beta) differs from beta in coordinate s alone, which becomes
            # -beta_s + (zeta^a + zeta^-a) beta_j summed over the links (j, a)
            c = [-x for x in beta[s]]
            for j, a in links[s]:
                up = down = beta[j]
                for _ in range(a):  # times zeta, divided by zeta
                    up = [x - up[-1] * y for x, y in zip((0, *up[:-1]), f)]
                    down = [x - down[0] * y for x, y in zip((*down[1:], 0), f[1:])]
                c = [x + y + z for x, y, z in zip(c, up, down)]
            c = tuple(c)
            image = beta if c == beta[s] else beta[:s] + (c,) + beta[s + 1:]
            k = index.setdefault(image, len(roots))
            if k == len(roots):
                roots.append(image)
                parent.append((r, s))
            perm[s].append(k)
    size = len(roots)
    for s, row in enumerate(perm):
        row[s] = s + size
        row += [(k + size) % (2 * size) for k in row]
    # s_beta for beta = s(gamma) is s s_gamma s, and s_-beta is s_beta
    reflect = perm[:]
    for r, s in parent:
        flips, row = perm[s], reflect[r]
        reflect.append([flips[row[flips[c]]] for c in range(2 * size)])
    return tuple(roots), reflect + reflect


class GroupElement(NamedTuple):
    """Group element as the indices of the roots it sends the simple roots to.

    The tuple determines the element, so equality and hashing are exact.
    Elements come from a CoxeterSystem, which interns them.
    """

    roots: tuple[int, ...]


class CoxeterSystem:
    """A finite Coxeter system (W, S) with lazily interned elements."""

    def __init__(self, matrix):
        cm = CoxeterMatrix.from_spec(matrix)
        self.coxeter_matrix = cm
        self.m = cm.m
        self.rank = n = cm.rank
        self.name = cm.name
        self.roots, self._reflect = cm.roots, cm.reflect
        # interned elements; id 0 is the identity, which fixes every simple root
        start = tuple(range(n))
        self.identity = GroupElement(start)
        self._ids = {start: 0}
        self._elements = [self.identity]
        self._right = [[-1] * n]  # _right[g][s]: id of g * s_(s+1), -1 until known
        self._desc = [0]  # right descents of each id as a bitmask, bit s for s_(s+1)
        self._len = [0]
        self._le = cache(self._le)  # every pass asks the same few Bruhat pairs again
        self._inv = cache(self._inv)  # every build of an entry asks for pi^-1
        self._chain = cache(self._chain)  # every move asks for its two window chains
        self._column = cache(self._column)  # moves meet the same outer pairs again

    # -- element plumbing ------------------------------------------------

    def _id(self, g: GroupElement) -> int:
        try:
            return self._ids[g.roots]
        except KeyError:
            raise ValueError(f"{g!r} is not an element of {self.name or 'this system'}") from None

    def _step(self, g: int, s: int) -> int:
        """Id of g * s_(s+1), interning it on first sight; fills both table cells."""
        t = self._elements[g].roots
        row = self._reflect[t[s]]  # g s = s_beta g for beta = g(alpha_s)
        roots = tuple(row[c] for c in t)
        h = self._ids.get(roots)
        if h is None:
            h = len(self._elements)
            self._ids[roots] = h
            self._elements.append(GroupElement(roots))
            self._right.append([-1] * self.rank)
            n = len(self.roots)  # index r + N is the negative root -r
            self._desc.append(sum(1 << j for j, c in enumerate(roots) if c >= n))
            self._len.append(self._len[g] + (-1 if self._desc[g] >> s & 1 else 1))
        self._right[g][s] = h
        self._right[h][s] = g
        return h

    def _times(self, g: int, s: int) -> int:
        h = self._right[g][s]
        return h if h >= 0 else self._step(g, s)

    def _fold(self, g: int, word: Iterable[int]) -> int:
        """Id of g times the word; letters are checked."""
        for s in self._word(word):
            g = self._times(g, s - 1)
        return g

    def generator(self, s: int) -> GroupElement:
        (s,) = self._word((s,))
        return self._elements[self._times(0, s - 1)]

    def _word(self, word: Iterable[int]) -> Word:
        """The word as a tuple of ints, every letter checked."""
        w = _as_word(word)
        if w and not (min(w) >= 1 and max(w) <= self.rank):
            bad = next(s for s in w if not 1 <= s <= self.rank)
            raise ValueError(f"generator index {bad!r} out of range 1..{self.rank}")
        return w

    def check_word(self, word: Iterable[int]) -> Word:
        """The word as a tuple of ints; raises ValueError unless every
        letter lies in 1..rank and there are at most MAX_WORD_LETTERS."""
        w = self._word(word)
        if len(w) > MAX_WORD_LETTERS:
            raise ValueError(f"words are limited to {MAX_WORD_LETTERS} letters")
        return w

    def element_of(self, word: Iterable[int]) -> GroupElement:
        return self._elements[self._fold(0, word)]

    def multiply(self, g: GroupElement, h: GroupElement) -> GroupElement:
        return self._elements[self._fold(self._id(g), self.word_of(h))]

    def inverse(self, g: GroupElement) -> GroupElement:
        return self._elements[self._inv(self._id(g))]

    def _inv(self, g: int) -> int:
        """Id of g^-1, a reduced word of g folded backwards; once per id (``__init__``)."""
        return self._fold(0, reversed(self.word_of(self._elements[g])))

    def is_identity(self, g: GroupElement) -> bool:
        return g == self.identity

    # -- descents and length ---------------------------------------------

    def right_descents(self, g: GroupElement) -> frozenset[int]:
        d = self._desc[self._id(g)]
        return frozenset(s + 1 for s in range(self.rank) if d >> s & 1)

    def length(self, g: GroupElement) -> int:
        return self._len[self._id(g)]

    def is_reduced(self, word: Iterable[int]) -> bool:
        g = 0
        for s in self._word(word):
            if self._desc[g] >> (s - 1) & 1:
                return False
            g = self._times(g, s - 1)
        return True

    def bruhat_le(self, u: GroupElement, w: GroupElement) -> bool:
        """Bruhat order u <= w (see ``_le``)."""
        return self._le(self._id(u), self._id(w))

    def _le(self, u: int, w: int) -> bool:
        """Bruhat order on ids, by Deodhar's Z-property: for a right descent
        s of w, u <= w iff min(u, us) <= ws, and elements of one length
        compare iff equal.  At most l(w) steps, once per pair (``__init__``)."""
        desc, length = self._desc, self._len
        while length[u] < length[w]:
            d = desc[w]
            s = (d & -d).bit_length() - 1
            if desc[u] >> s & 1:
                u = self._times(u, s)
            w = self._times(w, s)
        return u == w

    # -- word operations ---------------------------------------------------

    def _demazures(self, letters: Iterable[int]) -> list[int]:
        """Ids of the Demazure products of the prefixes of 0-based letters, () first."""
        desc, times, out = self._desc, self._times, [0]
        for s in letters:
            g = out[-1]
            out.append(g if desc[g] >> s & 1 else times(g, s))
        return out

    def _chain(self, i: int, j: int) -> tuple[int, ...]:
        """``_demazures`` of the alternating window i, j, i, .. of m_ij 0-based
        letters; once per pair (``__init__``), at most rank^2 of them."""
        return tuple(self._demazures(((i, j) * self.m[i, j])[:self.m[i, j]]))

    def _column(self, i: int, j: int, a: int, u: int) -> int:
        """l0 * (m + 2) + l1 for the first l0, l1 with u <= a * chain[l] along the
        chains of i, j, .. and j, i, .., or 0 when u <= a; once each (``__init__``)."""
        m, col = self.m[i, j], [0, 0]
        for c, w in enumerate(() if self._le(u, a) else ((i, j), (j, i))):
            z = a
            for l, s in enumerate((w * m)[:m], 1):
                if not self._desc[z] >> s & 1 and self._le(u, z := self._times(z, s)):
                    col[c] = l
                    break
        return col[0] * (m + 2) + col[1]

    def demazure_product(self, word: Iterable[int]) -> GroupElement:
        """Greedy fold keeping only the length-increasing letters."""
        return self._elements[self._demazures(s - 1 for s in self._word(word))[-1]]

    def word_of(self, g: GroupElement) -> Word:
        """A reduced word for g, deterministic (smallest descent stripped last)."""
        g = self._id(g)
        out: list[int] = []
        while g:
            d = self._desc[g]
            s = (d & -d).bit_length() - 1
            out.append(s + 1)
            g = self._times(g, s)
        return tuple(reversed(out))

    def _braid_moves(self, w: Word):
        """Each braid move on the checked word w, left to right, as
        (pos, i, j, order, next word): the alternating window of letters
        i, j and length order starts at 1-based pos, and next word holds
        the other alternating window in its place."""
        m = self.m
        for p in range(len(w) - 1):
            i, j = w[p], w[p + 1]
            if i == j:
                continue
            order = m[i - 1, j - 1]
            if w[p:p + order] == ((i, j) * order)[:order]:
                yield p + 1, i, j, order, w[:p] + ((j, i) * order)[:order] + w[p + order:]

    def _braid_search(self, start: Word, cap: int, goal: Word | None = None) -> dict:
        """Breadth-first search over braid moves from ``start``.

        Returns the parent map: each word reached, keyed to the word it was
        reached from and the 1-based position of that move (None for
        start).  Stops as soon as ``goal`` is reached; raises once more
        than cap words are reached.
        """
        parent: dict = {start: None}
        queue = deque([start])
        while queue and goal not in parent:
            w = queue.popleft()
            for pos, _, _, _, nxt in self._braid_moves(w):
                if nxt in parent:
                    continue
                parent[nxt] = (w, pos)
                if nxt == goal:
                    break
                if len(parent) > cap:
                    raise ValueError(f"more than {cap} reduced words")
                queue.append(nxt)
        return parent

    def reduced_words(self, g: GroupElement, cap: int = MAX_REDUCED_WORDS) -> tuple[Word, ...]:
        """All reduced words of g, the braid-move closure of one of them.

        Raises if the count exceeds cap.
        """
        return tuple(sorted(self._braid_search(self.word_of(g), cap)))

    def longest_element(self) -> GroupElement:
        full = (1 << self.rank) - 1
        g = 0
        while self._desc[g] != full:
            up = ~self._desc[g] & full
            g = self._times(g, (up & -up).bit_length() - 1)
        return self._elements[g]


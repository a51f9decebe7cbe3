"""Finite Coxeter systems acting on their root systems.

A Coxeter system is encoded by its Coxeter matrix m, with m[i][i] = 1 and
m[i][j] = m[j][i] >= 2 the order of s_i s_j.  In the geometric
representation, where B(a_i, a_j) = -cos(pi/m[i][j]) on the span of the
simple roots, the roots Phi are the orbit of the simple roots and every
generator permutes them (Bjorner-Brenti, Combinatorics of Coxeter Groups,
ch. 4).  Phi is computed once per system, from one floating-point orbit
whose result is validated before use: each s_i must permute Phi and send
exactly one positive root, alpha_i, to a negative one, and a named type
must have rank * h roots, h its Coxeter number.  From then on every
operation is on root indices and is exact.

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

Only finite groups are supported.  Construction rejects any Coxeter
matrix whose bilinear form is not positive definite (decided by a
Cholesky factorization); positive definiteness is the classical
finiteness criterion and carves out exactly the A/B/D/E6/E7/E8/F4/H3/H4/
I2(m) catalog.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass
from math import cos, pi as PI, sqrt
from operator import index as _int
from typing import Iterable, Sequence

from .backend import active as _K

Word = tuple[int, ...]

# An input bound: the facets the kernel enumerates can grow exponentially
# with the letters.  simplicial.MAX_VERTICES matches it.
MAX_WORD_LETTERS = 62
MAX_ROOTS = 1000  # the reflection table holds |Phi|^2 root indices


def _as_word(letters: Iterable[int]) -> Word:
    """The letters as a tuple of ints; any integer type is accepted."""
    try:
        return tuple(map(_int, letters))
    except TypeError:
        raise ValueError(f"letters must be integers, got {letters!r}") from None


def _gram(m: dict, n: int) -> list[list[float]]:
    """B(a_i, a_j) = -cos(pi / m_ij), the form of the geometric representation."""
    return [[-cos(PI / m[i, j]) for j in range(n)] for i in range(n)]


def _positive_definite(a: list[list[float]]) -> bool:
    """Whether the symmetric matrix has a Cholesky factorization with
    every pivot above 1e-8."""
    low: list[list[float]] = []
    for i, row in enumerate(a):
        low.append([])
        for j in range(i + 1):
            x = row[j] - sum(p * q for p, q in zip(low[i], low[j]))
            if j < i:
                low[i].append(x / low[j][j])
            elif x <= 1e-8:
                return False
            else:
                low[i].append(sqrt(x))
    return True


class CoxeterMatrix:
    """Validated symmetric Coxeter matrix of a finite group.

    ``rows`` holds the matrix as a tuple of rows; ``m[i, j]`` reads the
    entry of the 0-based generators i and j.
    """

    __slots__ = ("rows", "m", "rank", "name", "coxeter_number")

    def __init__(self, rows: Sequence[Sequence[int]], name: str | None = None,
                 coxeter_number: int | None = None):
        try:
            rows = tuple(tuple(map(_int, r)) for r in rows)
        except (TypeError, ValueError, OverflowError):
            raise ValueError("a Coxeter matrix is a list of rows of integers") from None
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("Coxeter matrix must be square")
        if n == 0:
            raise ValueError("Coxeter matrix must have positive rank")
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
        if not _positive_definite(_gram(m, n)):
            raise ValueError(
                "Coxeter matrix does not define a finite group "
                "(bilinear form is not positive definite)"
            )
        self.rows = rows
        self.m = m
        self.rank = n
        self.name = name
        self.coxeter_number = coxeter_number  # known for named types only

    def __repr__(self) -> str:
        return f"CoxeterMatrix({self.name or [list(r) for r in self.rows]})"

    @staticmethod
    def named(name: str) -> "CoxeterMatrix":
        """Build a matrix from a type name: A3, B4, D5, E6..E8, F4, H3, H4, I2:m."""
        name = name.strip()
        im = re.fullmatch(r"[Ii]2[:(]?(\d+)\)?", name)
        if im:
            order = int(im.group(1))
            if order < 2:
                raise ValueError("I2(m) needs m >= 2")
            return CoxeterMatrix([[1, order], [order, 1]], name=f"I2:{order}",
                                 coxeter_number=order)
        tm = re.fullmatch(r"([ABDEFHabdefh])(\d+)", name)
        if not tm:
            raise ValueError(f"unrecognized group name {name!r}")
        family, rank = tm.group(1).upper(), int(tm.group(2))
        edges: dict[tuple[int, int], int] = {}
        if family == "A":
            if rank < 1:
                raise ValueError("A_n needs n >= 1")
            edges = {(i, i + 1): 3 for i in range(1, rank)}
            h = rank + 1
        elif family == "B":
            if rank < 2:
                raise ValueError("B_n needs n >= 2")
            edges = {(i, i + 1): 3 for i in range(1, rank - 1)}
            edges[(rank - 1, rank)] = 4
            h = 2 * rank
        elif family == "D":
            if rank < 4:
                raise ValueError("D_n needs n >= 4")
            edges = {(i, i + 1): 3 for i in range(1, rank - 1)}
            edges[(rank - 2, rank)] = 3
            h = 2 * rank - 2
        elif family == "E":
            if rank not in (6, 7, 8):
                raise ValueError("E_n needs n in {6, 7, 8}")
            chain = [1, 3, 4, 5, 6, 7, 8][: rank - 1]
            edges = {(a, b): 3 for a, b in zip(chain, chain[1:])}
            edges[(2, 4)] = 3
            h = {6: 12, 7: 18, 8: 30}[rank]
        elif family == "F":
            if rank != 4:
                raise ValueError("only F4 exists")
            edges = {(1, 2): 3, (2, 3): 4, (3, 4): 3}
            h = 12
        else:  # H
            if rank not in (3, 4):
                raise ValueError("H_n needs n in {3, 4}")
            edges = {(1, 2): 5}
            edges.update({(i, i + 1): 3 for i in range(2, rank)})
            h = {3: 10, 4: 30}[rank]
        rows = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
        for (a, b), order in edges.items():
            rows[a - 1][b - 1] = order
            rows[b - 1][a - 1] = order
        return CoxeterMatrix(rows, name=family + str(rank), coxeter_number=h)

    @staticmethod
    def from_spec(spec) -> "CoxeterMatrix":
        """Accept a name, a JSON string, or a dict with 'type'/'matrix'."""
        if isinstance(spec, CoxeterMatrix):
            return spec
        if isinstance(spec, str):
            text = spec.strip()
            if text.startswith("{"):
                return CoxeterMatrix.from_spec(json.loads(text))
            return CoxeterMatrix.named(text)
        if isinstance(spec, dict):
            if "matrix" in spec:
                return CoxeterMatrix(spec["matrix"])
            if "type" in spec:
                family = str(spec["type"])
                if family.upper().startswith("I2"):
                    if "m" not in spec:
                        raise ValueError("type I2 needs its order m")
                    return CoxeterMatrix.named(f"I2:{spec['m']}")
                rank = spec.get("rank")
                if rank is None:
                    digits = re.search(r"\d+", family)
                    if not digits:
                        raise ValueError("named type needs a rank")
                    return CoxeterMatrix.named(family)
                return CoxeterMatrix.named(f"{family}{rank}")
        raise ValueError(f"cannot interpret group spec {spec!r}")


def _root_system(gram: list[list[float]]) -> tuple[tuple, list[bool], list[list[int]]]:
    """The roots of a finite system and the reflections' action on them.

    Returns (roots, negative, reflect): roots is a tuple of |Phi| tuples
    of simple-root coordinates with the simple roots first, negative[r]
    says whether root r is negative, and reflect[b][c] is the index of
    s_beta(gamma) for beta = roots[b] and gamma = roots[c].  Raises when
    the orbit fails validation.
    """
    n = len(gram)
    coords = [tuple(float(i == j) for j in range(n)) for i in range(n)]
    # orbit points are looked up by their coordinates rounded to 6 decimals;
    # the validation below catches any mismatch
    seen = {v: k for k, v in enumerate(coords)}
    perm: list[list[int]] = [[] for _ in range(n)]  # perm[s][r]: index of s(root r)
    parent: list[tuple[int, int]] = []  # root n + k is s(root r) for parent[k] = (r, s)
    r = 0
    while r < len(coords):
        beta = coords[r]
        for s in range(n):
            image = list(beta)
            image[s] -= 2.0 * sum(g * b for g, b in zip(gram[s], beta))
            k = seen.setdefault(tuple(round(x, 6) for x in image), len(coords))
            if k == len(coords):
                if k == MAX_ROOTS:
                    raise ValueError(f"root systems are limited to {MAX_ROOTS} roots")
                coords.append(tuple(image))
                parent.append((r, s))
            perm[s].append(k)
        r += 1
    size = len(coords)
    negative = [sum(v) < 0 for v in coords]
    for s, flips in enumerate(perm):
        if sorted(flips) != list(range(size)):
            raise ValueError(f"s_{s + 1} does not permute the computed roots")
        if [c for c in range(size) if negative[flips[c]] and not negative[c]] != [s]:
            raise ValueError(f"s_{s + 1} must send alpha_{s + 1}, and no other "
                             "positive root, to a negative root")
    # s_beta for beta = s(gamma) is s s_gamma s, so each row is exact
    reflect = perm[:]
    for r, s in parent:
        flips, row = perm[s], reflect[r]
        reflect.append([flips[row[flips[c]]] for c in range(size)])
    return tuple(coords), negative, reflect


@dataclass(frozen=True, slots=True)
class GroupElement:
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
        self.roots, self._negative, self._reflect = _root_system(_gram(self.m, n))
        h = cm.coxeter_number
        if h is not None and len(self.roots) != n * h:
            raise ValueError(f"{cm.name} needs {n * h} roots, found {len(self.roots)}")
        # interned elements; id 0 is the identity, which fixes every simple root
        start = tuple(range(n))
        self.identity = GroupElement(start)
        self._ids = {start: 0}
        self._elements = [self.identity]
        self._right = [[-1] * n]  # _right[g][s]: id of g * s_(s+1), -1 until known
        self._desc = [0]  # right descents of each id as a bitmask, bit s for s_(s+1)
        self._len = [0]

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
            neg = self._negative
            self._desc.append(sum(1 << j for j, c in enumerate(roots) if neg[c]))
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

    def _letters(self, word: Iterable[int]) -> Word:
        """0-based letters of a checked word."""
        return tuple(s - 1 for s in self.check_word(word))

    def element_of(self, word: Iterable[int]) -> GroupElement:
        return self._elements[self._fold(0, word)]

    def multiply(self, g: GroupElement, h: GroupElement) -> GroupElement:
        return self._elements[self._fold(self._id(g), self.word_of(h))]

    def inverse(self, g: GroupElement) -> GroupElement:
        return self._elements[self._fold(0, reversed(self.word_of(g)))]

    def is_identity(self, g: GroupElement) -> bool:
        return g == self.identity

    # -- descents and length ---------------------------------------------

    def right_descents(self, g: GroupElement) -> frozenset[int]:
        d = self._desc[self._id(g)]
        return frozenset(s + 1 for s in range(self.rank) if d >> s & 1)

    def length(self, g: GroupElement) -> int:
        return self._len[self._id(g)]

    def is_reduced(self, word: Iterable[int]) -> bool:
        """True iff every prefix extension of the word is a length ascent."""
        g = 0
        for s in self._word(word):
            if self._desc[g] >> (s - 1) & 1:
                return False
            g = self._times(g, s - 1)
        return True

    def bruhat_le(self, u: GroupElement, w: GroupElement) -> bool:
        """Bruhat order u <= w, by Deodhar's Z-property: for a right descent
        s of w, u <= w iff min(u, us) <= ws.  Takes at most l(w) steps."""
        u, w = self._id(u), self._id(w)
        desc, length = self._desc, self._len
        while length[u] <= length[w]:
            if u == w:
                return True
            d = desc[w]
            s = (d & -d).bit_length() - 1
            if desc[u] >> s & 1:
                u = self._times(u, s)
            w = self._times(w, s)
        return False

    # -- word operations ---------------------------------------------------

    def _demazure(self, letters: Iterable[int]) -> int:
        """Id of the Demazure product of 0-based letters."""
        g = 0
        for s in letters:
            if not self._desc[g] >> s & 1:
                g = self._times(g, s)
        return g

    def demazure_product(self, word: Iterable[int]) -> GroupElement:
        """Greedy fold keeping only the length-increasing letters."""
        return self._elements[self._demazure(s - 1 for s in self._word(word))]

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

    def apply_braid_move(self, word: Iterable[int], pos: int) -> Word:
        """Replace the alternating window of length m(i,j) starting at pos.

        pos is 1-based; the window letters are read off the word itself.
        """
        w = self._word(word)
        for move in self._braid_moves(w):
            if move[0] == pos:
                return move[4]
        raise ValueError(f"no braid move applies at position {pos} of {w}")

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

    def reduced_words(self, g: GroupElement, cap: int = 100_000) -> tuple[Word, ...]:
        """All reduced words of g, the braid-move closure of one of them.

        Raises if the count exceeds cap.
        """
        return tuple(sorted(self._braid_search(self.word_of(g), cap)))

    def longest_element(self) -> GroupElement:
        """Climb by the smallest ascent until every generator is a descent."""
        full = (1 << self.rank) - 1
        g = 0
        while self._desc[g] != full:
            up = ~self._desc[g] & full
            g = self._times(g, (up & -up).bit_length() - 1)
        return self._elements[g]

    # -- reduced subwords ---------------------------------------------------

    def reduced_subword_masks(self, word: Iterable[int], pi: GroupElement) -> list[int]:
        """Sorted bitmasks (bit p for position p) of the position sets of
        word that carry a reduced word of pi."""
        return self._subword_masks(self._letters(word), pi)

    def _subword_masks(self, letters: Word, pi: GroupElement) -> list[int]:
        """``reduced_subword_masks`` of a checked word given as 0-based
        letters (``_letters``)."""
        start = self._id(self.inverse(pi))
        return sorted(_K.reduced_subword_masks(
            self._right, self._desc, self._len, self._step, letters, start))

    def _subword_h(self, letters: Word, pi: GroupElement) -> tuple[int, ...] | None:
        """h-vector of Delta(Q; pi) for 0-based letters, None when void.

        Vertex decomposition at the first position (Knutson-Miller 2004,
        section 2): for Q = (s, Q'), h(Q; pi) = h(Q'; s pi) + t h(Q'; pi)
        when s is a left descent of pi, else h(Q'; pi) with a trailing 0
        (a cone point).  States are (position, w = pi^-1) as in the kernel,
        filled from the last position back; l(w) > positions left is void.
        """
        desc, length = self._desc, self._len
        start = self._id(self.inverse(pi))
        layers = [{start}]  # the live states per position
        for p, s in enumerate(letters):
            nxt = {self._times(w, s) for w in layers[-1] if desc[w] >> s & 1} | layers[-1]
            layers.append({w for w in nxt if length[w] < len(letters) - p})
        h = {0: (1,)} if 0 in layers[-1] else {}
        for p in range(len(letters) - 1, -1, -1):
            s, below, h = letters[p], h, {}
            for w in layers[p]:
                link = below.get(w)
                if not desc[w] >> s & 1:
                    if link is not None:
                        h[w] = link + (0,)
                elif (rest := below.get(self._right[w][s])) is not None:
                    h[w] = rest if link is None else tuple(map(sum, zip(rest, (0,) + link)))
        return h.get(start)

    def contains_reduced(self, word: Iterable[int], pi: GroupElement) -> bool:
        """True iff some subword of word is a reduced word of pi.

        That holds iff pi <= Dem(word) in Bruhat order (Knutson-Miller,
        Subword complexes in Coxeter groups, 2004, section 3), so no
        subword is searched.
        """
        dem = self._elements[self._demazure(self._letters(word))]
        return self.bruhat_le(pi, dem)

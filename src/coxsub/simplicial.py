"""Labeled simplicial complexes with bitset faces.

A complex carries an ordered tuple of distinct vertex labels and its
facets as bitmasks over that order, bit k for vertex k, held in Python
ints.  Inside the library the labels are integers, the word positions of
a subword complex or 0..n-1; names for a reader are applied only where a
summary is written.  Its f, h and gamma are read off the h-vector it is
made with (``subword.PositionComplex`` passes the vertex decomposition's);
no face is counted.  Complexes compare by identity.  Two degenerate
complexes are distinguished on purpose:

  * the void complex has no faces at all: no facets, no empty face;
  * the complex {()} has the single facet (), i.e. only the empty face.

The void complex arises when a word contains no reduced expression of
the target element, the second when the word itself is one.  Counting
conventions: a complex with facets of size n has dimension n - 1,
f-vector (f_0, .., f_{n-1}), h-vector (h_0, .., h_n) defined through
sum_i f_{i-1} (s-1)^{n-i} = sum_k h_k s^{n-k}, homogenized as
H(a, t) = sum_k h_k a^k t^{n-k}.  For palindromic h this peels into
H = sum_k gamma_k (at)^k (a+t)^{n-2k}, the gamma vector.
"""

from __future__ import annotations

from functools import cache
from math import comb
from operator import index as _int
from typing import Collection, Hashable, Iterable, Sequence

from .coxeter import MAX_WORD_LETTERS as MAX_VERTICES

Label = Hashable

# Past this many facets a subword complex is not built, and past this many
# nodes is_flag's clique search stops.  A move lists window parts, at most
# 2^m per complex for m window letters, and refuses past MAX_WINDOW_PARTS.
MAX_FACES = 1 << 22
FACE_LIMIT_ERROR = f"too many facets or flag-search nodes (limit {MAX_FACES})"
MAX_WINDOW_PARTS = 1 << 16
WINDOW_LIMIT_ERROR = f"window enumeration too large (limit {MAX_WINDOW_PARTS} window parts)"


def _label_key(v):
    try:
        return (0, _int(v), "")
    except TypeError:
        return (1, 0, str(v))


def _mask_of(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@cache
def _gamma(h: tuple[int, ...]) -> tuple[int, ...] | None:
    """Gamma vector of an h-vector, None if h is not palindromic; () for the
    void complex's h ().  Made once per h, as complexes share their h."""
    h = list(h)
    if h != h[::-1]:
        return None
    n = len(h) - 1
    out = []
    for k in range(n // 2 + 1):
        c = h[k]
        out.append(c)
        for i in range(k, n - k + 1):
            h[i] -= c * comb(n - 2 * k, i - k)
    assert not any(h), "palindromic peel left a remainder"
    return tuple(out)


class LabeledComplex:
    """Immutable simplicial complex over labeled vertices: its vertices, its
    facets and ``h``, the h-vector it was made with (None if made without
    one, () when void).  It is one record, compared and hashed by identity.

    Invariant: the facets form an antichain (no facet inside another).
    ``from_facets`` prunes to the maximal sets; ``subword.PositionComplex``
    (facets of one size) and ``subdivide`` preserve it.
    """

    __slots__ = ("vertices", "facets", "h", "_cache")

    def __init__(self, vertices: Sequence[Label], facet_masks: Iterable[int],
                 h: tuple[int, ...] | None = None):
        vertices = tuple(vertices)
        if len(vertices) > MAX_VERTICES:
            raise ValueError(f"complexes are limited to {MAX_VERTICES} vertices")
        masks = sorted(set(map(_int, facet_masks)))
        if masks and (masks[0] < 0 or masks[-1] >> len(vertices)):
            raise ValueError("facet mask uses unknown vertices")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "facets", tuple(masks))
        object.__setattr__(self, "h", h)
        # the facts filled on first use: "f", read from h, "sig" (counted by
        # ``_signatures``) and the isomorphism search "plan"
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, *a):  # immutability by convention
        raise AttributeError("LabeledComplex is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_facets(facets: Iterable[Iterable[Label]],
                    vertex_order: Sequence[Label] | None = None) -> "LabeledComplex":
        """Build from facet label sets; prunes non-maximal entries.

        Vertices not on any facet are dropped.  vertex_order fixes the
        order of the kept labels; by default they are sorted.
        """
        fsets = [frozenset(f) for f in facets]
        maximal = [f for f in fsets if not any(f < g for g in fsets)]
        used: set[Label] = set().union(*maximal) if maximal else set()
        if vertex_order is None:
            vertices = tuple(sorted(used, key=_label_key))
        else:
            vertices = tuple(v for v in vertex_order if v in used)
            if set(vertices) != used:
                raise ValueError("vertex_order is missing labels used by facets")
        index = {v: i for i, v in enumerate(vertices)}
        return LabeledComplex(vertices, {_mask_of(index[v] for v in f) for f in maximal})

    @staticmethod
    def void() -> "LabeledComplex":
        return LabeledComplex((), (), ())

    # -- basic queries -----------------------------------------------------

    @property
    def is_void(self) -> bool:
        return len(self.facets) == 0

    @property
    def dim(self) -> int | None:
        """Dimension, or None for the void complex."""
        if self.is_void:
            return None
        return max(f.bit_count() for f in self.facets) - 1

    def __repr__(self) -> str:
        if self.is_void:
            return "LabeledComplex(void)"
        return f"LabeledComplex({len(self.vertices)} vertices, {len(self.facets)} facets)"

    # -- enumerative invariants ---------------------------------------------

    def _h(self) -> tuple[int, ...]:
        if self.h is None:
            raise ValueError("the complex was made without an h-vector")
        return self.h

    def f_vector(self) -> tuple[int, ...]:
        """(f_0, .., f_{dim}) from the h-vector, f_{i-1} = sum_k C(n-k, i-k) h_k;
        empty for the void complex and for {()}.  Made on first use."""
        f = self._cache.get("f")
        if f is None:
            # (f_-1, .., f_dim) are the coefficients of sum_k h_k (t + 1)^(n - k),
            # the highest first: Horner steps in t + 1, each one a Pascal row
            f = [0] * len(self._h())
            for k, c in enumerate(self.h):
                for j in range(k, 0, -1):
                    f[j] += f[j - 1]
                f[k] += c
            f = self._cache["f"] = tuple(f[1:])
        return f

    def h_vector(self) -> tuple[int, ...]:
        h = self._h()
        if not h:
            raise ValueError("the void complex has no h-vector")
        return h

    def gamma(self) -> tuple[int, ...]:
        """Gamma vector of a palindromic h-vector; () for the void complex."""
        g = _gamma(self._h())
        if g is None:
            raise ValueError("h-vector is not palindromic; gamma is undefined")
        return g

    def is_flag(self) -> bool:
        """True iff every clique of the 1-skeleton is a face, that is iff
        every maximal clique is a facet.  A pivoted Bron-Kerbosch search
        (Tomita, Tanaka and Takahashi 2006) lists the maximal cliques and
        stops at the first that is no facet; past MAX_FACES search nodes it
        raises.  Vertices on no facet are ignored; void and {()} are flag."""
        if not self.facets:
            return True
        used = 0
        for f in self.facets:
            used |= f
        adj = []  # the neighbours of each vertex: the union of its facets
        for v in range(used.bit_length()):
            bit, nbrs = 1 << v, 0
            for f in self.facets:
                if f & bit:
                    nbrs |= f
                    if nbrs == used:  # joined to every vertex already
                        break
            adj.append(nbrs & ~bit)
        facets = set(self.facets)
        # (clique, candidates, excluded): the candidates extend the clique,
        # and a clique with an excluded extension was listed before
        stack, nodes = [(0, used, 0)], 0
        while stack:
            clique, cand, done = stack.pop()
            if not cand:
                if not done and clique not in facets:
                    return False
                continue
            nodes += 1
            if nodes > MAX_FACES:
                raise ValueError(FACE_LIMIT_ERROR)
            # the pivot keeps most candidates: only its non-neighbours branch;
            # one that keeps all other candidates leaves at most one, and ends the scan
            best, rest, pool, most = -1, cand, cand | done, cand.bit_count() - 1
            while pool:
                low = pool & -pool
                pool ^= low
                nbrs = adj[low.bit_length() - 1]
                if (keep := (cand & nbrs).bit_count()) > best:
                    best, rest = keep, cand & ~nbrs
                    if keep >= most:
                        break
            while rest:
                low = rest & -rest
                rest ^= low
                nbrs = adj[low.bit_length() - 1]
                stack.append((clique | low, cand & nbrs, done & nbrs))
                cand ^= low
                done |= low
        return True


def subdivide(facets: Collection[int], s: int, t: int,
              fresh: Iterable[int]) -> frozenset | None:
    """Facet masks after the iterated edge subdivision of the edge {s, t}
    (single bits): {s, t} at fresh[0], then {fresh[0], t} at fresh[1], and
    so on.  None when s == t or no facet holds the edge."""
    if s == t or not any(x & s and x & t for x in facets):
        return None
    for r in fresh:
        edge, out = s | t, set()
        for x in facets:
            if x & edge == edge:
                out.update((x ^ s | r, x ^ t | r))
            else:
                out.add(x)
        facets, s = out, r
    return frozenset(facets)


def contractions(y: LabeledComplex):
    """Every way to undo one edge subdivision of y, as (r, s, t, x), the
    first three single bits of y: the facets through r pair up as z|r|s and
    z|r|t, and no facet holds both s and t.  x is y with each such pair
    replaced by z|s|t and r dropped, the vertices above r moving down one;
    subdividing x at the images of s and t gives back y, the fresh vertex
    standing for r."""
    n = len(y.vertices)
    for k in range(n):
        r, low = 1 << k, (1 << k) - 1
        link = {f ^ r for f in y.facets if f & r}
        x0 = min(link, default=0)
        for s in (1 << v for v in _bits(x0)):
            z = x0 ^ s
            for t in {x ^ z for x in link if x & z == z} - {s}:
                st = s | t
                if t & (t - 1) == 0 and all(x & st in (s, t) and x ^ st in link for x in link) \
                        and not any(f & st == st for f in y.facets):
                    kept = [f for f in y.facets if not f & r] + [x | t for x in link if x & s]
                    yield r, s, t, LabeledComplex(range(n - 1),
                                                  (f & low | f >> 1 & ~low for f in kept))


def _signatures(c: LabeledComplex) -> list[tuple[int, ...]]:
    """Per vertex index: the sorted sizes of the facets through it."""
    sig = c._cache.get("sig")
    if sig is None:
        sizes: list[list[int]] = [[] for _ in c.vertices]
        for f in c.facets:
            k = f.bit_count()
            while f:
                low = f & -f
                sizes[low.bit_length() - 1].append(k)
                f ^= low
        sig = c._cache["sig"] = [tuple(sorted(s)) for s in sizes]
    return sig


def iso_invariant(x: LabeledComplex) -> tuple:
    """Facet count and sorted vertex signatures; isomorphic complexes agree."""
    return len(x.facets), tuple(sorted(_signatures(x)))


def is_isomorphic_constrained(x: LabeledComplex, y: LabeledComplex) -> dict | None:
    """Search for a facet-set-preserving vertex bijection x -> y.

    A vertex may only go to a vertex of equal signature, and each facet of
    x is checked as soon as its last vertex in search order is assigned.
    That plan depends on x alone and is cached with it, so a caller testing
    many complexes against one passes that one as x.  Returns the mapping
    of x's vertex labels to y's, or None.
    """
    if x.is_void or y.is_void:
        return {} if (x.is_void and y.is_void) else None
    sig_x, sig_y = _signatures(x), _signatures(y)
    if len(x.facets) != len(y.facets) or sorted(sig_x) != sorted(sig_y):
        return None

    by_sig: dict = {}
    for w, s in enumerate(sig_y):
        by_sig.setdefault(s, []).append(1 << w)
    pools = [by_sig[s] for s in sig_x]
    plan = x._cache.get("plan")  # x's signatures fix it
    if plan is None:
        # rarest signature first; each facet of x, as vertex indices, is
        # due at the search step that assigns its last vertex
        order = sorted(range(len(pools)), key=lambda v: (len(pools[v]), v))
        rank = {v: k for k, v in enumerate(order)}
        due: list[list[tuple[int, ...]]] = [[] for _ in order]
        for f in x.facets:
            if f:
                vs = tuple(_bits(f))
                due[max(rank[u] for u in vs)].append(vs)
        plan = x._cache["plan"] = (order, due)
    order, due = plan
    y_facets = set(y.facets)
    image = [0] * len(order)  # assigned vertex of y, as a bit

    def extend(k: int, used: int) -> bool:
        if k == len(order):
            return True
        v = order[k]
        for bit in pools[v]:
            if used & bit:
                continue
            image[v] = bit
            for f in due[k]:
                mapped = 0
                for u in f:
                    mapped |= image[u]
                if mapped not in y_facets:
                    break
            else:
                if extend(k + 1, used | bit):
                    return True
        return False

    if not extend(0, 0):
        return None
    return {x.vertices[v]: y.vertices[image[v].bit_length() - 1] for v in order}

"""Subword complexes Delta(Q; pi) of a Coxeter system.

The faces of Delta(Q; pi) are the position sets T such that the complement
of T in Q still contains a reduced expression of pi; the facets are exactly
the complements of reduced expressions.  The 0-based word positions are
the vertex candidates: two positions are distinct vertices even when they
carry the same letter.  A position in no facet is not a vertex and is
dropped; only a summary names the others (``complex_summary``).

The vertex decomposition gives the h-vector (and f and gamma) and the
facets, each by a backward pass over the live states that one forward
pass lists (see ``_kernels``).  No face is listed: a braid move reads the
faces of its complexes off the Demazure criterion (``braid.OuterTable``).
One Demazure fold bounds that pass and tells void complexes and spheres.
An entry made without facets runs the h pass alone and holds h, voidness
and sphericity: a move reads only the h of its windows shortened by two.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import NamedTuple

from . import _kernels
from .backend import active as _K
from .coxeter import CoxeterSystem, GroupElement, Word
from .simplicial import FACE_LIMIT_ERROR, MAX_FACES, MAX_VERTICES, LabeledComplex


class SubwordDescriptor(NamedTuple("SubwordDescriptor", [("system", CoxeterSystem),
                                                         ("word", Word), ("pi", GroupElement)])):
    """A word in the generators together with a target group element."""

    __slots__ = ()

    def __new__(cls, system: CoxeterSystem, word: Word, pi: GroupElement):
        return super().__new__(cls, system, system.check_word(word), pi)


class PositionComplex:
    """Delta(word; pi) with the used 0-based word positions as vertices.

    It is made once per (word, pi) and memo from one forward pass: its
    h-vector (``()`` when void), sphericity and, with ``facets``, its
    facets at once; the layers of that pass are dropped.  ``complex`` is
    the one complex of the pair that every caller reads; it and
    ``word_facets`` are None in an entry made without ``facets``.
    """

    __slots__ = ("complex", "spherical", "word_facets", "h")

    def __init__(self, system: CoxeterSystem, word: Word, pi: GroupElement, facets: bool = True):
        letters, le = tuple(s - 1 for s in word), system._le
        # one Demazure fold, of the reversed word, lists Dem(word[p:])^-1 (the
        # last p first) to bound the forward pass.  By the Demazure criterion
        # the complex is a sphere iff Dem(word) = pi and void iff pi is not
        # below Dem(word) (Knutson-Miller, section 3), both read inverted
        tops, start = system._demazures(reversed(letters)), system._inv(system._id(pi))
        self.spherical = tops[-1] == start
        self.h, self.word_facets, self.complex = (), None, None
        if not le(start, tops[-1]):
            if facets:
                self.word_facets, self.complex = [], LabeledComplex.void()
            return
        layers = _kernels.subword_layers(system._times, system._desc, le, letters, start, tops)
        tables = system._right, system._desc, letters, layers
        # h first, its |word| - l(pi) + 1 coefficients: it sums to the facet
        # count, which bounds the facet pass
        self.h = h = _kernels.subword_h(*tables)[:len(word) - system._len[start] + 1]
        if not facets:
            return
        if sum(h) > MAX_FACES:
            raise ValueError(FACE_LIMIT_ERROR)
        # every facet as a mask over word positions, bit p for position p
        self.word_facets = facets = _K.reduced_subword_masks(*tables)
        used, packed = reduce(or_, facets), facets
        # squeeze out the positions in no facet, the highest first; every
        # facet has |word| - l(pi) positions, so they form an antichain
        for p in range(len(word) - 1, -1, -1):
            if not used >> p & 1:
                packed = [f & ((1 << p) - 1) | f >> (p + 1) << p for f in packed]
        self.complex = LabeledComplex([p for p in range(len(word)) if used >> p & 1], packed, h)


def position_complex(system: CoxeterSystem, word: Word, pi: GroupElement,
                     memo: dict, facets: bool = True) -> PositionComplex:
    """The entry of ``memo`` for (word, pi), made on first request, and made
    again with facets when they are asked for and it has none; the word
    must be checked (``CoxeterSystem.check_word``).

    A memo is a plain dict over one system that a computation which
    builds the same words again (an order, a chain of moves) creates and
    passes to all its builds; it lives as long as that computation.
    """
    key = (word, pi)
    entry = memo.get(key)
    if entry is None or facets and entry.complex is None:
        entry = memo[key] = PositionComplex(system, word, pi, facets)
    return entry


def build(d: SubwordDescriptor, memo: dict | None = None) -> LabeledComplex:
    """The subword complex of ``d`` over its used 0-based word positions,
    VOID when no reduced expression fits: the complex of the entry of
    ``memo`` (see ``position_complex``), of a fresh one without a memo."""
    return position_complex(d.system, d.word, d.pi, {} if memo is None else memo).complex


def _byte_rows() -> list[list[tuple[int, ...]]]:
    """Per byte offset o, the indices of the set bits of each byte value
    b placed at bits 8o..8o+7, ascending: row b is row b - 2^k plus 8o + k
    for the top bit k of b."""
    tables = []
    for o in range(0, MAX_VERTICES, 8):
        rows = [()]
        for k in range(o, o + 8):
            rows += [r + (k,) for r in rows]
        tables.append(rows)
    return tables


_BYTE_ROWS = _byte_rows()


def complex_summary(x: LabeledComplex, names) -> dict:
    """JSON-ready vertices, named ``names[v]`` for vertex v, facets (indices
    into the vertices), f and h; each facet's indices are read a byte at a
    time from ``_BYTE_ROWS``."""
    facets = []
    for f in x.facets:
        row, o = [], 0
        while f:
            row += _BYTE_ROWS[o][f & 255]
            f >>= 8
            o += 1
        facets.append(row)
    facets.sort()
    return {
        "vertices": [str(names[v]) for v in x.vertices],
        "facets": facets,
        "f_vector": list(x.f_vector()),
        "h_vector": None if x.is_void else list(x.h_vector()),
    }


def complex_json(d: SubwordDescriptor) -> dict:
    """JSON-ready summary of the complex of ``d``, position p named p + 1
    (see ``complex_summary``)."""
    entry = position_complex(d.system, d.word, d.pi, {})
    x, spherical = entry.complex, entry.spherical
    gamma = list(x.gamma()) if spherical else None
    return dict(complex_summary(x, range(1, len(d.word) + 1)), word=list(d.word),
                spherical=spherical, flag=x.is_flag(), gamma=gamma)

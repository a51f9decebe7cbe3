"""Subword complexes Delta(Q; pi) of a Coxeter system.

The faces of Delta(Q; pi) are the position sets T such that the complement
of T in Q still contains a reduced expression of pi; the facets are exactly
the complements of reduced expressions.  The 0-based word positions are
the vertex candidates: two positions are distinct vertices even when they
carry the same letter.  A position in no facet is not a vertex and is
dropped; only a summary names the others (``complex_summary``).

The vertex decomposition gives the h-vector (and f and gamma), which one
forward pass carries with the live states it lists, and the facets, by a
backward pass over those states (see ``_kernels``); one Demazure fold
bounds the forward pass and tells void complexes and spheres.  A braid
move makes the entries of its sides from one cut at its window instead,
and reads the faces of its complexes off the Demazure criterion
(``braid.OuterTable``): no face is listed, and no entry holds h alone.
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

    Made once per (word, pi) and memo, or ``made`` by a braid move's cut
    (``braid.MoveFacts``): sphericity, h (``()`` when void) and facets.  The
    forward pass carries h to the identity after the word, slots of
    |word| + 1 bits; the facet pass folds back over its layers.  ``complex``
    holds h and the facets, packed over its vertices; every caller reads it.
    """

    __slots__ = ("complex", "spherical")

    def __init__(self, system: CoxeterSystem, word: Word, pi: GroupElement,
                 made: tuple | None = None):
        if made is None:
            letters, le = tuple(s - 1 for s in word), system._le
            # one Demazure fold lists Dem(word[p:])^-1 (the last p first) to
            # bound the forward pass; the complex is a sphere iff Dem(word) =
            # pi and void iff pi is not below it (Knutson-Miller, section 3)
            tops, start = system._demazures(reversed(letters)), system._inv(system._id(pi))
            h, facets, b = (), [], len(word) + 1
            if le(start, tops[-1]):
                layers = _kernels.subword_layers(system._times, system._desc, le, letters,
                                                 reversed(tops[:-1]), b, {start: 1})[0]
                # h first: it sums to the facet count, which bounds the facet pass
                h = _kernels.unpack_h(layers[-1][0], b, b - system._len[start])
                if sum(h) > MAX_FACES:
                    raise ValueError(FACE_LIMIT_ERROR)
                facets = _K.reduced_subword_masks(system._right, system._desc, letters, layers)
            made = tops[-1] == start, h, facets
        self.spherical, h, facets = made
        n = len(word)
        if not facets:
            self.complex = LabeledComplex.void()
            return
        used, packed = reduce(or_, facets), facets
        gap = ~used & (1 << n) - 1
        # squeeze out each run of positions in no facet, the highest first;
        # every facet has |word| - l(pi) positions, so they form an antichain
        while gap:
            top, low = gap.bit_length(), (used & (1 << gap.bit_length()) - 1).bit_length()
            packed = [f & (1 << low) - 1 | f >> top << low for f in packed]
            gap &= (1 << low) - 1
        self.complex = LabeledComplex([p for p in range(n) if used >> p & 1], packed, h)


def position_complex(system: CoxeterSystem, word: Word, pi: GroupElement,
                     memo: dict) -> PositionComplex:
    """The entry of ``memo`` for (word, pi), made on first request; the word
    must be checked (``CoxeterSystem.check_word``).

    A memo is a plain dict over one system that a computation which
    builds the same words again (an order, a chain of moves) creates and
    passes to all its builds; it lives as long as that computation.
    """
    key = (word, pi)
    entry = memo.get(key)
    if entry is None:
        entry = memo[key] = PositionComplex(system, word, pi)
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

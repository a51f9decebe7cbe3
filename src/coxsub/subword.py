"""Subword complexes Delta(Q; pi) of a Coxeter system.

The faces of Delta(Q; pi) are the position sets T such that the complement
of T in Q still contains a reduced expression of pi; the facets are exactly
the complements of reduced expressions.  Positions are the vertex
candidates: two positions are distinct vertices even when they carry the
same letter.  A position that lies in no facet is not a vertex of the
complex and is dropped from its vertex set.

The facets come from the reduced-subword kernel; the h-vector, and from
it f and gamma, from the vertex decomposition (``CoxeterSystem._subword_h``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from .coxeter import CoxeterSystem, GroupElement, Word
from .simplicial import LabeledComplex, scatter_bits


@dataclass(frozen=True)
class SubwordDescriptor:
    """A word in the generators together with a target group element.

    ``labels`` names the positions of ``word``; the default is 1-based
    position numbers.  Labels must be pairwise distinct and hashable.
    """

    system: CoxeterSystem
    word: Word
    pi: GroupElement
    labels: tuple = ()

    def __post_init__(self):
        word = self.system.check_word(self.word)
        object.__setattr__(self, "word", word)
        labels = tuple(self.labels) if self.labels else tuple(range(1, len(word) + 1))
        if len(labels) != len(word):
            raise ValueError("need exactly one label per position")
        if len(set(labels)) != len(labels):
            raise ValueError("position labels must be pairwise distinct")
        object.__setattr__(self, "labels", labels)

    def position_of(self, label) -> int:
        """0-based position carrying the given label."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown position label {label!r}") from None


class PositionComplex:
    """Delta(word; pi) with the used 0-based word positions as vertices.

    It is made once per (word, pi) and memo, with its facets, h- and
    f-vector and sphericity.  Every labeled complex of the pair is a
    relabel of it, sharing these and the faces and gamma computed later.
    """

    __slots__ = ("complex", "spherical", "word_facets", "_word_faces")

    def __init__(self, system: CoxeterSystem, word: Word, pi: GroupElement):
        self._word_faces = None
        letters = tuple(s - 1 for s in word)
        # Demazure criterion: the complex is a sphere iff Dem(word) = pi
        self.spherical = system._demazure(letters) == system._id(pi)
        full = (1 << len(word)) - 1
        # every facet as a mask over word positions, bit p for position p
        self.word_facets = facets = [full ^ mk for mk in system._subword_masks(letters, pi)]
        if not facets:
            self.complex = LabeledComplex.void()
            return
        used = reduce(or_, facets)
        # compress to the used positions, bit p to the number of used ones
        # below it; every facet has |word| - l(pi) positions, so the facets
        # form an antichain as they are
        packed = scatter_bits(facets, [(used & ((1 << p) - 1)).bit_count()
                                       for p in range(len(word))])
        self.complex = LabeledComplex([p for p in range(len(word)) if used >> p & 1], packed)
        self.complex._know_h(system._subword_h(letters, pi))

    @property
    def word_faces(self) -> tuple[int, ...]:
        """Every face as a mask over word positions, bit p for position p."""
        if self._word_faces is None:
            x = self.complex
            self._word_faces = tuple(scatter_bits(x.faces_masks(), x.vertices))
        return self._word_faces

    def relabel(self, labels) -> LabeledComplex:
        """The complex with word position p named ``labels[p]``."""
        return self.complex.relabel([labels[p] for p in self.complex.vertices])


def position_complex(system: CoxeterSystem, word: Word, pi: GroupElement,
                     memo: dict) -> PositionComplex:
    """The entry of ``memo`` for (word, pi), made on first request; the
    word must be checked (``CoxeterSystem.check_word``).

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
    """The subword complex of ``d``, VOID when no reduced expression fits.

    Without a memo the complex is made afresh; with one it is a relabel of
    the memo's position complex (see ``position_complex``).
    """
    entry = position_complex(d.system, d.word, d.pi, {} if memo is None else memo)
    return entry.relabel(d.labels)


def is_face(d: SubwordDescriptor, face) -> bool:
    """Whether the label set ``face`` is a face of the subword complex.

    Works directly from the definition, so it does not require building
    the whole complex; unknown labels raise.
    """
    drop = {d.position_of(lab) for lab in face}
    rest = tuple(d.word[p] for p in range(len(d.word)) if p not in drop)
    return d.system.contains_reduced(rest, d.pi)


def is_spherical(d: SubwordDescriptor) -> bool:
    """Demazure criterion: the complex is a sphere iff dem(Q) = pi."""
    return d.system.demazure_product(d.word) == d.pi


def link_oracle_check(d: SubwordDescriptor, face) -> bool:
    """Compare Lk(face) against the complex of the word with ``face`` deleted.

    The two complexes share their labels, so the comparison is literal
    face-set equality.  Raises when ``face`` is not a face.
    """
    x = build(d)
    face = tuple(face)
    drop = {d.position_of(lab) for lab in face}
    if not x.has_face(face):
        raise ValueError(f"{face!r} is not a face")
    keep = [p for p in range(len(d.word)) if p not in drop]
    shortened = SubwordDescriptor(
        d.system,
        tuple(d.word[p] for p in keep),
        d.pi,
        labels=tuple(d.labels[p] for p in keep),
    )
    return x.link(face) == build(shortened)


def complex_summary(x: LabeledComplex) -> dict:
    """JSON-ready vertices, facets (indices into the vertices), f and h."""
    n = len(x.vertices)
    return {
        "vertices": [str(v) for v in x.vertices],
        "facets": sorted([k for k in range(n) if f >> k & 1] for f in x.facets),
        "f_vector": list(x.f_vector()),
        "h_vector": None if x.is_void else list(x.h_vector()),
    }


def complex_json(d: SubwordDescriptor) -> dict:
    """JSON-ready summary of the complex of ``d`` (see ``complex_summary``)."""
    memo: dict = {}
    x, spherical = build(d, memo), position_complex(d.system, d.word, d.pi, memo).spherical
    gamma = list(x.gamma().coeffs) if spherical and not x.is_void else None
    return dict(complex_summary(x), word=list(d.word), spherical=spherical,
                flag=x.is_flag(), gamma=gamma)

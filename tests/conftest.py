"""Shared builders for the test suite: cached small systems, brute-force
subword oracles, label-set oracles on complexes, and seeded random
context/complex generators."""

from __future__ import annotations

import itertools
import random

from coxsub.braid import BraidContext, MoveFacts
from coxsub.coxeter import CoxeterMatrix, CoxeterSystem
from coxsub.simplicial import LabeledComplex
from coxsub.subword import SubwordDescriptor, build

_SYSTEMS: dict = {}


def system(name: str) -> CoxeterSystem:
    if name not in _SYSTEMS:
        _SYSTEMS[name] = CoxeterSystem(CoxeterMatrix.named(name))
    return _SYSTEMS[name]


def brute_facets(sys_, word, pi):
    """Facet label sets by scanning all 2^len(word) complements."""
    word = tuple(word)
    faces = []
    for mask in range(1 << len(word)):
        kept = [word[p] for p in range(len(word)) if not mask >> p & 1]
        if sys_.is_reduced(kept) and sys_.element_of(kept) == pi:
            faces.append(frozenset(p + 1 for p in range(len(word)) if mask >> p & 1))
    return {f for f in faces if not any(f < g for g in faces)}


def brute_is_face(sys_, word, pi, positions) -> bool:
    word = tuple(word)
    rest = [word[p] for p in range(len(word)) if p + 1 not in set(positions)]
    target = sys_.length(pi)
    for take in itertools.combinations(range(len(rest)), target):
        sub = [rest[t] for t in take]
        if sys_.is_reduced(sub) and sys_.element_of(sub) == pi:
            return True
    return False


def random_pi(sys_, rng: random.Random, word):
    """Element of a random subword: keeps instances away from the void case."""
    kept = [a for a in word if rng.random() < 0.6]
    return sys_.demazure_product(kept)


def random_descriptor(rng: random.Random, names=("A2", "A3", "B3"),
                      max_len: int = 9) -> SubwordDescriptor:
    sys_ = system(rng.choice(names))
    n = rng.randrange(1, max_len + 1)
    word = tuple(rng.randrange(1, sys_.rank + 1) for _ in range(n))
    return SubwordDescriptor(sys_, word, random_pi(sys_, rng, word))


def random_context(rng: random.Random, names=("A3", "B3", "H3"),
                   max_side: int = 6) -> BraidContext:
    """Random braid-move context; pi mixes the spherical and general cases."""
    sys_ = system(rng.choice(names))
    while True:
        i = rng.randrange(1, sys_.rank + 1)
        j = rng.randrange(1, sys_.rank + 1)
        if i == j:
            continue
        m = int(sys_.m[i - 1, j - 1])
        nq = rng.randrange(0, max_side + 1)
        nqp = rng.randrange(0, max_side + 1 - nq)
        Q = tuple(rng.randrange(1, sys_.rank + 1) for _ in range(nq))
        Qp = tuple(rng.randrange(1, sys_.rank + 1) for _ in range(nqp))
        window = tuple(i if t % 2 == 0 else j for t in range(m))
        full = Q + window + Qp
        if rng.random() < 0.5:
            pi = sys_.demazure_product(full)
        else:
            pi = random_pi(sys_, rng, full)
        if sys_.length(pi) == 0:
            continue
        return BraidContext(sys_, Q, Qp, i, j, pi)


def spherical_complex(rng: random.Random, names=("A2", "A3", "B3"),
                      max_len: int = 9):
    """Random non-void spherical subword complex and its descriptor."""
    while True:
        sys_ = system(rng.choice(names))
        n = rng.randrange(2, max_len + 1)
        word = tuple(rng.randrange(1, sys_.rank + 1) for _ in range(n))
        pi = sys_.demazure_product(word)
        if sys_.length(pi) == 0:
            continue
        d = SubwordDescriptor(sys_, word, pi)
        x = build(d)
        if not x.is_void:
            return d, x


# -- label-set oracles on complexes ---------------------------------------------


def face_label_sets(x: LabeledComplex) -> frozenset[frozenset]:
    """Every face of x as a set of vertex labels."""
    return frozenset(frozenset(x.vertices[i] for i in range(len(x.vertices)) if m >> i & 1)
                     for m in x.faces_masks())


def has_face(x: LabeledComplex, labels) -> bool:
    """Whether the labels span a face of x; unknown labels span none."""
    face = frozenset(labels)
    return face <= set(x.vertices) and any(face <= f for f in x.facet_label_sets())


def link(x: LabeledComplex, face) -> LabeledComplex:
    """Lk(face): the facets through the face, with the face removed."""
    face = frozenset(face)
    if not has_face(x, face):
        raise ValueError(f"{sorted(face, key=str)!r} is not a face")
    return LabeledComplex.from_facets([f - face for f in x.facet_label_sets() if face <= f],
                                      vertex_order=x.vertices)


def k_subdivide(x: LabeledComplex, edge, k: int, fresh) -> LabeledComplex:
    """Iterated edge subdivision on label sets: the edge (s, t) is
    ordered, and the i-th step subdivides {r_(i-1), t} at the new vertex
    r_i, starting from r_0 = s; fresh supplies r_1..r_k, appended to the
    vertex order in turn."""
    s, t = edge
    if len(fresh) != k:
        raise ValueError("need exactly k fresh labels")
    if s == t or not has_face(x, edge):
        raise ValueError(f"{edge!r} is not an edge")
    facets = x.facet_label_sets()
    for r in fresh:
        e = frozenset((s, t))
        facets = [g for f in facets
                  for g in ((f - {s} | {r}, f - {t} | {r}) if e <= f else (f,))]
        s = r
    return LabeledComplex.from_facets(facets, vertex_order=x.vertices + tuple(fresh))


def link_oracle_check(d: SubwordDescriptor, face) -> bool:
    """Compare Lk(face) against the complex of the word with ``face``
    deleted (Knutson-Miller 2004).  The two complexes share their labels,
    so the comparison is literal face-set equality.  Raises when ``face``
    is not a face."""
    x = build(d)
    drop = {d.labels.index(lab) for lab in face}
    keep = [p for p in range(len(d.word)) if p not in drop]
    shortened = SubwordDescriptor(d.system, tuple(d.word[p] for p in keep), d.pi,
                                  labels=tuple(d.labels[p] for p in keep))
    return link(x, face) == build(shortened)


def check_A3B3_edges(f: MoveFacts) -> bool:
    """No window edge skips a slot when both length-3 window conditions
    hold and m > 3: {f_k, f_l} with f_k internal requires |k - l| = 1."""
    m, q = f.m, f.q
    if m <= 3:
        raise ValueError("needs m > 3")
    if not f.supported:  # for m > 3: both length-3 window conditions
        raise ValueError("needs both length-3 window conditions")
    # the universe bits of window slots 1..m on each side (slot[0] unused)
    slots1 = [0] + [1 << (q + l - 1) for l in range(1, m + 1)]
    slots2 = [0, slots1[m]] + [1 << (f.L + l - 2) for l in range(2, m)] + [slots1[1]]
    for faces, slot in ((f.faces[0], slots1), (f.faces[1], slots2)):
        if any(slot[k] | slot[l] in faces
               for k in range(2, m) for l in range(1, m + 1) if abs(k - l) > 1):
            return False
    return True

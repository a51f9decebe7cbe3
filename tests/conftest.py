"""Shared builders for the test suite: cached small systems, brute-force
subword oracles, label-set oracles on complexes and on a move's shared
namespace, and seeded random context/complex generators.  The library's
complexes have word positions as vertices; ``named`` gives a label-level
copy for the oracles to compare.  ``float_root_system`` is the floating-
point root orbit against which the exact root system is checked."""

from __future__ import annotations

import itertools
import random
from math import cos, pi as PI

from coxsub import _kernels, backend
from coxsub.braid import BraidContext, MoveFacts
from coxsub.coxeter import CoxeterMatrix, CoxeterSystem
from coxsub.simplicial import LabeledComplex
from coxsub.subword import SubwordDescriptor, build

_SYSTEMS: dict = {}


def system(name: str) -> CoxeterSystem:
    if name not in _SYSTEMS:
        _SYSTEMS[name] = CoxeterSystem(CoxeterMatrix.named(name))
    return _SYSTEMS[name]


def float_root_system(m: dict, n: int) -> tuple[list[bool], list[list[int]]]:
    """(negative, reflect) of the finite system with Coxeter matrix m, from
    the float orbit of the simple roots under B(a_i, a_j) = -cos(pi/m_ij),
    orbit points looked up by their coordinates rounded to 6 decimals, the
    simple roots first; reflect[b][c] indexes s_beta(gamma).  Each s must
    permute the roots and send alpha_s alone of the positive roots to a
    negative one."""
    gram = [[-cos(PI / m[i, j]) for j in range(n)] for i in range(n)]
    coords = [tuple(float(i == j) for j in range(n)) for i in range(n)]
    seen = {v: k for k, v in enumerate(coords)}
    perm: list[list[int]] = [[] for _ in range(n)]  # perm[s][r]: index of s(root r)
    parent: list[tuple[int, int]] = []  # root n + k is s(root r) for parent[k] = (r, s)
    for r, beta in enumerate(coords):
        for s in range(n):
            image = list(beta)
            image[s] -= 2.0 * sum(g * b for g, b in zip(gram[s], beta))
            k = seen.setdefault(tuple(round(x, 6) for x in image), len(coords))
            if k == len(coords):
                coords.append(tuple(image))
                parent.append((r, s))
            perm[s].append(k)
    size = len(coords)
    negative = [sum(v) < 0 for v in coords]
    for s, flips in enumerate(perm):
        assert sorted(flips) == list(range(size))
        assert [c for c in range(size) if negative[flips[c]] and not negative[c]] == [s]
    reflect = perm[:]  # s_beta for beta = s(gamma) is s s_gamma s
    for r, s in parent:
        flips, row = perm[s], reflect[r]
        reflect.append([flips[row[flips[c]]] for c in range(size)])
    return negative, reflect


def roots_match_float_orbit(cm: CoxeterMatrix) -> bool:
    """Whether the exact root system of cm is the float orbit's up to the
    order of the roots: the relabelling is forced, simple root to simple
    root and s(beta) to s of the image of beta, and must carry every
    reflection, and negative roots, onto the exact ones."""
    negative, reflect = float_root_system(cm.m, cm.rank)
    if len(reflect) != len(cm.reflect):
        return False
    to, queue = {s: s for s in range(cm.rank)}, list(range(cm.rank))
    for r in queue:
        for s in range(cm.rank):
            a, b = reflect[s][r], cm.reflect[s][to[r]]
            if a not in to:
                to[a] = b
                queue.append(a)
            elif to[a] != b:
                return False
    half = len(cm.reflect) // 2
    return (sorted(to.values()) == list(range(len(reflect)))
            and all(negative[b] == (to[b] >= half) for b in to)
            and all(cm.reflect[to[b]][to[c]] == to[reflect[b][c]] for b in to for c in to))


def braid_step(sys_, word, pos: int):
    """The word after the braid move at 1-based ``pos``, read off
    ``_braid_moves``; raises unless exactly one move starts there."""
    (nxt,) = [move[4] for move in sys_._braid_moves(tuple(word)) if move[0] == pos]
    return nxt


def run_masks(sys_, word, pi):
    """The facet kernel called directly, on the tables and forward layers
    of sys_: the complement masks of the reduced words of pi in word, []
    for a void pair, whose start state the kernel does not take."""
    if not sys_.contains_reduced(word, pi):
        return []
    letters = tuple(a - 1 for a in word)
    layers = sys_._subword_layers(letters, sys_._id(sys_.inverse(pi)))
    return backend.active.reduced_subword_masks(sys_._right, sys_._desc, letters, layers)


def face_passes(monkeypatch) -> list:
    """Record the (letters, start) of every face pass from now on."""
    seen = []
    kernel = _kernels.subword_faces

    def counted(right, desc, word, layers):
        (start,) = layers[0]
        seen.append((word, start))
        return kernel(right, desc, word, layers)

    monkeypatch.setattr(_kernels, "subword_faces", counted)
    return seen


def forward_passes(monkeypatch) -> list:
    """Record the (letters, start) of every forward pass of the subword DP
    from now on."""
    seen = []
    layers = CoxeterSystem._subword_layers

    def counted(self, letters, start):
        seen.append((letters, start))
        return layers(self, letters, start)

    monkeypatch.setattr(CoxeterSystem, "_subword_layers", counted)
    return seen


def brute_facets(sys_, word, pi):
    """Facet label sets by scanning all 2^len(word) complements."""
    word = tuple(word)
    faces = []
    for mask in range(1 << len(word)):
        kept = [word[p] for p in range(len(word)) if not mask >> p & 1]
        if sys_.is_reduced(kept) and sys_.element_of(kept) == pi:
            faces.append(frozenset(p + 1 for p in range(len(word)) if mask >> p & 1))
    return {f for f in faces if not any(f < g for g in faces)}


def subword_h_oracle(sys_, word, pi):
    """h-vector of Delta(word; pi), None when void, by the vertex
    decomposition at the first position (Knutson-Miller 2004, section 2):
    for Q = (s, Q'), h(Q; pi) = h(Q'; s pi) + t h(Q'; pi) when s is a left
    descent of pi, else h(Q'; pi) with a trailing 0 (a cone point).
    States are (position, w = pi^-1 u) as in the library, held as plain
    sets and filled from the last position back; l(w) > positions left
    is void."""
    letters = tuple(a - 1 for a in word)
    desc, length = sys_._desc, sys_._len
    start = sys_._id(sys_.inverse(pi))
    layers = [{start}]  # the live states per position
    for p, s in enumerate(letters):
        nxt = {sys_._times(w, s) for w in layers[-1] if desc[w] >> s & 1} | layers[-1]
        layers.append({w for w in nxt if length[w] < len(letters) - p})
    h = {0: (1,)} if 0 in layers[-1] else {}
    for p in range(len(letters) - 1, -1, -1):
        s, below, h = letters[p], h, {}
        for w in layers[p]:
            link = below.get(w)
            if not desc[w] >> s & 1:
                if link is not None:
                    h[w] = link + (0,)
            elif (rest := below.get(sys_._times(w, s))) is not None:
                h[w] = rest if link is None else tuple(map(sum, zip(rest, (0,) + link)))
    return h.get(start)


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


def oracle_case(sys_, rng: random.Random, word, kind: int):
    """(word, pi) of kind 0: pi = w0, mostly void; 1: a reduced subword's
    element, the subword kept whole, the complex {()}; 2: pi = Dem(word),
    a sphere; 3 and 4: the element of a random subword."""
    if kind == 0:
        return word, sys_.longest_element()
    if kind == 1:
        word = sys_.word_of(sys_.element_of(a for a in word if rng.random() < 0.5))
        return word, sys_.element_of(word)
    if kind == 2:
        return word, sys_.demazure_product(word)
    return word, random_pi(sys_, rng, word)


def random_descriptor(rng: random.Random, names=("A2", "A3", "B3"),
                      max_len: int = 9, min_len: int = 1) -> SubwordDescriptor:
    sys_ = system(rng.choice(names))
    n = rng.randrange(min_len, max_len + 1)
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


def named(x: LabeledComplex, names) -> LabeledComplex:
    """The complex x with vertex v named ``names[v]``, built afresh from label sets."""
    return LabeledComplex.from_facets([{names[v] for v in f} for f in x.facet_label_sets()],
                                      vertex_order=[names[v] for v in x.vertices])


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
    """Compare Lk(face) against the complex of the word with ``face``, a
    set of word positions, deleted (Knutson-Miller 2004).  The shortened
    word's complex is named back to the positions it keeps, so the
    comparison is literal face-set equality.  Raises when ``face`` is not
    a face."""
    keep = [p for p in range(len(d.word)) if p not in set(face)]
    shortened = SubwordDescriptor(d.system, tuple(d.word[p] for p in keep), d.pi)
    return link(build(d), face) == named(build(shortened), keep)


# -- the shared namespace of a move, on labels ----------------------------------


def f_label(l: int) -> str:
    return f"f{l}"


def g_label(l: int, m: int) -> str:
    """Side-2 window labels with the crosswise endpoint identification."""
    if l == 1:
        return f_label(m)
    if l == m:
        return f_label(1)
    return f"g{l}"


def word_labels(ctx: BraidContext, window) -> tuple[str, ...]:
    """Labels of the positions of Q, then ``window``, then Q'."""
    return (tuple(f"Q{p}" for p in range(1, len(ctx.Q) + 1)) + tuple(window)
            + tuple(f"Q'{p}" for p in range(1, len(ctx.Qp) + 1)))


def side_descriptor(ctx: BraidContext, side: int) -> tuple[SubwordDescriptor, tuple]:
    """Full-window descriptor of one side and the names of its word
    positions in the shared vertex namespace."""
    m = ctx.m
    lab = f_label if side == 1 else (lambda l: g_label(l, m))
    return (SubwordDescriptor(ctx.system, ctx.side_word(side), ctx.pi),
            word_labels(ctx, (lab(l) for l in range(1, m + 1))))


def check_A3B3_edges(f: MoveFacts) -> bool:
    """No window edge skips a slot when both length-3 window conditions
    hold and m > 3: {f_k, f_l} with f_k internal requires |k - l| = 1."""
    m = f.m
    if m <= 3:
        raise ValueError("needs m > 3")
    if not f.supported:  # for m > 3: both length-3 window conditions
        raise ValueError("needs both length-3 window conditions")
    for faces, lab in zip(f.faces, (f_label, lambda l: g_label(l, m))):
        # the universe bits of window slots 1..m on this side (slot[0] unused)
        slot = [0] + [1 << f.universe.index(lab(l)) for l in range(1, m + 1)]
        if any(slot[k] | slot[l] in faces
               for k in range(2, m) for l in range(1, m + 1) if abs(k - l) > 1):
            return False
    return True

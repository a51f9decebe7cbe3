"""Shared builders for the test suite: cached small systems, brute-force
subword oracles, label-set oracles on complexes and on a move's shared
namespace, and seeded random context/complex generators.  The library's
complexes have word positions as vertices and compare by identity;
``named`` gives a label-level copy for the oracles to compare,
``facet_label_sets`` reads its facets as label sets and ``same_faces`` is
equality of face sets over labels.  ``float_root_system`` is the floating-
point root orbit against which the exact root system is checked,
``flat_move`` the face-by-face move algebra and ``split_faces`` the face
fold split at a window, against which the move's outer table is.
``reference_gap`` is the gap scan that enters every subdivision of every
depth forward in its class table, against which the contraction scan is
checked, ``certify_subdivision`` a reported pair rebuilt as a chain of
checked contractions,
``condition`` a window condition by a Demazure fold of the shortened
word, against which the outer table's rule is, and ``projection_key`` a
move's commutation orbit by the projection lemma, against which the
order's heap key is.  ``subword_pass`` is the generic fold of the subword
DP, against which, with ``fold_h`` and ``fold_facets``, the kernel's
direct passes are checked, ``two_pass_table`` the outer table with each
part's column tested element by element, against which
``braid.OuterTable`` is, and ``check_column_sets`` the checklist run on
each key of ``classify``'s table, one per set of columns.
``per_word_entry`` (the builds word by word) and ``facet_loop_table`` (the
outer table by one pass over a side's facets) are what a move's cut
replaced, and ``check_cut`` compares the cut with them.  The
library reads f, h and gamma off the h of the subword DP alone;
``counted_f`` and ``counted_h`` count them face by face, for complexes
made by hand too, and ``contains_reduced`` tells a void pair by Bruhat
order."""

from __future__ import annotations

import copy
import itertools
import random
from math import comb, cos, pi as PI

from coxsub import _kernels, backend, braid, rhoposet
from coxsub.braid import BraidContext, Family, MoveFacts, classify
from coxsub.coxeter import CoxeterMatrix, CoxeterSystem
from coxsub.rhoposet import GapReport, RhoPoset
from coxsub.simplicial import (LabeledComplex, _bits, contractions, is_isomorphic_constrained,
                               iso_invariant, subdivide)
from coxsub.subword import PositionComplex, SubwordDescriptor, build

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


def face_set(facets) -> set[int]:
    """Every submask of the facet masks, the empty one included, filled by
    ``_kernels.fill_submasks`` itself, not through ``backend.active``."""
    buf: list[int] = []
    _kernels.fill_submasks(list(facets), buf)
    return set(buf)


def contains_reduced(sys_, word, pi) -> bool:
    """True iff some subword of word is a reduced word of pi: iff pi <=
    Dem(word) in Bruhat order (Knutson-Miller, Subword complexes in
    Coxeter groups, 2004, section 3)."""
    return sys_.bruhat_le(pi, sys_.demazure_product(word))


def c_sorting_word(sys_) -> tuple[int, ...]:
    """The c-sorting word of w0 for c = 1..n: the first reduced word of w0
    inside c c c ..., taking each letter that is no right descent of the
    product so far (Reading, Sortable elements and Cambrian lattices, 2007)."""
    w0, g, out = sys_.longest_element(), sys_.identity, []
    while g != w0:
        for s in range(1, sys_.rank + 1):
            if s not in sys_.right_descents(g):
                g = sys_.multiply(g, sys_.generator(s))
                out.append(s)
    return tuple(out)


def braid_step(sys_, word, pos: int):
    """The word after the braid move at 1-based ``pos``, read off
    ``_braid_moves``; raises unless exactly one move starts there."""
    (nxt,) = [move[4] for move in sys_._braid_moves(tuple(word)) if move[0] == pos]
    return nxt


def projection_key(sys_, Q, word, pos: int, Qp) -> tuple:
    """The commutation orbit of the braid move at 1-based ``pos`` of word,
    inside Q + word + Q': its letters i, j and the projections of the
    piece, the window taken as one symbol 0, onto every pair of
    non-commuting symbols.  Two pieces are equivalent exactly when these
    projections agree (the projection lemma of trace monoids); 0 commutes
    with the letters that commute with both i and j."""
    mm, letters = sys_.m, range(1, sys_.rank + 1)
    i, j = word[pos - 1], word[pos]
    m = mm[i - 1, j - 1]
    piece = tuple(Q) + word[:pos - 1] + (0,) + word[pos - 1 + m:] + tuple(Qp)
    pairs = [(a, b) for a in letters for b in letters if a <= b and mm[a - 1, b - 1] != 2]
    pairs += [(0, a) for a in letters if mm[a - 1, i - 1] != 2 or mm[a - 1, j - 1] != 2]
    return (i, j) + tuple(tuple(c for c in piece if c in pair) for pair in pairs)


def forward_layers(sys_, letters, start: int) -> list:
    """The live states of the forward pass of the subword DP
    (``_kernels.subword_layers``) over the tables of sys_, from the live id
    ``start`` of pi^-1, as sets."""
    tops = sys_._demazures(reversed(letters))
    return [set(x) for x in _kernels.subword_layers(sys_._times, sys_._desc, sys_._le, letters,
                                                    reversed(tops[:-1]), 0, {start: 0})[0]]


def run_facets(sys_, word, pi):
    """The facet kernel called directly, on the tables and forward layers
    of sys_: the facets of Delta(word; pi) as masks over word positions, []
    for a void pair, whose start state the kernel does not take."""
    if not contains_reduced(sys_, word, pi):
        return []
    letters = tuple(a - 1 for a in word)
    layers = forward_layers(sys_, letters, sys_._id(sys_.inverse(pi)))
    return backend.active.reduced_subword_masks(sys_._right, sys_._desc, letters, layers)


def condition(ctx: BraidContext, which: str, k: int) -> bool:
    """Window condition: the side word with window shortened by k letters
    contains no reduced expression of pi ("A" = side 1, "B" = side 2), by
    a Demazure fold of that word; ``MoveFacts`` reads it off its outer table."""
    side = {"A": 1, "B": 2}[which]
    return not contains_reduced(ctx.system, ctx.side_word(side, k), ctx.pi)


def face_passes(monkeypatch) -> list:
    """Record from now on, one list per ``MoveFacts`` made (by name through
    ``braid``), "table" for each outer table it builds and "faces" for each
    call of ``backend.active.fill_submasks``, through which a listing of
    faces in the package would have to go."""
    moves: list = []
    facts, table, fill = braid.MoveFacts, braid.OuterTable, backend.active.fill_submasks

    class Counted(facts):
        def __init__(self, *args):
            moves.append([])
            super().__init__(*args)

    class Table(table):
        __slots__ = ()

        def __init__(self, *args):
            moves[-1].append("table")
            super().__init__(*args)

    def counted(facets, out):
        if moves:
            moves[-1].append("faces")
        return fill(facets, out)

    monkeypatch.setattr(braid, "MoveFacts", Counted)
    monkeypatch.setattr(braid, "OuterTable", Table)
    monkeypatch.setattr(backend.active, "fill_submasks", counted)
    return moves


def no_face_listing(monkeypatch) -> None:
    """Make the package's submask fill raise from now on."""
    def refuse(*args):
        raise AssertionError("a face listing in the package")

    monkeypatch.setattr(backend.active, "fill_submasks", refuse)


def forward_passes(monkeypatch) -> list:
    """Record the (letters, starts) of every forward pass of the subword DP
    from now on: a build's, from its one start, or one of a move's cut."""
    seen = []
    layers = _kernels.subword_layers

    def counted(times, desc, le, letters, tops, b, T, *tags):
        seen.append((letters, tuple(T)))
        return layers(times, desc, le, letters, tops, b, T, *tags)

    monkeypatch.setattr(_kernels, "subword_layers", counted)
    return seen


def cut_passes(monkeypatch) -> dict:
    """Record from now on, under "cuts", the (Q, windows, Q', start) of every
    cut of a move (``_kernels.move_cut``) and, under "sides", the (word,
    start) of every side whose facets a cut lists (``_kernels.cut_facets``),
    words 1-based."""
    seen: dict = {"cuts": [], "sides": []}
    cut, lists = _kernels.move_cut, _kernels.cut_facets

    def counted_cut(times, right, desc, le, Q, windows, Qp, start, tops, b):
        seen["cuts"].append((Q, windows, Qp, start))
        return cut(times, right, desc, le, Q, windows, Qp, start, tops, b)

    def counted_lists(right, desc, Q, windows, Qp, made, sides):
        (start,) = made[0][0]  # the first layer of the prefix
        seen["sides"] += [(tuple(s + 1 for s in Q + windows[k] + Qp), start) for k in sides]
        return lists(right, desc, Q, windows, Qp, made, sides)

    monkeypatch.setattr(_kernels, "move_cut", counted_cut)
    monkeypatch.setattr(_kernels, "cut_facets", counted_lists)
    return seen


def subword_pass(right, desc, word, layers, leaf, cone, split):
    """The generic backward fold of the subword DP: the value of the start
    state, which must be live; the identity after the last position, the
    complex {()}, has the value ``leaf``.  With s = word[p], a state w
    without the right descent s is a cone over its link (p + 1, w), of value
    cone(link, p); else it has split(rest, link, p), rest the value of the
    deletion (p + 1, w s), or rest itself when the link is void.  The
    library's passes (``_kernels``) are direct loops; this fold, with the
    callbacks below, is their oracle."""
    vals = {0: leaf}
    for p in range(len(word) - 1, -1, -1):
        s, below, vals = word[p], vals, {}
        for w in layers[p]:
            if not desc[w] >> s & 1:
                vals[w] = cone(below[w], p)
            else:
                rest = below[right[w][s]]
                vals[w] = split(rest, below[w], p) if w in below else rest
    (start,) = layers[0]
    return vals[start]


def fold_h(right, desc, word, layers) -> tuple:
    """The h-vector as a tuple by ``subword_pass``: h(deletion) + t h(link)
    at a descent, else h(link), 0."""
    return subword_pass(right, desc, word, layers, (1,), lambda link, p: link + (0,),
                        lambda rest, link, p: tuple(map(sum, zip(rest, (0,) + link))))


def fold_facets(right, desc, word, layers) -> list:
    """The facets as masks over word positions by ``subword_pass``: at a
    descent the deletion's facets, then the link's plus p; at a cone point
    every facet takes p."""
    return subword_pass(right, desc, word, layers, [0],
                        lambda link, p: [x | 1 << p for x in link],
                        lambda rest, link, p: rest + [x | 1 << p for x in link])


def subword_split_faces(right, desc, word, layers, bits, lo, hi):
    """Every face of the subword DP's start state once, position p as bit
    bits[p], as {window part: frozenset of outer parts} for the window
    lo..hi-1: a window step adds p to keys, which share their outer lists,
    an outer step to outer parts.  A cone point acts as a descent whose
    deletion is its link."""

    def split(rest, link, p):
        b, out = 1 << bits[p], rest.copy()
        if lo <= p < hi:
            for k, v in link.items():
                out[k | b] = v
        else:
            for k, v in link.items():
                out[k] = rest[k] + [x | b for x in v]
        return out

    vals = subword_pass(right, desc, word, layers, {0: [0]},
                                 lambda link, p: split(link, link, p), split)
    return {k: frozenset(v) for k, v in vals.items()}


def split_faces(sys_, word, pi, bits, lo: int, hi: int) -> dict:
    """``subword_split_faces`` of Delta(word; pi) over its own forward pass,
    {} when void."""
    if not contains_reduced(sys_, word, pi):
        return {}
    letters = tuple(a - 1 for a in word)
    layers = forward_layers(sys_, letters, sys_._id(sys_.inverse(pi)))
    return subword_split_faces(sys_._right, sys_._desc, letters, layers, bits, lo, hi)


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


def shortened_void_or_spherical(f: MoveFacts) -> bool:
    """Unless both sides are spheres, true; else whether each word with the
    window shortened by two is void or a sphere, so that its h is
    palindromic and its gamma defined (``braid.polynomial_delta``)."""
    return not all(f.spherical) or all(e.spherical or not e.h for e in f._entries[2:])


def i2_context(m: int) -> BraidContext:
    """The move at position 3 of 1,2 followed by the window of I2(m), pi = w0."""
    sys_ = system(f"I2:{m}")
    return BraidContext(sys_, (1, 2), (), 1, 2, sys_.longest_element())


def oracle_contexts() -> list:
    """Seeded moves over five groups, the dihedral moves I2(m) for m = 3..12
    and a move whose refinement chain is not checked."""
    rng = random.Random(61)
    contexts = [random_context(rng, names=("A3", "B3", "H3", "A4", "D4")) for _ in range(300)]
    contexts += [i2_context(m) for m in range(3, 13)]
    B3 = system("B3")
    return contexts + [BraidContext(B3, (1, 3, 2), (3,), 3, 2, B3.element_of((1, 2)))]


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


def facet_label_sets(x: LabeledComplex) -> tuple[frozenset, ...]:
    """The facets of x as sets of vertex labels, in facet order."""
    return tuple(frozenset(x.vertices[i] for i in _bits(f)) for f in x.facets)


def same_faces(x: LabeledComplex, y: LabeledComplex) -> bool:
    """Equality of x and y as face sets over labels, decided on the facets,
    an antichain in each; vertex order is irrelevant.  The library's
    complexes compare by identity."""
    return set(facet_label_sets(x)) == set(facet_label_sets(y))


def named(x: LabeledComplex, names) -> LabeledComplex:
    """The complex x with vertex v named ``names[v]``, built afresh from label sets."""
    return LabeledComplex.from_facets([{names[v] for v in f} for f in facet_label_sets(x)],
                                      vertex_order=[names[v] for v in x.vertices])


def edge_masks(x: LabeledComplex) -> list[int]:
    """Sorted masks of the edges of x, read from the facets."""
    edges = set()
    for f in x.facets:
        bits = [1 << i for i in _bits(f)]
        edges.update(a | b for k, a in enumerate(bits) for b in bits[k + 1:])
    return sorted(edges)


def face_masks(x: LabeledComplex) -> tuple[int, ...]:
    """Sorted masks of every face of x, the empty face included unless x is void."""
    return tuple(sorted(face_set(x.facets)))


def counted_f(x: LabeledComplex) -> tuple[int, ...]:
    """(f_0, .., f_dim) of x counted face by face; () for void and {()}."""
    faces = face_masks(x)
    counts = [0] * (x.dim + 2 if faces else 1)
    for m in faces:
        counts[m.bit_count()] += 1
    return tuple(counts[1:])


def counted_h(x: LabeledComplex) -> tuple[int, ...]:
    """h-vector of a pure non-void x from its counted f, by the alternating
    sum h_k = sum_i (-1)^(k-i) C(n-i, k-i) f_{i-1}."""
    f, n = (1,) + counted_f(x), x.dim + 1
    return tuple(sum((-1) ** (k - i) * comb(n - i, k - i) * f[i] for i in range(k + 1))
                 for k in range(n + 1))


def face_label_sets(x: LabeledComplex) -> frozenset[frozenset]:
    """Every face of x as a set of vertex labels."""
    return frozenset(frozenset(x.vertices[i] for i in range(len(x.vertices)) if m >> i & 1)
                     for m in face_masks(x))


def has_face(x: LabeledComplex, labels) -> bool:
    """Whether the labels span a face of x; unknown labels span none."""
    face = frozenset(labels)
    return face <= set(x.vertices) and any(face <= f for f in facet_label_sets(x))


def link(x: LabeledComplex, face) -> LabeledComplex:
    """Lk(face): the facets through the face, with the face removed."""
    face = frozenset(face)
    if not has_face(x, face):
        raise ValueError(f"{sorted(face, key=str)!r} is not a face")
    return LabeledComplex.from_facets([f - face for f in facet_label_sets(x) if face <= f],
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
    facets = facet_label_sets(x)
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
    return same_faces(link(build(d), face), named(build(shortened), keep))


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
    for faces, lab in zip((flat_faces(f, x) for x in f.faces),
                          (f_label, lambda l: g_label(l, m))):
        # the universe bits of window slots 1..m on this side (slot[0] unused)
        slot = [0] + [1 << f.universe.index(lab(l)) for l in range(1, m + 1)]
        if any(slot[k] | slot[l] in faces
               for k in range(2, m) for l in range(1, m + 1) if abs(k - l) > 1):
            return False
    return True


# -- the flat move algebra, face by face -----------------------------------------


def two_pass_table(f: MoveFacts) -> tuple[dict, dict]:
    """(labels, parts) of the move's outer table from the Demazure criterion
    alone, the oracle of ``braid.OuterTable``: the heads and the tails of
    side 1's facets walked first, then each outer part's column, the d of
    W_ij with u <= a * d for its pair (a, u), tested d by d rather than read
    from the first rise along a chain.  Asserts that each column is
    chain0[l0:] + chain1[l1:], l0 and l1 its first indices along the two
    window chains, and numbers it bit l0 * (m + 2) + l1."""
    ctx, q, end = f.ctx, f.q, f.q + f.m
    sys_ = ctx.system
    desc, times, le = sys_._desc, sys_._times, sys_._le
    Q, Qp = [s - 1 for s in ctx.Q], [s - 1 for s in ctx.Qp]
    window, low, pi = ((1 << f.m) - 1) << q, (1 << q) - 1, sys_._id(ctx.pi)
    facets = f._entries[0].word_facets
    heads = dict.fromkeys({x & low for x in facets})
    for head in heads:
        a = 0
        for p, s in enumerate(Q):
            if not head >> p & 1 and not desc[a] >> s & 1:
                a = times(a, s)
        heads[head] = a
    tails = dict.fromkeys({x >> end for x in facets})
    for tail in tails:
        u = pi
        for p in range(len(Qp) - 1, -1, -1):
            if not tail >> p & 1 and desc[u] >> Qp[p] & 1:
                u = times(u, Qp[p])
        tails[tail] = u

    def star(a: int, letters) -> int:  # the Demazure product a * Dem(letters)
        for s in letters:
            a = a if desc[a] >> s & 1 else times(a, s)
        return a

    chains = tuple(sys_._demazures(w) for w in f.windows)
    words = {d: w[:l] for w, chain in zip(f.windows, chains) for l, d in enumerate(chain)}
    labels = dict.fromkeys(chains[0] + chains[1], 0)
    parts = dict.fromkeys(x & ~window for x in facets)
    for outer in parts:
        a, u = heads[outer & low], tails[outer >> end]
        column = {d for d, w in words.items() if le(u, star(a, w))}
        l0, l1 = (min(l for l, d in enumerate(chain) if d in column) for chain in chains)
        assert column == set(chains[0][l0:] + chains[1][l1:]), ctx
        parts[outer] = n = l0 * (f.m + 2) + l1
        for d in column:
            labels[d] |= 1 << n
    return labels, parts


def same_outer_table(f: MoveFacts) -> bool:
    """Whether the move's outer table has the oracle's labels, in chain
    order, and its outer parts with their column bits, in order."""
    labels, parts = two_pass_table(f)
    return (list(f.table.labels.items()) == list(labels.items())
            and list(f.table.parts.items()) == list(parts.items()))


def per_word_entry(sys_, word, pi) -> tuple[tuple, list]:
    """(h, facets) of Delta(word; pi), one word at a time by the generic
    folds of the subword DP, the build that a move's cut replaces: the h
    as a tuple and the facets as masks over word positions, in the facet
    pass's order; ((), []) for a void pair."""
    if not contains_reduced(sys_, word, pi):
        return (), []
    letters = tuple(a - 1 for a in word)
    tables = sys_._right, sys_._desc, letters
    layers = forward_layers(sys_, letters, sys_._id(sys_.inverse(pi)))
    return fold_h(*tables, layers), fold_facets(*tables, layers)


def facet_loop_table(f: MoveFacts, side: int = 1) -> tuple[dict, dict]:
    """(labels, parts) of the move's outer table by one pass over side 1's
    facets, the pass that the cut's pairs replace: per facet A | t | B the
    pair (Dem(Q - A), u) of its head and tail, and the pair's first rise
    along each window chain, l0 and l1, at bit l0 * (m + 2) + l1; or over
    side 2's facets, which share Q, Q' and so the outer parts."""
    ctx, q, end = f.ctx, f.q, f.q + f.m
    sys_ = ctx.system
    desc, times, le = sys_._desc, sys_._times, sys_._le
    Q, Qp = [s - 1 for s in ctx.Q], [s - 1 for s in ctx.Qp]
    window, low, pi = ((1 << f.m) - 1) << q, (1 << q) - 1, sys_._id(ctx.pi)
    chains = tuple(sys_._chain(*w[:2]) for w in f.windows)
    labels, parts = dict.fromkeys(chains[0] + chains[1], 0), {}
    for x in per_word_entry(sys_, f.words[side - 1], ctx.pi)[1]:
        if (outer := x & ~window) in parts:
            continue
        a, head = 0, x & low
        for p, s in enumerate(Q):
            if not head >> p & 1 and not desc[a] >> s & 1:
                a = times(a, s)
        u, tail = pi, x >> end
        for p in range(len(Qp) - 1, -1, -1):
            if not tail >> p & 1 and desc[u] >> Qp[p] & 1:
                u = times(u, Qp[p])
        col = [0, 0]  # per chain the first l with a * chain[l] >= u
        for c, w in enumerate(() if le(u, a) else f.windows):
            z = a
            for l, s in enumerate(w, 1):
                if not desc[z] >> s & 1:
                    z = times(z, s)
                    if le(u, z):
                        col[c] = l
                        break
        parts[outer] = n = col[0] * (f.m + 2) + col[1]
        for d in chains[0][col[0]:] + chains[1][col[1]:]:
            labels[d] |= 1 << n
    return labels, parts


def check_cut(ctx: BraidContext, memo: dict | None = None) -> MoveFacts:
    """Assert that the move's cut gives what the builds word by word and the
    facet loop give: the four h-vectors, both sides' facets (in any order)
    and their packed complexes (those of ``PositionComplex``, one word at a
    time), the outer labels in chain order, which the loop over either
    side's facets gives, and the outer parts with their columns, read as on
    a failed check; and that ``classify`` reports as ``witness_ok`` the facet
    witness of the move made afresh, read from its table or not."""
    f = MoveFacts(ctx, memo)
    sys_, pi = ctx.system, ctx.pi
    for k, word in enumerate(f.words):
        h, facets = per_word_entry(sys_, word, pi)
        assert f.h[k] == h, (ctx, k)
        if k < 2:
            entry, fresh = f._entries[k], PositionComplex(sys_, word, pi)
            assert sorted(entry.word_facets) == sorted(facets) and entry.h == h, (ctx, k)
            assert entry.spherical == fresh.spherical, (ctx, k)
            x, y = entry.complex, fresh.complex
            assert (x.vertices, x.facets, x.is_void) == (y.vertices, y.facets, y.is_void), ctx
    labels, parts = facet_loop_table(f)
    assert list(f.table.labels.items()) == list(labels.items()), ctx
    assert f.table.parts == parts, ctx
    # each element of W_ij has a reduced word inside either window, so side
    # 2's facets join the same pairs of states across the window as side 1's
    assert facet_loop_table(f, 2)[0] == labels, ctx
    rep = classify(ctx, memo)
    want = braid.facet_witness(MoveFacts(ctx), rep.case) if rep.case else None
    assert rep.witness_ok is want, ctx
    return f


def check_cuts(count: int, seed: int) -> dict:
    """``check_cut`` on ``count`` seeded random moves over ``FAULT_GROUPS``;
    returns the counts of moves checked, per case and with a void side."""
    rng, seen = random.Random(seed), {}
    for _ in range(count):
        f = check_cut(random_context(rng, names=FAULT_GROUPS))
        key = "void" if f.sides[0].is_void else classify(f.ctx).case
        seen[key] = seen.get(key, 0) + 1
    return seen


def columns(m: int) -> list[tuple[int, int]]:
    """The 3m - 1 columns (l0, l1) of a W_ij with m_ij = m, the up-sets
    chain0[l0:] + chain1[l1:] that ``braid.OuterTable`` numbers: (0, 0), the
    whole group, and 1 <= l0, l1 <= m with |l0 - l1| <= 1, as an element
    of W_ij lies below every longer one."""
    return [(0, 0)] + [(l0, l1) for l0 in range(1, m + 1)
                       for l1 in range(max(1, l0 - 1), min(m, l0 + 1) + 1)]


def check_column_sets(m: int, top: bool = False) -> tuple[int, int]:
    """Run ``braid.verify_decomposition`` on the move of I2(m) with Q = Q'
    = () under a made-up outer table for each set of W_ij's columns, the
    empty one (void sides) included, or with ``top`` for each set of the
    seven columns with l0, l1 >= m - 2 (those of the sets where A3 and B3
    hold).  Asserts that each passes; returns the counts of sets checked
    and of those chain-checked."""
    sys_ = system(f"I2:{m}")
    base = MoveFacts(BraidContext(sys_, (), (), 1, 2, sys_.element_of(())))
    chains = sys_._chain(0, 1), sys_._chain(1, 0)
    cols = [c for c in columns(m) if not top or min(c) >= m - 2]
    checked = chained = 0
    for chosen in range(1 << len(cols)):
        table = object.__new__(braid.OuterTable)
        table.system, table.chains, table.parts = sys_, chains, {}
        table.labels = labels = dict.fromkeys(chains[0] + chains[1], 0)
        for k, (l0, l1) in enumerate(cols):
            if chosen >> k & 1:
                for d in chains[0][l0:] + chains[1][l1:]:
                    labels[d] |= 1 << (l0 * (m + 2) + l1)
        f = copy.copy(base)
        f.table = table
        dec = braid.verify_decomposition(f)
        assert dec.ok, (m, [c for k, c in enumerate(cols) if chosen >> k & 1], dec.mismatches)
        checked += 1
        chained += dec.chain_checked
    return checked, chained


def outer_parts(f: MoveFacts, label: int) -> frozenset:
    """The outer parts of a label's O: every submask of its generators."""
    return frozenset(face_set(f.table.generators(label)))


def flat_faces(f: MoveFacts, family: dict) -> frozenset:
    """The faces of a family of the move f as universe masks: each window
    part joined with each outer part of its label's O."""
    return frozenset(k | x for k, label in family.items() for x in outer_parts(f, label))


def flat_from_side2(f: MoveFacts, masks) -> frozenset:
    """Universe masks of masks over the positions of side_word(2), each
    crossed on its own: the endpoints swap and the internal slots lift."""
    q, last = f.q, f.q + f.m - 1
    outer = ~(((1 << f.m) - 1) << q)
    inside, lift = f.internal[0], f.L - q - 1
    return frozenset(x & outer | (x >> q & 1) << last | (x >> last & 1) << q
                     | (x & inside) << lift for x in masks)


def flat_link_families(faces, q: int, m: int) -> tuple[set, set]:
    """Images of the inner faces of one side, over side-word positions: the
    internal family of that side and the endpoint family of the other."""
    internal: set = set()
    for l in range(2, m):
        p = q + l - 1  # bit of window slot l
        low = (1 << p) - 1
        here, prev, nxt = 1 << p, 1 << (p - 1), 1 << (p + 1)
        a = [x & low | x >> p << (p + 2) | here for x in faces]  # slots l, l+1 opened
        b = [x & low >> 1 | x >> (p - 1) << (p + 1) | here for x in faces]  # l-1, l opened
        internal.update(a, b, [x | nxt for x in a], [x | prev for x in b])
    last = q + m - 1
    # slots 1 and m opened: inner slot t lands on slot t + 1
    endpoint = {x & ((1 << q) - 1) | (x >> q & ((1 << (m - 2)) - 1)) << (q + 1)
                | x >> (last - 1) << (last + 1) | 1 << q | 1 << last for x in faces}
    return internal, endpoint


def flat_tildes(f: MoveFacts, faces) -> tuple:
    """The faces of each side avoiding its internal vertices and the endpoint edge."""
    ends = f.endpoint
    return tuple(frozenset(x for x in faces[s] if not x & f.internal[s] and x & ends != ends)
                 for s in (0, 1))


def flat_move(f: MoveFacts) -> tuple[tuple, tuple, tuple]:
    """(faces of both sides, (d1_int, d1_F, d2_int, d2_G), tilde of both
    sides) as sets of universe masks, face by face: each complex's faces
    are the submasks of its facets over its word positions, and side 2's
    faces and families cross mask by mask.  The shortened windows have no
    memo entries, so their facets are made here."""
    inner = (PositionComplex(f.ctx.system, w, f.ctx.pi) for w in f.words[2:])
    side1, side2, k1, k2 = (face_set(e.word_facets) for e in (*f._entries[:2], *inner))
    faces = frozenset(side1), flat_from_side2(f, side2)
    d1_int, d2_G = flat_link_families(k1, f.q, f.m)
    d2_int, d1_F = flat_link_families(k2, f.q, f.m)
    fams = frozenset(d1_int), frozenset(d1_F), flat_from_side2(f, d2_int), flat_from_side2(f, d2_G)
    return faces, fams, flat_tildes(f, faces)


def flat_rows(f: MoveFacts, faces, fams, tildes) -> list:
    """(name, got, want) of each check of ``braid.verify_decomposition``
    over flat face sets, as ``flat_move`` gives them."""
    (faces1, faces2), (d1_int, d1_F, d2_int, d2_G), (t1, t2) = faces, fams, tildes
    (int1, int2), ends = f.internal, f.endpoint
    ends1, ends2 = ({x for x in fs if x & ends == ends} for fs in (faces1, faces2))
    patch2 = d2_int | d2_G
    rows = [("internal family, side 1", d1_int, {x for x in faces1 if x & int1}),
            ("endpoint family, side 1", d1_F, ends1),
            ("internal family, side 2", d2_int, {x for x in faces2 if x & int2}),
            ("endpoint family, side 2", d2_G, ends2),
            ("reduced complexes equal", t1, t2),
            ("side 2 partition", faces2, t1 | patch2),
            ("side 2 partition disjoint", t1 & patch2, frozenset()),
            ("patched union identity", faces1 | patch2, faces2 | d1_int | d1_F)]
    if f.chain_checked:
        both = d1_int | d2_int
        rows += [("refinement chain 1=2", (faces1 - ends1) | d2_int, t1 | both),
                 ("refinement chain 2=3", t1 | both, t2 | both),
                 ("refinement chain 3=4", t2 | both, (faces2 - ends2) | d1_int)]
    return rows


def flat_decomposition(f: MoveFacts, faces, fams, tildes) -> tuple[tuple, dict]:
    """The checks of ``braid.verify_decomposition`` on flat face sets, and
    per failed check the first five faces of its symmetric difference."""
    rows = flat_rows(f, faces, fams, tildes)
    return (tuple((name, got == want) for name, got, want in rows),
            {name: f.face_labels(got ^ want) for name, got, want in rows if got != want})


FAULT_GROUPS = ("A3", "B3", "H3", "A4", "D4")


def _fault(rng: random.Random, labels: list, fam: Family, parts: list) -> Family:
    """The family with one realizable fault: a part dropped, a part of the
    move added, or a label replaced by a join of one or two of the
    non-zero outer-table labels ``labels``."""
    while True:
        new = Family(fam)
        kind = rng.randrange(3) if fam else 1
        if kind == 0:
            del new[rng.choice(sorted(fam))]
        else:
            k = rng.choice(parts) if kind == 1 else rng.choice(sorted(fam))
            new[k] = rng.choice(labels) | (rng.choice(labels) if rng.random() < 0.5 else 0)
        if new != fam:
            return new


def inject_faults(count: int, seed: int = 0) -> dict:
    """Run ``braid.verify_decomposition`` on ``count`` moves with one
    realizable fault injected into one of the six families it reads (both
    sides' faces, d1_int, d1_F, d2_int, d2_G), six per move: the seeded
    ``oracle_contexts()`` first, then seeded random moves over
    ``FAULT_GROUPS``.  Asserts per injection that its checks equal those of
    the face-level algebra (``flat_rows``) on the same faulted families,
    and that each failed check names at least one face and only faces of
    that check's face-level symmetric difference.  Returns counts."""
    rng = random.Random(seed)
    contexts = iter(oracle_contexts())
    stats = {"injected": 0, "failed": 0, "named": 0}
    while stats["injected"] < count:
        ctx = next(contexts, None) or random_context(rng, names=FAULT_GROUPS)
        f = MoveFacts(ctx)
        base = (*f.faces, *f.families)
        labels = sorted({v for v in f.table.labels.values() if v})
        parts = sorted({k for fam in base for k in fam})
        if not labels:  # both sides void: no realizable label to inject
            continue
        flat_base = tuple(flat_faces(f, fam) for fam in base)
        for slot in range(6):
            if stats["injected"] == count:
                break
            fams = list(base)
            fams[slot] = _fault(rng, labels, base[slot], parts)
            flats = list(flat_base)
            flats[slot] = flat_faces(f, fams[slot])
            g = copy.copy(f)
            g.faces, g.families = tuple(fams[:2]), braid.Subfamilies(*fams[2:])
            dec = braid.verify_decomposition(g)
            rows = flat_rows(f, flats[:2], flats[2:], flat_tildes(f, flats[:2]))
            assert dec.checks == tuple((name, got == want) for name, got, want in rows), ctx
            stats["injected"] += 1
            stats["failed"] += not dec.ok
            for name, got, want in rows:
                if got != want:
                    named = dec.mismatches[name]
                    assert named and set(named) <= {tuple(sorted(f.names(_bits(x))))
                                                    for x in got ^ want}, (ctx, name)
                    stats["named"] += len(named)
    return stats


REFERENCE_CAP = 512  # classes per depth before the last at which ``reference_gap`` stops


class ReferenceClassTable:
    """A gap scan's class table with every child entered: a class's
    single edge subdivisions, each on the vertices 0..n, are found, as
    class ids, when first asked for."""

    def __init__(self):
        self.reps: list[LabeledComplex] = []
        self.buckets: dict[tuple, list[int]] = {}
        self.children: dict[int, dict[int, None]] = {}

    def intern(self, x: LabeledComplex) -> int:
        bucket = self.buckets.setdefault(iso_invariant(x), [])
        for c in bucket:
            if is_isomorphic_constrained(self.reps[c], x) is not None:
                return c
        bucket.append(len(self.reps))
        self.reps.append(x)
        return bucket[-1]

    def subdivisions(self, c: int) -> dict[int, None]:
        kids = self.children.get(c)
        if kids is None:
            z = self.reps[c]
            n = len(z.vertices)  # the fresh vertex is bit n
            kids = self.children[c] = dict.fromkeys(
                self.intern(LabeledComplex(range(n + 1),
                                           subdivide(z.facets, e & -e, e & (e - 1), (1 << n,))))
                for e in edge_masks(z))
        return kids


def reference_frontiers(table: ReferenceClassTable, c: int, depth: int):
    """Every depth 1..depth of class c's iterated single edge subdivisions
    as a set of class ids, and a truncation flag.  A depth before the last
    that holds more than ``REFERENCE_CAP`` classes is cut after the class
    whose children crossed it, and no deeper depth is listed; the last
    depth is listed in full."""
    frontiers: list[dict[int, None]] = []
    cur: dict[int, None] = {c: None}
    for k in range(depth):
        nxt: dict[int, None] = {}
        for z in cur:
            nxt.update(table.subdivisions(z))
            if k < depth - 1 and len(nxt) > REFERENCE_CAP:
                return frontiers + [nxt], True
        frontiers.append(nxt)
        cur = nxt
    return frontiers, False


def reference_gap(p: RhoPoset) -> GapReport:
    """The gap scan of an order by forward subdivision frontiers, every
    child entered."""
    if len(p.words) > rhoposet.GAP_SCAN_WORDS:
        return GapReport(checked=False)
    n = len(p.classes)
    reps = [build(SubwordDescriptor(p.system, p.Q + p.class_rep(c) + p.Qp, p.pi))
            for c in range(n)]
    table = ReferenceClassTable()
    ids = [table.intern(x) for x in reps]
    f0 = [0 if x.is_void else len(x.vertices) for x in reps]
    iso_pairs = tuple((p.class_rep(a), p.class_rep(b))
                      for a in range(n) for b in range(a + 1, n) if ids[a] == ids[b])
    subdivision_pairs, truncated = [], False
    for a in range(n):
        targets = [b for b in range(n) if not p.leq[a] >> b & 1 and f0[b] > f0[a]]
        if not targets or reps[a].is_void:
            continue
        frontiers, trunc = reference_frontiers(table, ids[a],
                                               max(f0[b] - f0[a] for b in targets))
        truncated = truncated or trunc
        for b in targets:
            d = f0[b] - f0[a]
            if d <= len(frontiers) and ids[b] in frontiers[d - 1]:
                subdivision_pairs.append((p.class_rep(a), p.class_rep(b)))
    return GapReport(True, truncated, iso_pairs, tuple(subdivision_pairs))


def contraction_chain(y: LabeledComplex, x: LabeledComplex, depth: int):
    """``depth`` contractions (``simplicial.contractions``) that take y to
    a complex isomorphic to x, as a list of (r, s, t, contracted) steps, or
    None.  A depth-first search without the library's class table: a
    complex from which x was not reached is kept per depth left and skipped
    when an isomorphic one comes up again."""
    failed: dict = {}  # (depth left, iso_invariant) -> complexes that reach no x

    def search(z: LabeledComplex, left: int):
        if not left:
            return [] if is_isomorphic_constrained(x, z) is not None else None
        seen = failed.setdefault((left, iso_invariant(z)), [])
        if any(is_isomorphic_constrained(w, z) is not None for w in seen):
            return None
        for r, s, t, w in contractions(z):
            rest = search(w, left - 1)
            if rest is not None:
                return [(r, s, t, w)] + rest
        seen.append(z)
        return None

    return search(y, depth)


def certify_subdivision(x: LabeledComplex, y: LabeledComplex) -> bool:
    """Whether y is f0(y) - f0(x) single edge subdivisions of x, shown by
    a chain of contractions from y down to x.  Each step is checked by
    subdividing the contracted complex back, which must give exactly the
    finer facets, and the last step by the vertex map
    ``is_isomorphic_constrained`` returns, which must carry its facets onto
    x's."""
    chain = contraction_chain(y, x, len(y.vertices) - len(x.vertices))
    if chain is None:
        return False
    z = y
    for r, s, t, w in chain:
        low = r - 1
        back = [f & low | (f & ~low) << 1 for f in w.facets]  # r's bit reinserted, empty
        if subdivide(back, s, t, (r,)) != frozenset(z.facets):
            return False
        z = w
    vmap = is_isomorphic_constrained(z, x)
    return vmap is not None and \
        {frozenset(vmap[v] for v in f) for f in facet_label_sets(z)} == set(facet_label_sets(x))

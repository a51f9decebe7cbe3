"""Order on the reduced words of an element by subdivision relations.

Fix words Q, Q' and an element pi.  Every reduced word p of pi yields the
complex Delta(Q p Q'; pi), and single braid moves between reduced words
relate consecutive complexes: a verified one-sided subdivision orients the
pair, a verified isomorphism merges it.  The poset is the quotient of the
reduced words by the isomorphism classes, ordered by the transitive
closure of the subdivision covers, "finer complex above".

The defining relation is subdivision-reachability up to isomorphism, not
single moves, so on small instances a global pairwise scan measures the
gap between the generated order and the defined one; antisymmetry is
likewise checked rather than assumed.
"""

from __future__ import annotations

from typing import NamedTuple

from .braid import BraidContext, _record, classify
from .coxeter import MAX_REDUCED_WORDS, CoxeterSystem, GroupElement, Word
from .simplicial import (LabeledComplex, _bits, contractions, is_isomorphic_constrained,
                         iso_invariant)
from .subword import SubwordDescriptor, build

FRONTIER_CAP = 512  # classes per contraction depth before a target's frontier is cut
GAP_SCAN_WORDS = 24  # the gap scan runs on orders of at most this many words


@_record
class MoveEdge(NamedTuple):
    """One classified single-braid-move pair of reduced words."""

    word_a: Word
    word_b: Word
    pos: int  # 1-based position of the window inside the reduced word
    case: int | None
    verified: bool | None
    lower: Word | None  # oriented: complex(upper) subdivides complex(lower)
    upper: Word | None
    # the classification of this move or of a commutation-equivalent one;
    # None for a move of order 2, case 1 by the lemma in ``build_rho``
    report: object = None


@_record
class SemilatticeResult(NamedTuple):
    applicable: bool
    meet: bool | None = None
    join: bool | None = None
    meet_certificate: tuple | None = None  # (rep_a, rep_b, maximal bound reps)
    join_certificate: tuple | None = None


@_record
class GapReport(NamedTuple):
    """Relations required by the definition but absent from the generated
    order: isomorphic representatives in distinct classes, and subdivision
    reachability between unrelated classes."""

    checked: bool
    truncated: bool = False
    iso_pairs: tuple = ()
    subdivision_pairs: tuple = ()

    @property
    def clean(self) -> bool:
        return self.checked and not self.truncated \
            and not self.iso_pairs and not self.subdivision_pairs


@_record
class RhoPoset(NamedTuple):
    system: CoxeterSystem
    Q: Word
    Qp: Word
    pi: GroupElement
    words: tuple[Word, ...]
    edges: tuple[MoveEdge, ...]
    classes: tuple[tuple[Word, ...], ...]
    class_of: dict  # word -> class index
    leq: tuple  # reach rows: bit b of leq[a] when class b's complex refines class a's
    antisymmetric: bool
    violations: tuple  # word pairs (class representatives) against antisymmetry
    semilattice: SemilatticeResult
    gap: GapReport

    def class_rep(self, c: int) -> Word:
        return self.classes[c][0]


def _closure(n: int, covers) -> tuple[int, ...]:
    """One reach row per class, bit b of row a when a <= b: the reflexive
    and transitive closure of the covers, by Warshall's algorithm."""
    reach = [1 << a for a in range(n)]
    for a, b in covers:
        reach[a] |= 1 << b
    for k in range(n):
        through = reach[k]
        for a in range(n):
            if reach[a] >> k & 1:
                reach[a] |= through
    return tuple(reach)


class _ClassTable:
    """The isomorphism classes met in one gap scan.  Each class keeps the
    first complex met as its representative, the classes are bucketed by
    ``iso_invariant``, and a class's contractions are interned, as class
    ids, when first asked for."""

    def __init__(self):
        self.reps: list[LabeledComplex] = []
        self.buckets: dict[tuple, list[int]] = {}
        self.parents: dict[int, dict[int, None]] = {}

    def intern(self, x: LabeledComplex) -> int:
        bucket = self.buckets.setdefault(iso_invariant(x), [])
        for c in bucket:
            if is_isomorphic_constrained(self.reps[c], x) is not None:
                return c
        bucket.append(len(self.reps))
        self.reps.append(x)
        return bucket[-1]

    def contractions(self, c: int) -> dict[int, None]:
        """The classes that class c is a single edge subdivision of: y is
        isomorphic to x subdivided at an edge iff some contraction of y
        (``contractions``) is isomorphic to x, as subdividing a contraction
        at {s, t} gives back y exactly."""
        ups = self.parents.get(c)
        if ups is None:
            ups = self.parents[c] = dict.fromkeys(
                self.intern(x) for *_, x in contractions(self.reps[c]))
        return ups


def _contraction_frontiers(table: _ClassTable, b: int, depth: int):
    """The classes that class b is d single edge subdivisions of, one
    insertion-ordered set of class ids per depth d = 1..depth, and a
    truncation flag.  Once a depth holds more than FRONTIER_CAP classes it
    is cut off after the class whose contractions crossed the cap, and no
    deeper depth is listed: a class in the cut depth still reaches b, but
    a class missing from it or from the deeper depths proves nothing."""
    frontiers: list[dict[int, None]] = []
    cur: dict[int, None] = {b: None}
    for _ in range(depth):
        nxt: dict[int, None] = {}
        for y in cur:
            nxt.update(table.contractions(y))
            if len(nxt) > FRONTIER_CAP:
                return frontiers + [nxt], True
        frontiers.append(nxt)
        cur = nxt
    return frontiers, False


def build_rho(system: CoxeterSystem, Q, Qp, pi: GroupElement,
              cap: int = MAX_REDUCED_WORDS) -> RhoPoset:
    """Build the order; see the module docstring for the construction.
    Each (word, pi) is built once, every move reading its memo entry.

    A move of order 2 is not classified: it is case 1, verified, with no
    report.  Its letters i and j commute, so swapping the window's two
    positions maps the subwords of side 1 onto those of side 2 with equal
    products and Demazure products: the two facet sets are equal on the
    shared positions, the witness ``equality`` holds, and the h and gamma
    identities read 0 = 0, as m - 2 = 0.  So the commutation classes seed
    the isomorphism classes.

    Of the other moves one is classified per commutation orbit: moves whose
    side-1 words, with the window taken as one piece, differ only by
    commuting letters have the same complexes up to a permutation of
    positions, so they share the first one's report and verdict.  With Q
    and Q' fixed, two pieces are equivalent iff their middle parts are
    (trace monoids are cancellative); equal letters never commute, so the
    k-th occurrence of a letter is one heap element across a commutation
    class (Cartier-Foata; Viennot).  A move is keyed by its word's class,
    i, j and the counts of i and of j before the window."""
    words = system.reduced_words(pi, cap=cap)
    # Q, Q' and the side length are checked here, once: no context or
    # descriptor made below from the order's own words checks them again
    Q, Qp = system._word(Q), system._word(Qp)
    system.check_word(Q + words[0] + Qp)
    index = {w: k for k, w in enumerate(words)}
    memo: dict = {}
    parent = list(range(len(words)))  # commutation classes, then isomorphism classes

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    # each word's moves, listed once: a move of order 2 joins its words'
    # commutation class and makes its edge; the others wait for the classes
    edges: list = []
    for k, w in enumerate(words):
        for pos, i, j, m, w2 in system._braid_moves(w):
            if w2 < w:
                continue  # the mirrored move on w2 reproduces this pair
            b = index[w2]
            if m == 2:
                union(k, b)
                edges.append(MoveEdge(w, words[b], pos, 1, True, None, None, None))
            else:
                edges.append((k, b, pos))
    heap = [find(k) for k in range(len(words))]  # each word's class, named by its first word
    orbits: dict = {}  # (class of w, i, j, counts of i and j before the window) -> report
    for n, e in enumerate(edges):
        if not isinstance(e, MoveEdge):
            k, b, pos = e
            w, w2 = words[k], words[b]  # the order's own copies, kept by the edge
            i, j = w[pos - 1], w[pos]
            m = system.m[i - 1, j - 1]
            front = w[:pos - 1]
            key = (heap[k], i, j, front.count(i), front.count(j))
            rep = orbits.get(key)
            if rep is None:
                ctx = BraidContext._make((system, Q + front, w[pos - 1 + m:] + Qp, i, j, pi))
                rep = orbits[key] = classify(ctx, memo)
            lower = upper = None
            if rep.case == 1 and rep.witness_ok:
                union(k, b)
            elif rep.case == 2 and rep.witness_ok:
                lower, upper = w2, w
            elif rep.case == 3 and rep.witness_ok:
                lower, upper = w, w2
            edges[n] = MoveEdge(w, w2, pos, rep.case, rep.witness_ok, lower, upper, rep)

    groups: dict[int, list[Word]] = {}
    for k, w in enumerate(words):
        groups.setdefault(find(k), []).append(w)
    classes = tuple(tuple(sorted(g)) for g in
                    sorted(groups.values(), key=lambda g: min(g)))
    class_of = {w: c for c, grp in enumerate(classes) for w in grp}

    covers = sorted({(class_of[e.lower], class_of[e.upper]) for e in edges if e.lower is not None})
    # a cover inside one class is reported as its representative word, twice
    violations = tuple((classes[a][0], classes[a][0]) for a, b in covers if a == b)
    leq = _closure(len(classes), covers)
    anti_bad = tuple((classes[a][0], classes[b][0]) for a in range(len(classes))
                     for b in _bits(leq[a] >> (a + 1) << (a + 1)) if leq[b] >> a & 1)
    antisymmetric = not violations and not anti_bad

    poset = RhoPoset(system, Q, Qp, pi, words, tuple(edges),
                     classes, class_of, leq, antisymmetric,
                     violations + anti_bad,
                     SemilatticeResult(applicable=False),
                     GapReport(checked=False))
    semilattice = semilattice_check(poset) if antisymmetric else poset.semilattice
    gap = _gap_scan(poset, memo) if len(words) <= GAP_SCAN_WORDS else poset.gap
    return poset._replace(semilattice=semilattice, gap=gap)


def semilattice_check(p: RhoPoset) -> SemilatticeResult:
    """Brute-force meet/join existence over the class order.

    A finite subset has a least (greatest) element exactly when it has a
    single minimal (maximal) element, so each pair's bound set is reduced
    to its extremal elements and the count inspected.
    """
    if not p.antisymmetric:
        raise ValueError("order is not antisymmetric")
    n, up = len(p.classes), p.leq
    down = [sum(1 << c for c in range(n) if up[c] >> a & 1) for a in range(n)]  # columns

    def verdict(toward, away) -> tuple[bool, tuple | None]:
        # a pair's bounds are the classes in both its ``toward`` rows; a
        # bound is extremal when its ``away`` row meets them only in itself
        for a in range(n):
            for b in range(a + 1, n):
                bounds = toward[a] & toward[b]
                extremal = [c for c in _bits(bounds) if away[c] & bounds == 1 << c]
                if len(extremal) != 1:
                    reps = tuple(p.class_rep(c) for c in extremal)
                    return False, (p.class_rep(a), p.class_rep(b), reps)
        return True, None

    # meet: a unique maximal lower bound; join: a unique minimal upper bound
    meet, meet_cert = verdict(down, up)
    join, join_cert = verdict(up, down)
    return SemilatticeResult(True, meet, join, meet_cert, join_cert)


def _gap_scan(p: RhoPoset, memo: dict) -> GapReport:
    """Compare the order with its definition through one class table:
    isomorphic representatives share a class id, and class a reaches class
    b by d = f0(b) - f0(a) single edge subdivisions when a is in b's
    contraction frontier at depth d.  Each target's frontiers are listed
    once, as deep as its farthest source needs.  Sound: each step of a
    frontier is an exact inverse edge subdivision, so every pair reported
    is reachable.  Complete: a frontier that is not cut lists every class
    that reaches b at its depth, so only a truncated scan can miss a pair.
    The class representatives are built through ``memo`` (see
    ``subword.build``)."""
    n = len(p.classes)
    reps = [build(SubwordDescriptor._make((p.system, p.Q + p.class_rep(c) + p.Qp, p.pi)), memo)
            for c in range(n)]
    table = _ClassTable()
    ids = [table.intern(x) for x in reps]
    f0 = [len(x.vertices) for x in reps]  # Q + w + Q' holds w, so no rep is void

    iso_pairs = tuple((p.class_rep(a), p.class_rep(b))
                      for a in range(n) for b in range(a + 1, n)
                      if ids[a] == ids[b])
    targets = [[b for b in range(n) if not p.leq[a] >> b & 1 and f0[b] > f0[a]]
               for a in range(n)]
    need = [0] * n  # how deep each target's frontiers must go
    for a in range(n):
        for b in targets[a]:
            need[b] = max(need[b], f0[b] - f0[a])
    scans = [_contraction_frontiers(table, ids[b], need[b]) for b in range(n)]
    truncated = any(trunc for _, trunc in scans)
    subdivision_pairs = tuple((p.class_rep(a), p.class_rep(b))
                              for a in range(n) for b in targets[a]
                              if f0[b] - f0[a] <= len(scans[b][0])
                              and ids[a] in scans[b][0][f0[b] - f0[a] - 1])
    return GapReport(True, truncated, iso_pairs, subdivision_pairs)


def transitive_reduction(p: RhoPoset) -> tuple[tuple[int, int], ...]:
    """Cover pairs of the class order (Hasse diagram edges)."""
    out = []
    for a, row in enumerate(p.leq):
        above, through = row & ~(1 << a), 0
        for c in _bits(above):  # what lies strictly above some c above a
            through |= p.leq[c] & ~(1 << c)
        out.extend((a, b) for b in _bits(above & ~through))
    return tuple(out)


def _word_text(w: Word) -> str:
    return "".join(map(str, w)) if all(a <= 9 for a in w) else "-".join(map(str, w))


def export_dot(p: RhoPoset) -> str:
    """Hasse diagram over the words: dashed undirected edges inside
    isomorphism classes, directed cover edges labeled by their case."""
    lines = [
        "digraph rho {",
        "  rankdir=BT;",
        '  node [shape=box, fontname="monospace"];',
        f"  // {len(p.words)} reduced words, {len(p.classes)} classes,"
        f" antisymmetric={str(p.antisymmetric).lower()}",
    ]
    index = {w: k for k, w in enumerate(p.words)}
    for k, w in enumerate(p.words):
        lines.append(f'  w{k} [label="{_word_text(w)}"];')
    for e in p.edges:
        if e.case == 1 and e.verified:
            a, b = index[e.word_a], index[e.word_b]
            lines.append(f"  w{a} -> w{b} [dir=none, style=dashed, label=\"1\"];")
    move_by_cover: dict[tuple[int, int], MoveEdge] = {}
    for e in p.edges:
        if e.lower is None:
            continue
        key = (p.class_of[e.lower], p.class_of[e.upper])
        best = move_by_cover.get(key)
        if best is None or (e.lower, e.upper, e.pos) < (best.lower, best.upper, best.pos):
            move_by_cover[key] = e
    for a, b in transitive_reduction(p):
        e = move_by_cover.get((a, b))
        if e is None:
            continue  # relation induced transitively; no single move to draw
        ia, ib = index[e.lower], index[e.upper]
        lines.append(f'  w{ia} -> w{ib} [label="{e.case}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_json(p: RhoPoset) -> dict:
    """JSON-ready summary of the order and its verification status; all mentions
    of a reduced word share one list, so the result is read-only."""
    sl = p.semilattice
    word = {w: list(w) for w in p.words}
    return {
        "Q": list(p.Q),
        "Qprime": list(p.Qp),
        "word_count": len(p.words),
        "words": [word[w] for w in p.words],
        "classes": [[word[w] for w in grp] for grp in p.classes],
        "cover_edges": [
            {"lower": word[e.lower], "upper": word[e.upper],
             "case": e.case, "pos": e.pos}
            for e in p.edges if e.lower is not None
        ],
        "iso_edges": [
            {"a": word[e.word_a], "b": word[e.word_b], "pos": e.pos}
            for e in p.edges if e.case == 1 and e.verified
        ],
        "unsupported_pairs": [
            {"a": word[e.word_a], "b": word[e.word_b], "pos": e.pos}
            for e in p.edges if e.case is None
        ],
        "relation": [[a, b] for a, row in enumerate(p.leq) for b in _bits(row & ~(1 << a))],
        "antisymmetric": p.antisymmetric,
        "violations": [list(map(list, v)) for v in p.violations],
        "semilattice": {
            "applicable": sl.applicable,
            "meet": sl.meet,
            "join": sl.join,
            "meet_certificate": _cert_json(sl.meet_certificate),
            "join_certificate": _cert_json(sl.join_certificate),
        },
        "gap": {
            "checked": p.gap.checked,
            "truncated": p.gap.truncated,
            "iso_pairs": [[list(a), list(b)] for a, b in p.gap.iso_pairs],
            "subdivision_pairs": [[list(a), list(b)]
                                  for a, b in p.gap.subdivision_pairs],
        },
    }


def _cert_json(cert):
    if cert is None:
        return None
    a, b, bounds = cert
    return {"pair": [list(a), list(b)], "bounds": [list(c) for c in bounds]}

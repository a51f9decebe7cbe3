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
from .simplicial import (LabeledComplex, _bits, _signatures, is_isomorphic_constrained,
                         iso_invariant, subdivide)
from .subword import SubwordDescriptor, build

FRONTIER_CAP = 512  # classes per entered depth before the gap scan stops
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
    # the classification of this move or of a commutation-equivalent one
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
    ``iso_invariant``, and a class's single edge subdivisions, each on the
    vertices 0..n, are entered and found, as class ids, when first asked
    for; ``aim`` only tells which of some classes hold one, by prediction,
    entering none."""

    def __init__(self):
        self.reps: list[LabeledComplex] = []
        self.buckets: dict[tuple, list[int]] = {}
        self.children: dict[int, dict[int, None]] = {}
        self.edges: dict[int, list[int]] = {}

    def intern(self, x: LabeledComplex) -> int:
        bucket = self.buckets.setdefault(iso_invariant(x), [])
        for c in bucket:
            if is_isomorphic_constrained(self.reps[c], x) is not None:
                return c
        bucket.append(len(self.reps))
        self.reps.append(x)
        return bucket[-1]

    def edge_masks(self, c: int) -> list[int]:
        if c not in self.edges:
            self.edges[c] = self.reps[c].edge_masks()
        return self.edges[c]

    def child(self, c: int, e: int) -> LabeledComplex:
        """Class c's representative subdivided at the edge e, at vertex n."""
        z = self.reps[c]
        n = len(z.vertices)
        return LabeledComplex(range(n + 1), subdivide(z.facets, e & -e, e & (e - 1), (1 << n,)))

    def subdivisions(self, c: int) -> dict[int, None]:
        kids = self.children.get(c)
        if kids is None:
            kids = self.children[c] = dict.fromkeys(
                self.intern(self.child(c, e)) for e in self.edge_masks(c))
        return kids

    def aim(self, cur, targets: set) -> dict[int, None]:
        """The classes of ``targets`` that hold a single edge subdivision of
        a class of ``cur``, none entered: a child is built, and searched
        against a target, only where its predicted invariant is the
        target's."""
        found: dict[int, None] = {}
        for c in cur:
            for e in self.edge_masks(c):
                if len(found) == len(targets):
                    return found
                hits = [t for t in self.buckets.get(_child_invariant(self.reps[c], e), ())
                        if t in targets and t not in found]
                x = self.child(c, e) if hits else None
                for t in hits:
                    if is_isomorphic_constrained(self.reps[t], x) is not None:
                        found[t] = None
                        break
        return found


def _child_invariant(z: LabeledComplex, e: int) -> tuple:
    """``iso_invariant`` of z subdivided at the edge e = {s, t}, read from
    z's signatures and the star of e, the facets through it: each star
    facet x gives way to two of its size, so a vertex of x outside e gains
    |x| once, s and t keep their signatures and the fresh vertex gets |x|
    twice."""
    sigs, fresh = list(_signatures(z)), []
    for x in z.facets:
        if x & e == e:
            k = x.bit_count()
            fresh += (k, k)
            for v in _bits(x & ~e):
                sigs[v] += (k,)
    sigs.append(fresh)
    return len(z.facets) + len(fresh) // 2, tuple(sorted(tuple(sorted(s)) for s in sigs))


def _subdivision_frontiers(table: _ClassTable, c: int, depth: int, last: set):
    """The classes of the iterated single edge subdivisions of class c,
    one insertion-ordered set of class ids per depth 1..depth, and a
    truncation flag.  The depths before the last are entered; once one
    holds more than FRONTIER_CAP classes it is cut off after the class
    whose children crossed the cap, and no deeper depth is listed: a class
    in the cut depth is still a true subdivision, but a class missing from
    it or from the deeper depths proves nothing.  The last depth is never
    entered and never cut: it lists just the classes of ``last`` it holds
    (``aim``), each child predicted from one of at most FRONTIER_CAP
    classes before it."""
    frontiers: list[dict[int, None]] = []
    cur: dict[int, None] = {c: None}
    for _ in range(depth - 1):
        nxt: dict[int, None] = {}
        for z in cur:
            nxt.update(table.subdivisions(z))
            if len(nxt) > FRONTIER_CAP:
                return frontiers + [nxt], True
        frontiers.append(nxt)
        cur = nxt
    return frontiers + [table.aim(cur, last)], False


def build_rho(system: CoxeterSystem, Q, Qp, pi: GroupElement,
              cap: int = MAX_REDUCED_WORDS) -> RhoPoset:
    """Build the order; see the module docstring for the construction.
    Each (word, pi) is built once, every move reading its memo entry.

    One move is classified per commutation orbit: moves whose side-1 words,
    with the window taken as one piece, differ only by commuting letters
    have the same complexes up to a permutation of positions, so they
    share the first one's report and verdict.  With Q and Q' fixed, two
    pieces are equivalent iff their middle parts are (trace monoids are
    cancellative); equal letters never commute, so the k-th occurrence of
    a letter is one heap element across a commutation class (Cartier-Foata;
    Viennot).  A move is keyed by its word's class, i, j and the counts of
    i and of j before the window."""
    words = system.reduced_words(pi, cap=cap)
    # Q, Q' and the side length are checked here, once: no context or
    # descriptor made below from the order's own words checks them again
    Q, Qp = system._word(Q), system._word(Qp)
    system.check_word(Q + words[0] + Qp)
    index = {w: k for k, w in enumerate(words)}
    memo: dict = {}

    parent = list(range(len(words)))  # isomorphism classes, from verified case-1 moves

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    # each word's commutation class, named by its first word, via moves of order 2
    heap = [-1] * len(words)
    for k in range(len(words)):
        if heap[k] < 0:
            heap[k], stack = k, [k]
            while stack:
                for _, _, _, m, w2 in system._braid_moves(words[stack.pop()]):
                    if m == 2 and heap[b := index[w2]] < 0:
                        heap[b] = k
                        stack.append(b)
    orbits: dict = {}  # (class of w, i, j, counts of i and j before the window) -> report

    edges: list[MoveEdge] = []
    for k, w in enumerate(words):
        for pos, i, j, m, w2 in system._braid_moves(w):
            if w2 < w:
                continue  # the mirrored move on w2 reproduces this pair
            w2 = words[index[w2]]  # the order's own copy, kept by the edge
            front = w[:pos - 1]
            key = (heap[k], i, j, front.count(i), front.count(j))
            rep = orbits.get(key)
            if rep is None:
                ctx = BraidContext._make((system, Q + front, w[pos - 1 + m:] + Qp, i, j, pi))
                rep = orbits[key] = classify(ctx, memo)
            lower = upper = None
            if rep.case == 1 and rep.witness_ok:
                union(k, index[w2])
            elif rep.case == 2 and rep.witness_ok:
                lower, upper = w2, w
            elif rep.case == 3 and rep.witness_ok:
                lower, upper = w, w2
            edges.append(MoveEdge(w, w2, pos, rep.case, rep.witness_ok,
                                  lower, upper, rep))

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
    isomorphic representatives share a class id, and each class met before
    a last depth is subdivided once however many frontiers reach it; a last
    depth is searched for its targets alone.  The class representatives
    are built through ``memo`` (see ``subword.build``)."""
    n = len(p.classes)
    reps = [build(SubwordDescriptor._make((p.system, p.Q + p.class_rep(c) + p.Qp, p.pi)), memo)
            for c in range(n)]
    table = _ClassTable()
    ids = [table.intern(x) for x in reps]
    f0 = [0 if x.is_void else len(x.vertices) for x in reps]

    iso_pairs = tuple((p.class_rep(a), p.class_rep(b))
                      for a in range(n) for b in range(a + 1, n)
                      if ids[a] == ids[b])
    subdivision_pairs = []
    truncated = False
    for a in range(n):
        targets = [b for b in range(n) if not p.leq[a] >> b & 1 and f0[b] > f0[a]]
        if not targets or reps[a].is_void:
            continue
        depth = max(f0[b] - f0[a] for b in targets)
        last = {ids[b] for b in targets if f0[b] - f0[a] == depth}
        frontiers, trunc = _subdivision_frontiers(table, ids[a], depth, last)
        truncated = truncated or trunc
        for b in targets:
            d = f0[b] - f0[a]
            if d <= len(frontiers) and ids[b] in frontiers[d - 1]:
                subdivision_pairs.append((p.class_rep(a), p.class_rep(b)))
    return GapReport(True, truncated, iso_pairs, tuple(subdivision_pairs))


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

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

from dataclasses import dataclass, replace

from .braid import BraidContext, classify
from .coxeter import CoxeterSystem, GroupElement, Word
from .simplicial import LabeledComplex, is_isomorphic_constrained, iso_invariant
from .subword import SubwordDescriptor, build

FRONTIER_CAP = 512  # subdivision classes per depth before the gap scan stops
GAP_SCAN_WORDS = 24  # the gap scan runs on orders of at most this many words


@dataclass(frozen=True, eq=False)
class MoveEdge:
    """One classified single-braid-move pair of reduced words."""

    word_a: Word
    word_b: Word
    pos: int  # 1-based position of the window inside the reduced word
    case: int | None
    verified: bool | None
    lower: Word | None  # oriented: complex(upper) subdivides complex(lower)
    upper: Word | None
    report: object = None  # the full classification backing this edge


@dataclass(frozen=True, eq=False)
class SemilatticeResult:
    applicable: bool
    meet: bool | None = None
    join: bool | None = None
    meet_certificate: tuple | None = None  # (rep_a, rep_b, maximal bound reps)
    join_certificate: tuple | None = None


@dataclass(frozen=True, eq=False)
class GapReport:
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


@dataclass(frozen=True, eq=False)
class RhoPoset:
    system: CoxeterSystem
    Q: Word
    Qp: Word
    pi: GroupElement
    words: tuple[Word, ...]
    edges: tuple[MoveEdge, ...]
    classes: tuple[tuple[Word, ...], ...]
    class_of: dict  # word -> class index
    leq: tuple  # leq[a][b]: class b's complex refines class a's
    antisymmetric: bool
    violations: tuple
    semilattice: SemilatticeResult
    gap: GapReport

    def class_rep(self, c: int) -> Word:
        return self.classes[c][0]


def _closure(n: int, covers) -> list[list[bool]]:
    reach = [1 << a for a in range(n)]
    for a, b in covers:
        reach[a] |= 1 << b
    changed = True
    while changed:
        changed = False
        for a in range(n):
            acc = reach[a]
            scan = acc
            while scan:
                low = scan & -scan
                acc |= reach[low.bit_length() - 1]
                scan ^= low
            if acc != reach[a]:
                reach[a] = acc
                changed = True
    return [[bool(reach[a] >> b & 1) for b in range(n)] for a in range(n)]


class _ClassTable:
    """The isomorphism classes met in one gap scan.  Each class keeps one
    representative on the vertices 0..n-1, the classes are bucketed by
    ``iso_invariant``, and a class's single edge subdivisions are found,
    as class ids, when first asked for."""

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
            fresh = len(z.vertices)  # the next integer vertex
            kids = self.children[c] = dict.fromkeys(
                self.intern(z.edge_subdivide(
                    ((e & -e).bit_length() - 1, e.bit_length() - 1), fresh))
                for e in z.edge_masks())
        return kids


def _subdivision_frontiers(table: _ClassTable, c: int, depth: int):
    """The classes of the iterated single edge subdivisions of class c,
    one insertion-ordered set of class ids per depth 1..depth, and a
    truncation flag.  Once a depth holds more than FRONTIER_CAP classes it
    is cut off after the class whose children crossed the cap, and no
    deeper depth is listed: a class in the cut depth is still a true
    subdivision, but a class missing from it or from the deeper depths
    proves nothing."""
    frontiers: list[dict[int, None]] = []
    cur: dict[int, None] = {c: None}
    for _ in range(depth):
        nxt: dict[int, None] = {}
        for z in cur:
            nxt.update(table.subdivisions(z))
            if len(nxt) > FRONTIER_CAP:
                return frontiers + [nxt], True
        frontiers.append(nxt)
        cur = nxt
    return frontiers, False


def build_rho(system: CoxeterSystem, Q, Qp, pi: GroupElement,
              cap: int = 100_000) -> RhoPoset:
    """Build the order; see the module docstring for the construction.
    Each (word, pi) is built once, the moves reading relabels of it."""
    Q, Qp = tuple(Q), tuple(Qp)
    words = system.reduced_words(pi, cap=cap)
    index = {w: k for k, w in enumerate(words)}
    memo: dict = {}

    parent = list(range(len(words)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    edges: list[MoveEdge] = []
    oriented: list[tuple[Word, Word]] = []  # (lower word, upper word)
    for w in words:
        for pos, i, j, m, w2 in system._braid_moves(w):
            if w2 < w:
                continue  # the mirrored move on w2 reproduces this pair
            ctx = BraidContext(system, Q + w[:pos - 1], w[pos - 1 + m:] + Qp, i, j, pi)
            rep = classify(ctx, memo)
            lower = upper = None
            if rep.case == 1 and rep.witness_ok:
                union(index[w], index[w2])
            elif rep.case == 2 and rep.witness_ok:
                lower, upper = w2, w
            elif rep.case == 3 and rep.witness_ok:
                lower, upper = w, w2
            if lower is not None:
                oriented.append((lower, upper))
            edges.append(MoveEdge(w, w2, pos, rep.case, rep.witness_ok,
                                  lower, upper, rep))

    groups: dict[int, list[Word]] = {}
    for k, w in enumerate(words):
        groups.setdefault(find(k), []).append(w)
    classes = tuple(tuple(sorted(g)) for g in
                    sorted(groups.values(), key=lambda g: min(g)))
    class_of = {w: c for c, grp in enumerate(classes) for w in grp}

    covers = sorted({(class_of[lo], class_of[up]) for lo, up in oriented})
    violations = tuple((a, b) for a, b in covers if a == b)
    leq_rows = _closure(len(classes), covers)
    anti_bad = tuple(
        (classes[a][0], classes[b][0])
        for a in range(len(classes)) for b in range(a + 1, len(classes))
        if leq_rows[a][b] and leq_rows[b][a])
    antisymmetric = not violations and not anti_bad
    leq = tuple(tuple(row) for row in leq_rows)

    poset = RhoPoset(system, Q, Qp, pi, words, tuple(edges),
                     classes, class_of, leq, antisymmetric,
                     violations + anti_bad,
                     SemilatticeResult(applicable=False),
                     GapReport(checked=False))
    semilattice = semilattice_check(poset) if antisymmetric else poset.semilattice
    gap = _gap_scan(poset, memo) if len(words) <= GAP_SCAN_WORDS else poset.gap
    return replace(poset, semilattice=semilattice, gap=gap)


def semilattice_check(p: RhoPoset) -> SemilatticeResult:
    """Brute-force meet/join existence over the class order.

    A finite subset has a least (greatest) element exactly when it has a
    single minimal (maximal) element, so each pair's bound set is reduced
    to its extremal elements and the count inspected.
    """
    if not p.antisymmetric:
        raise ValueError("order is not antisymmetric")
    n = len(p.classes)
    leq = p.leq

    def verdict(is_bound, beats) -> tuple[bool, tuple | None]:
        for a in range(n):
            for b in range(a + 1, n):
                bounds = [c for c in range(n) if is_bound(c, a) and is_bound(c, b)]
                extremal = [c for c in bounds
                            if not any(d != c and beats(c, d) for d in bounds)]
                if len(extremal) != 1:
                    reps = tuple(p.class_rep(c) for c in extremal)
                    return False, (p.class_rep(a), p.class_rep(b), reps)
        return True, None

    # meet: unique maximal lower bound (beaten by anything above it)
    meet, meet_cert = verdict(lambda c, a: leq[c][a], lambda c, d: leq[c][d])
    # join: unique minimal upper bound (beaten by anything below it)
    join, join_cert = verdict(lambda c, a: leq[a][c], lambda c, d: leq[d][c])
    return SemilatticeResult(True, meet, join, meet_cert, join_cert)


def _gap_scan(p: RhoPoset, memo: dict) -> GapReport:
    """Compare the order with its definition through one class table:
    isomorphic representatives share a class id, and each class met is
    subdivided once however many frontiers reach it.  The class
    representatives are built through ``memo`` (see ``subword.build``)."""
    n = len(p.classes)
    reps = []
    for c in range(n):
        x = build(SubwordDescriptor(p.system, p.Q + p.class_rep(c) + p.Qp, p.pi), memo)
        reps.append(x.relabel(range(len(x.vertices))))  # on 0..n-1
    table = _ClassTable()
    ids = [table.intern(x) for x in reps]
    f0 = [0 if x.is_void else len(x.vertices) for x in reps]

    iso_pairs = tuple((p.class_rep(a), p.class_rep(b))
                      for a in range(n) for b in range(a + 1, n)
                      if ids[a] == ids[b])
    subdivision_pairs = []
    truncated = False
    for a in range(n):
        targets = [b for b in range(n)
                   if b != a and not p.leq[a][b] and f0[b] > f0[a]]
        if not targets or reps[a].is_void:
            continue
        depth = max(f0[b] - f0[a] for b in targets)
        frontiers, trunc = _subdivision_frontiers(table, ids[a], depth)
        truncated = truncated or trunc
        for b in targets:
            d = f0[b] - f0[a]
            if d <= len(frontiers) and ids[b] in frontiers[d - 1]:
                subdivision_pairs.append((p.class_rep(a), p.class_rep(b)))
    return GapReport(True, truncated, iso_pairs, tuple(subdivision_pairs))


def transitive_reduction(p: RhoPoset) -> tuple[tuple[int, int], ...]:
    """Cover pairs of the class order (Hasse diagram edges)."""
    n = len(p.classes)
    out = []
    for a in range(n):
        for b in range(n):
            if a == b or not p.leq[a][b]:
                continue
            if not any(c != a and c != b and p.leq[a][c] and p.leq[c][b]
                       for c in range(n)):
                out.append((a, b))
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
    """JSON-ready summary of the order and its verification status."""
    sl = p.semilattice
    return {
        "Q": list(p.Q),
        "Qprime": list(p.Qp),
        "word_count": len(p.words),
        "words": [list(w) for w in p.words],
        "classes": [[list(w) for w in grp] for grp in p.classes],
        "cover_edges": [
            {"lower": list(e.lower), "upper": list(e.upper),
             "case": e.case, "pos": e.pos}
            for e in p.edges if e.lower is not None
        ],
        "iso_edges": [
            {"a": list(e.word_a), "b": list(e.word_b), "pos": e.pos}
            for e in p.edges if e.case == 1 and e.verified
        ],
        "unsupported_pairs": [
            {"a": list(e.word_a), "b": list(e.word_b), "pos": e.pos}
            for e in p.edges if e.case is None
        ],
        "relation": [[a, b] for a in range(len(p.classes))
                     for b in range(len(p.classes)) if a != b and p.leq[a][b]],
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

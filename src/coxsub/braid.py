"""Effect of a single braid move on a subword complex.

A braid move replaces the alternating window w(i,j) = s_i s_j s_i ... of
length m = m_ij inside a word by w(j,i).  For a fixed prefix Q, suffix Q'
and target element pi this module compares the two complexes

    side 1: Delta(Q w(i,j) Q'; pi)     side 2: Delta(Q w(j,i) Q'; pi)

on one shared vertex set, evaluates the window conditions, carves out the
interface face families, classifies the move into one of four cases
(isomorphic / one side subdivides the other / common refinement),
realizes each verdict as an explicit iterated edge subdivision, and
checks the H- and gamma-polynomial bookkeeping of the subdivisions.

Bit universe.  A move has one vertex universe of L + m - 2 bits, where
L = |Q| + m + |Q'|: bits 0..L-1 are the side-1 word positions (Q, the
window slots f1..fm, Q'), bits L..L+m-3 the internal side-2 window slots
g2..g(m-1).  ``MoveFacts.bits`` holds one table per side, the universe bit
of each word position.  Side 1's is the identity.  Side 2's crosses the
window endpoints (first slot to fm, last to f1) and lifts the internal
slots as one block to the top.  The vertex names, the internal masks and
the witnesses' fresh vertices read these tables.  Each side's complex is
its memo entry's, over its own word positions; side 2's facets, faces and
interface families are made over them and cross by ``from_side2``, the
mask form of its table.  The endpoint edge {f1, fm} is then F on side 1
and G on side 2.  The universe can exceed 62 bits, so its masks are
Python ints.

Link insertion.  The interface families come from the complexes of the
words with the window shortened by two, the links of window edges
(Knutson-Miller 2004).  An inner face becomes a side face by opening two
empty bit slots in its position mask: at window slots l and l+1 for the
link of the edge there, or at both window endpoints for F and G.  All
face algebra runs on these masks; names ("Q1", "f1", "g2", "Q'1", ...)
appear only in the report's ``names``, the witnesses and the mismatches.

Witnesses.  Each verdict is replayed on the universe masks of the sides'
facets: equal facet sets are equal complexes, and an iterated edge
subdivision turns the facets through the endpoint edge into new facets
over the fresh window bits.  ``classify`` makes the facts of its move
once, as a ``MoveFacts``, and hands them to every check it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import zip_longest

from .coxeter import MAX_REDUCED_WORDS, CoxeterSystem, GroupElement, Word
from .simplicial import LabeledComplex, _bits, face_set, subdivide
from .subword import SubwordDescriptor, build, position_complex


@dataclass(frozen=True)
class BraidContext:
    """One braid move: prefix Q, window letters i,j, suffix Q', target pi."""

    system: CoxeterSystem
    Q: Word
    Qp: Word
    i: int
    j: int
    pi: GroupElement

    def __post_init__(self):
        check = self.system.check_word
        object.__setattr__(self, "Q", check(self.Q))
        object.__setattr__(self, "Qp", check(self.Qp))
        check((self.i, self.j))
        if self.i == self.j:
            raise ValueError("window letters must differ")
        check(self.side_word(1))

    @property
    def m(self) -> int:
        return self.system.m[self.i - 1, self.j - 1]

    def window_word(self, k: int, side: int = 1) -> Word:
        """Alternating window of length m - k; side 2 starts with j."""
        if not 0 <= k <= self.m:
            raise ValueError(f"k must lie in 0..{self.m}")
        a, b = (self.i, self.j) if side == 1 else (self.j, self.i)
        return tuple(a if t % 2 == 0 else b for t in range(self.m - k))

    def side_word(self, side: int, k: int = 0) -> Word:
        return self.Q + self.window_word(k, side) + self.Qp


class MoveFacts:
    """The derived facts of one braid move.  Made at once: the bit universe
    (see the module docstring), the complexes of both sides and of the
    shortened windows, read from a build memo (see ``subword.build``),
    and whether each side is a sphere.  Made on first use: their facets
    and faces as masks, the interface families and the window conditions."""

    def __init__(self, ctx: BraidContext, memo: dict | None = None):
        self.ctx = ctx
        self.m = m = ctx.m
        self.q = q = len(ctx.Q)
        self.L = L = q + m + len(ctx.Qp)
        self.universe = (*(f"Q{p}" for p in range(1, q + 1)),
                         *(f"f{l}" for l in range(1, m + 1)),
                         *(f"Q'{p}" for p in range(1, len(ctx.Qp) + 1)),
                         *(f"g{l}" for l in range(2, m)))
        # the universe bit of each word position, per side
        self.bits = (tuple(range(L)),
                     (*range(q), q + m - 1, *range(L, L + m - 2), q, *range(q + m, L)))
        self.endpoint = 1 << q | 1 << (q + m - 1)
        self.internal = tuple(sum(1 << b[p] for p in range(q + 1, q + m - 1)) for b in self.bits)
        memo = {} if memo is None else memo
        self.sides = tuple(build(SubwordDescriptor(ctx.system, ctx.side_word(side), ctx.pi), memo)
                           for side in (1, 2))
        # the memo entries of the sides and of the shortened windows, for
        # faces over word positions; no output names an inner vertex
        self._entries = tuple(position_complex(ctx.system, ctx.side_word(side, k), ctx.pi, memo)
                              for k in (0, 2) for side in (1, 2))
        self.inner = self._entries[2].complex, self._entries[3].complex
        self.spherical = self._entries[0].spherical, self._entries[1].spherical

    def names(self, bits) -> tuple[str, ...]:
        """The vertex names of universe bits."""
        return tuple(self.universe[b] for b in bits)

    def from_side2(self, masks) -> frozenset:
        """Universe masks of masks over the positions of side_word(2), as
        ``bits[1]`` maps them: the endpoints cross and the internal slots
        are lifted as one block."""
        q, last = self.q, self.q + self.m - 1
        outer = ~(((1 << self.m) - 1) << q)
        inside, lift = self.internal[0], self.L - q - 1
        return frozenset(x & outer | (x >> q & 1) << last | (x >> last & 1) << q
                         | (x & inside) << lift for x in masks)

    def face_labels(self, masks) -> tuple[tuple[str, ...], ...]:
        """Up to five faces as sorted label tuples, in sorted order."""
        return tuple(sorted(tuple(sorted(self.names(_bits(f)))) for f in masks)[:5])

    @cached_property
    def conditions(self) -> dict:
        """A2, B2, A3 and B3 by name; the length-3 ones are None at m = 2.
        A2 and B2 say that the inner complexes are void."""
        long = self.m >= 3
        return {"A2": self.inner[0].is_void, "B2": self.inner[1].is_void,
                "A3": condition(self.ctx, "A", 3) if long else None,
                "B3": condition(self.ctx, "B", 3) if long else None}

    @property
    def supported(self) -> bool:
        """The case table applies: m <= 3 or both length-3 conditions."""
        return self.m <= 3 or bool(self.conditions["A3"] and self.conditions["B3"])

    @property
    def chain_checked(self) -> bool:
        """No face holds the endpoint edge and an internal vertex at once:
        m = 2 or both length-3 conditions (unlike ``supported`` at m = 3)."""
        return self.m == 2 or bool(self.conditions["A3"] and self.conditions["B3"])

    @cached_property
    def facets(self) -> tuple[frozenset, frozenset]:
        """The facets of both sides as universe masks, as ``faces``."""
        side1, side2 = self._entries[:2]
        return frozenset(side1.word_facets), self.from_side2(side2.word_facets)

    @cached_property
    def faces(self) -> tuple[frozenset, frozenset]:
        """The faces of both sides as universe masks, from their memo
        entries: side 1's word positions as they are, side 2's crossed by
        ``from_side2``."""
        side1, side2 = self._entries[:2]
        return frozenset(side1.word_faces), self.from_side2(side2.word_faces)

    @cached_property
    def families(self) -> "Subfamilies":
        return subfamilies(self)


def condition(ctx: BraidContext, which: str, k: int) -> bool:
    """Window condition: the side word with window shortened by k letters
    contains no reduced expression of pi ("A" = side 1, "B" = side 2)."""
    side = {"A": 1, "B": 2}[which]
    return not ctx.system.contains_reduced(ctx.side_word(side, k), ctx.pi)


@dataclass(frozen=True, eq=False)
class Subfamilies:
    """The four interface face families (not downward closed) as sets of
    universe masks: d1_int / d2_int hold the faces meeting an internal
    window vertex, d1_F / d2_G those containing the endpoint edge, each
    built through the link isomorphisms of the shortened-window complexes.
    """

    d1_int: frozenset
    d1_F: frozenset
    d2_int: frozenset
    d2_G: frozenset


def _link_families(faces, q: int, m: int) -> tuple[set, set]:
    """Images of the inner faces of one side, over side-word positions: the
    internal family of that side and the endpoint family of the other."""
    internal: set = set()
    for l in range(2, m):
        p = q + l - 1  # bit of window slot l
        low = (1 << p) - 1
        here, prev, nxt = 1 << p, 1 << (p - 1), 1 << (p + 1)
        # star of slot l split along its link: faces reaching the next
        # slot, faces reaching the previous slot, and the bare ones
        a = [x & low | x >> p << (p + 2) | here for x in faces]  # slots l, l+1 opened
        b = [x & low >> 1 | x >> (p - 1) << (p + 1) | here for x in faces]  # l-1, l opened
        internal.update(a, b, [x | nxt for x in a], [x | prev for x in b])
    last = q + m - 1
    # slots 1 and m opened: inner slot t lands on slot t + 1
    endpoint = {x & ((1 << q) - 1) | (x >> q & ((1 << (m - 2)) - 1)) << (q + 1)
                | x >> (last - 1) << (last + 1) | 1 << q | 1 << last for x in faces}
    return internal, endpoint


def subfamilies(f: MoveFacts) -> Subfamilies:
    k1, k2 = (e.word_faces for e in f._entries[2:])  # over inner word positions
    d1_int, d2_G = _link_families(k1, f.q, f.m)
    d2_int, d1_F = _link_families(k2, f.q, f.m)
    return Subfamilies(frozenset(d1_int), frozenset(d1_F),
                       f.from_side2(d2_int), f.from_side2(d2_G))


def tilde(f: MoveFacts, side: int) -> frozenset:
    """Largest subcomplex avoiding the endpoint edge and the internal
    window vertices of the given side, as a set of universe masks."""
    inside, ends = f.internal[side - 1], f.endpoint
    return frozenset(x for x in f.faces[side - 1] if not x & inside and x & ends != ends)


@dataclass(frozen=True, eq=False)
class DecompositionReport:
    """Face-set identities tying the two sides together over the shared
    universe; ``checks`` preserves evaluation order, ``mismatches`` holds
    up to five offending faces (as labels) per failed check.

    The refinement-chain identities presume that no face contains the
    endpoint edge together with an internal window vertex, which is what
    the length-3 window conditions guarantee; they are evaluated only
    then (``chain_checked``).  All other identities are unconditional.
    """

    ok: bool
    checks: tuple[tuple[str, bool], ...]
    mismatches: dict
    chain_checked: bool = True


def verify_decomposition(facts: MoveFacts) -> DecompositionReport:
    faces1, faces2 = facts.faces
    fams = facts.families
    t1, t2 = tilde(facts, 1), tilde(facts, 2)
    (int1, int2), ends = facts.internal, facts.endpoint

    checks: list[tuple[str, bool]] = []
    mismatches: dict = {}

    def record(name: str, got, want) -> None:
        ok = got == want
        checks.append((name, ok))
        if not ok:
            mismatches[name] = facts.face_labels(got ^ want)

    # families against their direct membership descriptions
    record("internal family, side 1", fams.d1_int, {f for f in faces1 if f & int1})
    record("endpoint family, side 1", fams.d1_F, {f for f in faces1 if f & ends == ends})
    record("internal family, side 2", fams.d2_int, {f for f in faces2 if f & int2})
    record("endpoint family, side 2", fams.d2_G, {f for f in faces2 if f & ends == ends})

    # the reduced complexes coincide
    record("reduced complexes equal", t1, t2)

    # side 2 decomposes into the common part and its interface families
    patch2 = fams.d2_int | fams.d2_G
    record("side 2 partition", faces2, t1 | patch2)
    record("side 2 partition disjoint", t1 & patch2, frozenset())

    # both sides patched with the other side's families agree
    record("patched union identity", faces1 | patch2, faces2 | fams.d1_int | fams.d1_F)

    # four expressions for the common refinement; these need that no face
    # holds the endpoint edge and an internal vertex at once
    if facts.chain_checked:
        both = fams.d1_int | fams.d2_int
        record("refinement chain 1=2", (faces1 - fams.d1_F) | fams.d2_int, t1 | both)
        record("refinement chain 2=3", t1 | both, t2 | both)
        record("refinement chain 3=4", t2 | both, (faces2 - fams.d2_G) | fams.d1_int)

    ok = all(flag for _, flag in checks)
    return DecompositionReport(ok, tuple(checks), mismatches, facts.chain_checked)


# -- polynomial bookkeeping -------------------------------------------------


def _coeff_sub(a, b) -> tuple[int, ...]:
    """The coefficients a - b, without trailing zeros."""
    d = [x - y for x, y in zip_longest(a, b, fillvalue=0)]
    while d and d[-1] == 0:
        d.pop()
    return tuple(d)


@dataclass(frozen=True, eq=False)
class PolyDeltaReport:
    """Both sides of the subdivision bookkeeping identities.

    ``delta_h``/``rhs_h`` are monomial dicts {(deg_alpha, deg_t): coeff};
    the gamma fields are coefficient tuples in the substituted variable and
    stay None unless both side complexes are spherical.
    """

    delta_h: dict
    rhs_h: dict
    h_ok: bool
    spherical: tuple[bool, bool]
    delta_gamma: tuple | None
    rhs_gamma: tuple | None
    gamma_ok: bool | None


def polynomial_delta(f: MoveFacts) -> PolyDeltaReport:
    m = f.m
    if not f.supported:
        raise ValueError("needs m <= 3 or both length-3 window conditions")
    d1x, d2x = f.sides
    k1x, k2x = f.inner
    # the sides have h-degree n, the inner complexes n - 2
    n = f.L - f.ctx.system.length(f.ctx.pi)
    h1, h2, hk1, hk2 = (() if x.is_void else x.h_vector() for x in (d1x, d2x, k1x, k2x))
    delta_h = {(k, n - k): c for k, c in enumerate(_coeff_sub(h2, h1)) if c}
    rhs_h = {(k + 1, n - 1 - k): (m - 2) * c
             for k, c in enumerate(_coeff_sub(hk2, hk1)) if m > 2 and c}
    sph = f.spherical
    delta_gamma = rhs_gamma = gamma_ok = None
    if sph[0] and sph[1]:
        try:
            g1, g2, gk1, gk2 = (x.gamma() for x in (d1x, d2x, k1x, k2x))
        except ValueError:  # an inner h-vector is not palindromic
            gamma_ok = False
        else:
            delta_gamma = _coeff_sub(g2, g1)
            dk = _coeff_sub(gk2, gk1)
            rhs_gamma = (0,) + tuple((m - 2) * c for c in dk) if m > 2 and dk else ()
            gamma_ok = delta_gamma == rhs_gamma
    return PolyDeltaReport(delta_h, rhs_h, delta_h == rhs_h, sph,
                           delta_gamma, rhs_gamma, gamma_ok)


# -- classification -----------------------------------------------------------


CASE_NAMES = {
    1: "isomorphic",
    2: "side 1 subdivides side 2",
    3: "side 2 subdivides side 1",
    4: "common refinement",
    None: "unsupported",
}


@dataclass(frozen=True, eq=False)
class CaseReport:
    """Verdict for one braid move.

    ``case`` is 1..4 or None (window too long and the length-3 conditions
    fail, so no structural claim is made).  ``witness`` describes the
    verifying construction and ``witness_ok`` whether it checked out;
    both are None for unsupported moves.
    """

    ctx: BraidContext
    m: int
    case: int | None
    A2: bool
    B2: bool
    A3: bool | None
    B3: bool | None
    supported: bool
    delta1: LabeledComplex
    delta2: LabeledComplex
    names: tuple  # per side, the vertex name of each word position
    witness: dict | None
    witness_ok: bool | None
    decomposition: DecompositionReport
    poly: PolyDeltaReport | None

    @property
    def case_name(self) -> str:
        return CASE_NAMES[self.case]


def _interface_expression_ok(f: MoveFacts, facets) -> bool:
    """Whether the complex with these universe facets has the faces
    (side 1 - d1_F) | d2_int, the common refinement's expression through
    the interface families under the window hypothesis."""
    return (f.faces[0] - f.families.d1_F) | f.families.d2_int == face_set(facets)


def _refine(f: MoveFacts, side: int) -> tuple[frozenset | None, tuple, tuple]:
    """Side 1 or 2 (``side`` 0 or 1) subdivided along the endpoint edge from
    its first window slot at the other side's internal slots, slot m - 1
    first: the universe facets (None without the edge) and the names of
    the edge and of the fresh vertices."""
    own, other = f.bits[side], f.bits[1 - side]
    ends = own[f.q], own[f.q + f.m - 1]
    fresh = [other[p] for p in range(f.q + f.m - 2, f.q, -1)]
    facets = subdivide(f.facets[side], 1 << ends[0], 1 << ends[1], [1 << b for b in fresh])
    return facets, f.names(ends), f.names(fresh)


def classify(ctx: BraidContext, memo: dict | None = None) -> CaseReport:
    """The verdict on one move; ``memo`` is the build memo of a caller that
    classifies several moves over the same words (see ``subword.build``)."""
    f = MoveFacts(ctx, memo)
    m, c = f.m, f.conditions
    names = tuple(f.names(b) for b in f.bits)
    d1x, d2x = f.sides
    dec = verify_decomposition(f)
    poly = polynomial_delta(f) if f.supported else None

    case: int | None = None
    witness: dict | None = None
    witness_ok: bool | None = None
    if m == 2:
        case = 1
    elif f.supported:
        case = {(True, True): 1, (False, True): 2,
                (True, False): 3, (False, False): 4}[(c["A2"], c["B2"])]

    if case == 1:
        witness_ok = f.facets[0] == f.facets[1]
        witness = {"kind": "equality", "map": {names[0][p]: names[0][p] for p in d1x.vertices}}
    elif case:
        refined = _refine(f, 0), _refine(f, 1)
        if case in (2, 3):
            k = 3 - case  # the coarser side, whose refinement is the finer one
            sub, edge, fresh = refined[k]
            witness_ok = sub == f.facets[1 - k]
            witness = {"kind": "subdivision", "of_side": k + 1, "edge": edge, "fresh": fresh}
        else:
            (sub1, edge, fresh1), (sub2, _, fresh2) = refined
            witness_ok = agree = sub1 is not None and sub1 == sub2
            witness = {"kind": "common refinement", "edge": edge, "fresh_from_side_1": fresh1,
                       "fresh_from_side_2": fresh2, "agree": agree}
            if agree and dec.chain_checked:
                witness_ok = _interface_expression_ok(f, sub1)
                witness["interface_expression_matches"] = witness_ok

    return CaseReport(ctx, m, case, c["A2"], c["B2"], c["A3"], c["B3"], f.supported,
                      d1x, d2x, names, witness, witness_ok, dec, poly)


# -- sequences of moves -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SequenceStep:
    pos: int  # 1-based start of the replaced window
    report: CaseReport


@dataclass(frozen=True, eq=False)
class SequenceReport:
    words: tuple[Word, ...]
    steps: tuple[SequenceStep, ...]
    rows: tuple[dict, ...]  # summary per word, aligned with ``words``


def _row_summary(system: CoxeterSystem, word: Word, pi: GroupElement, memo: dict) -> dict:
    entry = position_complex(system, system.check_word(word), pi, memo)
    x, spherical = entry.complex, entry.spherical
    gamma = x.gamma() if spherical else None
    gamma1 = gamma[1] if gamma is not None and len(gamma) > 1 else 0
    return {
        "word": word,
        "f_vector": x.f_vector(),
        "vertices": tuple(p + 1 for p in x.vertices),
        "h_vector": None if x.is_void else x.h_vector(),
        "spherical": spherical,
        "gamma": gamma,
        "gamma1": gamma1,
    }


def move_context(system: CoxeterSystem, word: Word, pos: int,
                 pi: GroupElement) -> BraidContext:
    """Context of the braid move starting at 1-based position ``pos``."""
    word = system.check_word(word)
    for p, i, j, m, _ in system._braid_moves(word):
        if p == pos:
            return BraidContext(system, word[:pos - 1], word[pos - 1 + m:], i, j, pi)
    raise ValueError(f"no braid window at position {pos} of {word}")


def apply_sequence(system: CoxeterSystem, word: Word, pi: GroupElement,
                   positions) -> SequenceReport:
    """Classify each braid move of the sequence and summarize every word;
    each (word, pi) is built once."""
    cur = tuple(word)
    words = [cur]
    steps = []
    memo: dict = {}
    for pos in positions:
        ctx = move_context(system, cur, pos, pi)
        steps.append(SequenceStep(pos, classify(ctx, memo)))
        cur = ctx.side_word(2)
        words.append(cur)
    rows = tuple(_row_summary(system, w, pi, memo) for w in words)
    return SequenceReport(tuple(words), tuple(steps), rows)


def find_move_path(system: CoxeterSystem, start: Word, goal: Word,
                   cap: int = MAX_REDUCED_WORDS) -> list[int]:
    """Shortest braid-move position sequence from start to goal; the cap
    is that of ``CoxeterSystem._braid_search``."""
    w = tuple(goal)
    parent = system._braid_search(system._word(start), cap, w)
    if w not in parent:
        raise ValueError("words are not related by braid moves")
    path = []
    while parent[w] is not None:
        w, pos = parent[w]
        path.append(pos)
    return path[::-1]

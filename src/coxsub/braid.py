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
the witnesses' fresh vertices read these tables, which are made once per
shape (|Q|, m, |Q'|) and shared by its moves and reports (``_shape``).
Each side's complex is its memo entry's, over its own word positions.
Side 2's facets cross by ``from_side2``, the mask form of its table.  The
endpoint edge {f1, fm} is then F on side 1 and G on side 2.  The universe
can exceed 62 bits, so its masks are Python ints.

Outer table.  By the Demazure criterion (Knutson-Miller 2004, section 3)
A | t | B, with A in Q, t in the window W and B in Q', is a face iff
pi <= Dem(Q - A) * Dem(W - t) * Dem(Q' - B): its outer part (A, B) lies in
O(d) for d = Dem(W - t) in the dihedral group W_ij, in all four complexes
of a move, both sides and the words with the window shortened by two.  So
one cut at the window (``_kernels.move_cut``) gives the h of all four, the
sides' facets and the outer pairs, from which one ``OuterTable`` per move
reads d -> O(d); a face family is a ``Family`` {window part: label of its
O}, and no face is listed.  The side word with its window shortened by k
is void iff the label of Dem of its first m - k window letters is 0: the
four window conditions.  The interface families relabel the shortened
windows' parts as the links of window edges do: an inner part opens two
empty slots, at slots l and l+1 for the edge there, or at both endpoints
for F and G.  Checks join, select and compare parts and labels, exactly
as on faces, and name a failure's mismatches from them
(``verify_decomposition``).  Names ("Q1", "f1", "g2", "Q'1", ...) appear
only in ``names``, witnesses and mismatches.

Decided patterns.  Every family of the checklist is {window part: label
of d} over the 2m elements d of W_ij, and the walks, link relabelings,
crossings and selections act on window parts alone, the same for every
|Q| and L up to the uniform shift of the parts by |Q| (and of the lifted
slots by L).  So the checklist, its chain flag, the window conditions and
the witness depend only on m and the labels (``classify``), and
``classify`` looks the report and the witness up in one process-wide
table, ``_DECOMPOSED``, keyed on (m, the outer table's labels in chain
order): one key per set of W_ij's 3m - 1 columns (``OuterTable``), each
checked in the tests for m <= 5.  Only a key not met runs
``verify_decomposition`` and the witness, and only a passing pair is
stored, so a failing move names its own mismatches.

Witnesses.  A verdict is replayed, once per key, on the universe masks of
the sides' facets (``facet_witness``): equal facet sets are equal
complexes, and an iterated edge subdivision turns the facets through the
endpoint edge into new facets over the fresh window bits.
"""

from __future__ import annotations

from functools import cache, cached_property, reduce
from itertools import zip_longest
from typing import NamedTuple

from . import _kernels
from .coxeter import MAX_REDUCED_WORDS, CoxeterSystem, GroupElement, Word
from .simplicial import (FACE_LIMIT_ERROR, MAX_FACES, MAX_WINDOW_PARTS, WINDOW_LIMIT_ERROR,
                         LabeledComplex, _bits, _gamma, subdivide)
from .subword import PositionComplex, SubwordDescriptor, build, position_complex


def _record(cls):
    """A NamedTuple class whose instances compare and hash by identity, as a
    report is one result, not a value; a copy is made by ``_replace``."""
    cls.__eq__, cls.__ne__, cls.__hash__ = object.__eq__, object.__ne__, object.__hash__
    return cls


class BraidContext(NamedTuple("BraidContext", [("system", CoxeterSystem), ("Q", Word),
                                               ("Qp", Word), ("i", int), ("j", int),
                                               ("pi", GroupElement)])):
    """One braid move: prefix Q, window letters i,j, suffix Q', target pi."""

    __slots__ = ()

    def __new__(cls, system: CoxeterSystem, Q: Word, Qp: Word, i: int, j: int,
                pi: GroupElement):
        check = system.check_word
        self = super().__new__(cls, system, check(Q), check(Qp), i, j, pi)
        check((i, j))
        if i == j:
            raise ValueError("window letters must differ")
        check(self.side_word(1))
        return self

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


@cache
def _shape(q: int, m: int, r: int) -> tuple:
    """The universe's names of the moves with |Q| = q, a window of m letters
    and |Q'| = r, shared by their facts and reports; per side, the universe
    bit of each word position, the mask of its internal window slots, the
    name of each word position, and the witness's endpoint edge and fresh
    bits (the other side's internal slots, m - 1 first), named."""
    L = q + m + r
    universe = (*(f"Q{p}" for p in range(1, q + 1)), *(f"f{l}" for l in range(1, m + 1)),
                *(f"Q'{p}" for p in range(1, r + 1)), *(f"g{l}" for l in range(2, m)))
    bits = (tuple(range(L)), (*range(q), q + m - 1, *range(L, L + m - 2), q, *range(q + m, L)))
    ends = [(b[q], b[q + m - 1]) for b in bits]
    fresh = [tuple(b[p] for p in range(q + m - 2, q, -1)) for b in bits[::-1]]
    internal = tuple(sum(1 << b[p] for p in range(q + 1, q + m - 1)) for b in bits)
    named = [tuple(universe[b] for b in x) for x in (*bits, *ends, *fresh)]
    return (universe, bits, internal, tuple(named[:2]),
            tuple(zip(ends, fresh, named[2:4], named[4:])))


class MoveFacts:
    """The derived facts of one braid move.  Made at once: the bit universe
    and its names (``_shape``), and from one cut the h of the four words, the
    outer pairs and both sides' memo entries (``subword.build``).  Made on
    first use: the outer table, the window conditions, and the sides' facets
    as masks, faces and interface families."""

    def __init__(self, ctx: BraidContext, memo: dict | None = None):
        self.ctx = ctx
        self.m = m = ctx.m
        self.q = q = len(ctx.Q)
        self.L = L = q + m + len(ctx.Qp)
        # the names and bit tables of this shape of move, made once (``_shape``)
        (self.universe, self.bits, self.internal, self._side_names,
         self._witness) = _shape(q, m, len(ctx.Qp))
        self.endpoint = 1 << q | 1 << (q + m - 1)
        memo, system, pi = {} if memo is None else memo, ctx.system, ctx.pi
        # the side words, then the words with the window shortened by two,
        # all subwords of the checked side_word(1): none is checked again
        alt, Q, Qp = (ctx.i, ctx.j) * m, ctx.Q, ctx.Qp
        self.words = words = [Q + alt[k:k + m - c] + Qp for c in (0, 2) for k in (0, 1)]
        alt = tuple(map((-1).__add__, alt))  # 0-based letters
        self.windows = windows = alt[:m], alt[1:m + 1]
        if not (known := (words[0], pi) in memo and memo[words[0], pi].cuts.get(q)):
            # one cut: the h of the four words and the outer pairs, kept in side 1's
            # entry, and the sides not in the memo, listed only within the face limit
            start, tables = system._inv(system._id(pi)), (system._right, system._desc)
            Q, Qp = tuple(map((-1).__add__, Q)), tuple(map((-1).__add__, Qp))
            tops = system._demazures(reversed(Q + windows[0] + Qp))
            hs, pairs, made = _kernels.move_cut(system._times, *tables, system._le, Q, windows,
                                                Qp, start, tops, L + 1)
            slot, n = (1 << (L + 1)) - 1, (L - system._len[start] + 1) * (L + 1)
            h = [tuple([x >> k & slot for k in range(0, n - 2 * (c > 1) * (L + 1), L + 1)])
                 if x else () for c, x in enumerate(hs)]
            need = [k for k in (0, 1) if (words[k], pi) not in memo]
            if need and max(sum(h[k]) for k in need) > MAX_FACES:
                raise ValueError(FACE_LIMIT_ERROR)
            lists = _kernels.cut_facets(*tables, Q, windows, Qp, made, need) if h[0] else [[], []]
            for k, facets in zip(need, lists):
                memo[words[k], pi] = PositionComplex(system, words[k], pi,
                                                     (tops[-1] == start, h[k], facets))
            memo[words[0], pi].cuts[q] = known = (*h, pairs)
        self.h, self._pairs = known[:4], known[4]
        # both sides reach ``build`` and find their memo entries
        self.sides = tuple(build(SubwordDescriptor._make((system, w, pi)), memo)
                           for w in words[:2])
        self._entries = entries = memo[words[0], pi], memo[words[1], pi]
        self.spherical = entries[0].spherical, entries[1].spherical

    def names(self, bits) -> tuple[str, ...]:
        """The vertex names of universe bits."""
        return tuple(self.universe[b] for b in bits)

    def from_side2(self, masks) -> list:
        """Universe masks, in order, of side-2 facets or window parts over
        the positions of side_word(2), as ``bits[1]`` maps them: the
        endpoints cross and the internal slots are lifted as one block."""
        q, last = self.q, self.q + self.m - 1
        outer = ~(((1 << self.m) - 1) << q)
        inside, lift = self.internal[0], self.L - q - 1
        return [x & outer | (x >> q & 1) << last | (x >> last & 1) << q
                | (x & inside) << lift for x in masks]

    def face_labels(self, masks) -> tuple[tuple[str, ...], ...]:
        """Up to five faces as sorted label tuples, in sorted order."""
        return tuple(sorted(tuple(sorted(self.names(_bits(f)))) for f in masks)[:5])

    @cached_property
    def conditions(self) -> dict:
        """A2, B2, A3 and B3 by name; the length-3 ones are None at m = 2.
        The side word with its window shortened by k is void iff the outer
        table's label of Dem of its first m - k window letters is 0, read
        along the table's chains: window 1's for A, window 2's for B."""
        labels, m = self.table.labels, self.m
        a2, b2, a3, b3 = (not labels[chain[m - k]] if m >= k else None
                          for k in (2, 3) for chain in self.table.chains)
        return {"A2": a2, "B2": b2, "A3": a3, "B3": b3}

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
        """The facets of both sides as universe masks: side 1's word
        positions as they are, side 2's crossed by ``from_side2``."""
        side1, side2 = self._entries[:2]
        return frozenset(side1.word_facets), frozenset(self.from_side2(side2.word_facets))

    @cached_property
    def table(self) -> OuterTable:
        return OuterTable(self, self._pairs)

    @cached_property
    def walks(self) -> tuple[tuple[Family, Family], ...]:
        """Per side, the families of its window and of its window shortened
        by two, window slot l at the side word's position q + l - 1."""
        return tuple(self.table.walk(w, self.q) for w in self.windows)

    @cached_property
    def faces(self) -> tuple[Family, Family]:
        """The faces of both sides as families, side 2's crossed by ``from_side2``."""
        (faces1, _), (faces2, _) = self.walks
        return faces1, Family(zip(self.from_side2(faces2), faces2.values()))

    @cached_property
    def families(self) -> "Subfamilies":
        return subfamilies(self)


class OuterTable:
    """d -> O(d) for d in W_ij, from the move's outer pairs.  A facet's outer
    part (A, B) is in O(d) iff Dem(Q - A) * d >= u, u the least z with pi <=
    z * Dem(Q' - B) (Deodhar's Z-property), a pair of the cut.  As Dem(Q - A)
    * d rises with d, and W_ij is ordered by length, the d with a pair's parts
    in O(d), its column, are chains[0][l0:] + chains[1][l1:], l0 and l1 where
    the pair enters O along each window chain, or (0, 0) when u <= Dem(Q - A)
    (``CoxeterSystem._column``): bit l0 * (m + 2) + l1 of ``labels[d]``.  The
    facets' outer parts hold every generator of O(d), so labels compare,
    include and join as O does.  ``labels`` lists W_ij in chain order: the
    Demazure products of the prefixes of window 1 (``chains[0]``), then the
    new ones of window 2's."""

    def __init__(self, f: MoveFacts, pairs):
        self.system = system = f.ctx.system
        self.pair = i, j = f.windows[0][:2]
        self.chains = chains = system._chain(i, j), system._chain(j, i)
        self.labels = labels = dict.fromkeys(chains[0] + chains[1], 0)
        for n in {system._column(i, j, a, u) for a, u in pairs}:
            for d in chains[0][n // (f.m + 2):] + chains[1][n % (f.m + 2):]:
                labels[d] |= 1 << n
        # side 1's facets and letters up to Q', for ``parts`` (no reference to f)
        self._side1 = f._entries[0].word_facets, f.words[0][:f.q + f.m], f.q

    @cached_property
    def parts(self) -> dict:
        """Side 1's facets' outer parts with their column bits, to name a failed
        check's faces; a pair is the product of the taken letters before the
        window, then before Q'."""
        (facets, head, q), times, parts = self._side1, self.system._times, {}
        i, j = self.pair
        for x in facets:
            a = reduce(times, [s - 1 for p, s in enumerate(head[:q]) if not x >> p & 1], 0)
            u = reduce(times, [s - 1 for p, s in enumerate(head[q:], q) if not x >> p & 1], a)
            parts.setdefault(x & ~((1 << len(head)) - (1 << q)), self.system._column(i, j, a, u))
        return parts

    def walk(self, letters, lo: int) -> tuple[Family, Family]:
        """The labelled window parts with a non-empty O of a window of two or
        more 0-based letters, slot p at universe bit lo + p, and of that
        window without its last two letters.  A walk over the slots keeps
        per part Dem of the letters left out of it, in W_ij, and only the
        parts whose Dem with all later letters has a label, as O(d) grows
        with d in Bruhat order; a part without slot p has its parent's
        completions.  Past MAX_WINDOW_PARTS kept parts it refuses."""
        labels, desc, times = self.labels, self.system._desc, self.system._times

        def dem(d: int, s: int) -> int:  # the Demazure product d * s
            return d if desc[d] >> s & 1 else times(d, s)

        parts = {0: 0} if labels[reduce(dem, letters, 0)] else {}
        for p, s in enumerate(letters):
            if p == len(letters) - 2:
                short = Family({k: labels[d] for k, d in parts.items() if labels[d]})
            nxt, b, rest = {}, 1 << (lo + p), letters[p + 1:]
            for k, d in parts.items():
                nxt[k] = dem(d, s)
                if labels[reduce(dem, rest, d)]:
                    nxt[k | b] = d
            if len(nxt) > MAX_WINDOW_PARTS:
                raise ValueError(WINDOW_LIMIT_ERROR)
            parts = nxt
        return Family({k: labels[d] for k, d in parts.items()}), short

    def generators(self, label: int) -> list[int]:
        """The facets' outer parts in the O of a label, which generate it."""
        return [x for x, n in self.parts.items() if label >> n & 1]


class Family(dict):
    """A face family {window part: label}, the faces k | x over the outer
    parts x of the label's O, no label 0.  A difference removes whole
    parts, exact for a selection of the family; an intersection keeps the
    shared parts with their labels' common bits, 0 included."""

    __slots__ = ()

    def __or__(self, other: Family) -> Family:
        out = Family(self)
        for k, label in other.items():
            out[k] = out.get(k, 0) | label
        return out

    def __sub__(self, other: Family) -> Family:
        return Family({k: label for k, label in self.items() if k not in other})

    def __and__(self, other: Family) -> Family:
        return Family({k: label & other[k] for k, label in self.items() if k in other})


@_record
class Subfamilies(NamedTuple):
    """The four interface face families (not downward closed): d1_int /
    d2_int hold the faces meeting an internal window vertex, d1_F / d2_G
    those containing the endpoint edge, each built through the link
    isomorphisms of the shortened-window complexes."""

    d1_int: Family
    d1_F: Family
    d2_int: Family
    d2_G: Family


def _link_families(faces: Family, q: int, m: int) -> tuple[Family, Family]:
    """Images of the inner faces of one side, window parts over side-word
    positions: the internal family of that side and the endpoint family of
    the other; the labels of parts that meet are joined."""
    internal = Family()
    for l in range(2, m):
        p = q + l - 1  # bit of window slot l
        low = (1 << p) - 1
        here, prev, nxt = 1 << p, 1 << (p - 1), 1 << (p + 1)
        # star of slot l split along its link: faces reaching the next
        # slot, faces reaching the previous slot, and the bare ones
        for x, label in faces.items():
            a = x & low | x >> p << (p + 2) | here  # slots l, l+1 opened
            b = x & low >> 1 | x >> (p - 1) << (p + 1) | here  # l-1, l opened
            for key in (a, b, a | nxt, b | prev):
                internal[key] = internal.get(key, 0) | label
    # slots 1 and m opened: inner slot t lands on slot t + 1
    return internal, Family({x << 1 | 1 << q | 1 << (q + m - 1): label
                             for x, label in faces.items()})


def subfamilies(f: MoveFacts) -> Subfamilies:
    q, m = f.q, f.m
    (_, k1), (_, k2) = f.walks  # the shortened windows
    d1_int, d2_G = _link_families(k1, q, m)
    d2_int, d1_F = _link_families(k2, q, m)
    return Subfamilies(d1_int, d1_F, *(Family(zip(f.from_side2(d), d.values()))
                                       for d in (d2_int, d2_G)))


def tilde(f: MoveFacts, side: int) -> Family:
    """Largest subcomplex avoiding the endpoint edge and the internal
    window vertices of the given side, as a family."""
    inside, ends = f.internal[side - 1], f.endpoint
    return Family({k: v for k, v in f.faces[side - 1].items()
                   if not k & inside and k & ends != ends})


@_record
class DecompositionReport(NamedTuple):
    """Face-set identities tying the two sides together over the shared
    universe; ``checks`` preserves evaluation order, ``mismatches`` holds
    up to five faces (as labels) on one side only of each failed check.
    The refinement-chain identities presume that no face contains the
    endpoint edge together with an internal window vertex, which the
    length-3 window conditions guarantee; they are evaluated only then
    (``chain_checked``).  All other identities are unconditional."""

    ok: bool
    checks: tuple[tuple[str, bool], ...]
    mismatches: dict
    chain_checked: bool = True


# (m, the outer table's labels in chain order) -> the report of a passing
# decomposition, which depends on these alone (see the module docstring)
_DECOMPOSED: dict = {}


def _one_sided(generators, got: Family, want: Family):
    """Faces of got alone or of want alone: a part k of one side only, and
    k | g for each generator g of a bit of one label of k only."""
    for k in got.keys() | want.keys():
        if (a := got.get(k)) != (b := want.get(k)):
            if a is None or b is None:
                yield k
            yield from (k | g for g in generators((a or 0) ^ (b or 0)))


def verify_decomposition(facts: MoveFacts) -> DecompositionReport:
    """The checklist over the move's families, no face listed.  Lemma: the
    checks are those of the face sets.  Every label a family carries is a
    join of outer-table labels, so a facet's outer part of column n lies in
    O(L) iff bit n of L is set (``OuterTable``).  Hence joins are unions of
    faces, equal labels part by part mean equal face sets, and selections
    by a predicate on parts select faces; the refinement chains subtract
    the selections through the endpoint edge.  Every non-empty O holds the
    empty outer part, so two families share a face iff they share a part.
    The checks use these operations alone.  A failed check names up to five
    faces on one side only (``_one_sided``; an intersection's lie on both)."""
    (faces1, faces2), (d1_int, d1_F, d2_int, d2_G) = facts.faces, facts.families
    (int1, int2), ends, chain = facts.internal, facts.endpoint, facts.chain_checked
    t1, t2, patch2 = tilde(facts, 1), tilde(facts, 2), d2_int | d2_G
    # each side's faces through an internal vertex and through the endpoint edge
    members = (Family({k: v for k, v in faces1.items() if k & int1}),
               Family({k: v for k, v in faces1.items() if k & ends == ends}),
               Family({k: v for k, v in faces2.items() if k & int2}),
               Family({k: v for k, v in faces2.items() if k & ends == ends}))
    rows = [*zip(("internal family, side 1", "endpoint family, side 1",
                  "internal family, side 2", "endpoint family, side 2"),
                 (d1_int, d1_F, d2_int, d2_G), members),
            ("reduced complexes equal", t1, t2),
            ("side 2 partition", faces2, t1 | patch2),
            ("side 2 partition disjoint", t1 & patch2, Family()),
            ("patched union identity", faces1 | patch2, faces2 | d1_int | d1_F)]
    if chain:  # four expressions for the common refinement
        both = d1_int | d2_int
        t1b, t2b = t1 | both, t2 | both
        rows += [("refinement chain 1=2", faces1 - members[1] | d2_int, t1b),
                 ("refinement chain 2=3", t1b, t2b),
                 ("refinement chain 3=4", t2b, faces2 - members[3] | d1_int)]
    checks = tuple((name, got == want) for name, got, want in rows)
    mismatches = {name: facts.face_labels(set(_one_sided(facts.table.generators, got, want)))
                  for name, got, want in rows if got != want}
    return DecompositionReport(not mismatches, checks, mismatches, chain)


# -- polynomial bookkeeping -------------------------------------------------


def _coeff_sub(a, b) -> tuple[int, ...]:
    """The coefficients a - b, without trailing zeros."""
    d = [x - y for x, y in zip_longest(a, b, fillvalue=0)]
    while d and d[-1] == 0:
        d.pop()
    return tuple(d)


@_record
class PolyDeltaReport(NamedTuple):
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
    """With both sides spheres, Dem(side) = pi, and a word with the window shortened
    by two, a subword, is void (gamma ()) or has Dem = pi, a sphere: gamma is defined."""
    m = f.m
    if not f.supported:
        raise ValueError("needs m <= 3 or both length-3 window conditions")
    # the sides have h-degree n, the inner complexes n - 2 (void sides have no terms)
    h1, h2, hk1, hk2 = f.h
    n = len(h1) - 1
    delta_h = {(k, n - k): c for k, c in enumerate(_coeff_sub(h2, h1)) if c}
    rhs_h = {(k + 1, n - 1 - k): (m - 2) * c
             for k, c in enumerate(_coeff_sub(hk2, hk1)) if m > 2 and c}
    sph = f.spherical
    delta_gamma = rhs_gamma = gamma_ok = None
    if sph[0] and sph[1]:
        g1, g2, gk1, gk2 = [_gamma(h) for h in (h1, h2, hk1, hk2)]
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


@_record
class CaseReport(NamedTuple):
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


def facet_witness(f: MoveFacts, case: int) -> bool:
    """The verdict replayed on the sides' universe facets: equal for case 1,
    else the coarser side (both for case 4) subdivided along the endpoint
    edge at the other side's internal slots (``_shape``), as the finer one."""
    subs = [subdivide(f.facets[k], 1 << ends[0], 1 << ends[1], [1 << b for b in fresh])
            if case in (4, 3 - k) else f.facets[k]
            for k, (ends, fresh, *_) in enumerate(f._witness)]
    return (case != 4 or subs[0] is not None) and subs[0] == subs[1]


def classify(ctx: BraidContext, memo: dict | None = None) -> CaseReport:
    """The verdict on one move; ``memo`` is the build memo of a caller that
    classifies several moves over the same words (see ``subword.build``).
    Lemma (* the Demazure product, J = {i, j}, m >= 3, 0 < k < m): pi <= x*d*y for
    both d in W_J of length k gives pi <= x*e*y for an e of length k - 1.  Induct on
    l(y): pi <= g*r iff min(pi, pi r) <= g (Z-property, lifting).  At y = e, the d
    starting with a descent s of x has x*d = x*(d - s); else x*d = xd, and pi <= xdt
    if d ends in a t that is no descent of pi; else pi = pi^J w0(J), pi^J u <= x for
    both u of length m - k, and the top of [e, x] in pi^J W_J (Billey-Fan-Losonczy
    1999) lies above a v of length m - k + 1.  So with x = Dem(Q), y = Dem(Q'),
    k = m - 2, not A2 and not B2 exclude A3 and B3: case 4 is never chain-checked.

    Lemma: like the checklist (``verify_decomposition``), ``witness_ok`` is a
    function of m and the outer labels.  The case is read off the labels, a
    side's faces are its window walk's family over the O of the labels, and
    an iterated edge subdivision at window slots rewrites window parts and
    keeps their labels: the complexes compared are families over the same
    O, equal iff their parts and labels are, as in the checklist."""
    f = MoveFacts(ctx, memo)
    m, c, names = f.m, f.conditions, f._side_names
    d1x, d2x = f.sides
    case: int | None = None
    if m == 2:
        case = 1
    elif f.supported:
        case = {(True, True): 1, (False, True): 2,
                (True, False): 3, (False, False): 4}[(c["A2"], c["B2"])]
    # a label pattern that passed before passes again with the same report
    key = (m, tuple(f.table.labels.values()))
    if (known := _DECOMPOSED.get(key)) is None:
        known = verify_decomposition(f), facet_witness(f, case) if case else None
        if known[0].ok and known[1] is not False:
            _DECOMPOSED[key] = known
    dec, witness_ok = known
    poly = polynomial_delta(f) if f.supported else None

    witness: dict | None = None
    if case == 1:
        witness = {"kind": "equality", "map": {names[0][p]: names[0][p] for p in d1x.vertices}}
    elif case in (2, 3):
        k = 3 - case  # the coarser side, whose refinement is the finer one
        edge, fresh = f._witness[k][2:]
        witness = {"kind": "subdivision", "of_side": k + 1, "edge": edge, "fresh": fresh}
    elif case:
        (edge, fresh1), (_, fresh2) = f._witness[0][2:], f._witness[1][2:]
        witness = {"kind": "common refinement", "edge": edge, "fresh_from_side_1": fresh1,
                   "fresh_from_side_2": fresh2, "agree": witness_ok}

    return CaseReport(ctx, m, case, c["A2"], c["B2"], c["A3"], c["B3"], f.supported,
                      d1x, d2x, names, witness, witness_ok, dec, poly)


# -- sequences of moves -------------------------------------------------------


@_record
class SequenceStep(NamedTuple):
    pos: int  # 1-based start of the replaced window
    report: CaseReport


@_record
class SequenceReport(NamedTuple):
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
            return BraidContext._make((system, word[:pos - 1], word[pos - 1 + m:], i, j, pi))
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
    start, w = system.check_word(start), system.check_word(goal)
    parent = system._braid_search(start, cap, w)
    if w not in parent:
        raise ValueError("words are not related by braid moves")
    path = []
    while parent[w] is not None:
        w, pos = parent[w]
        path.append(pos)
    return path[::-1]

"""The hot loops of the subword DP; the submask fill and ``popcounts`` serve the bench alone.

Conventions:
  * generator indices are 0-based here (the public API is 1-based),
  * a word position set and a facet are each one bitmask in a Python int,
    bit p for position p,
  * group elements are the integer ids a CoxeterSystem interns them under,
    id 0 the identity; right[g][s] is the id of g*s, desc[g] the bitmask of
    right descents of g.

The subword DP walks the vertex decomposition of Delta(word; pi)
(Knutson-Miller 2004) on states (p, w) standing for Delta(word[p:]; w^-1),
w = pi^-1 u for the product u of the letters taken before position p.  A
forward pass (``subword_layers``) lists the live states, of non-void
complexes, before each position, with their transfers: the sum over the
paths to a state of t per link at a descent.  The backward passes, direct
loops with no callback per state, fold the states after p into those
before it, from the identity after the word, the complex {()}, or from a
table of states after a part of it.  With s = word[p], a state w
without the right descent s is a cone over its link (p + 1, w); else it
splits into the deletion (p + 1, w s) and the link, or is its deletion
when the link is void: the deletion and a cone link of a live state are
never void.  The start states must be live.  The h pass packs a state's h
into one int, coefficient k at bit k * b: a coefficient counts facets, fewer
than 2^b, so no slot carries, and packed ints multiply as polynomials.

A braid move changes only its window, so ``move_cut`` answers its four words
Q + window + Q' at once: h = sum over the states v after the window of the
transfer T_v times H_v, the h of Q' from v.  A facet's path meets states w
and v before and after the window; (pi w, pi v) is its outer pair.
"""

from __future__ import annotations


def subword_layers(times, desc, le, letters, tops, b, T, U=None, O=None):
    """The live states w <= Dem(letters[p:])^-1 before each position p with
    their transfers (b-bit slots) from {state: transfer} T, ``tops`` giving
    Dem(letters[p + 1:])^-1; only a link at a descent is tested.  U and O, if
    given, carry u = pi w and joined origin masks to the last layer."""
    layers = [T]
    for s, top in zip(letters, tops):
        nt, nu, no = {}, U and {}, O and {}
        for w, c in T.items():
            if desc[w] >> s & 1:
                x = times(w, s)
                nt[x] = nt.get(x, 0) + c
                if U:
                    nu[x] = times(U[w], s)
                    if O:
                        no[x] = no.get(x, 0) | O[w]
                if not le(w, top):
                    continue
                c <<= b
            nt[w] = nt.get(w, 0) + c
            if U:
                nu[w] = U[w]
                if O:
                    no[w] = no.get(w, 0) | O[w]
        layers.append(T := nt)
        U, O = nu, no
    return layers, U, O


def subword_h(right, desc, word, layers):
    """The h-vector as len(word) + 1 coefficients: h(deletion) + t h(link) at a
    descent, else h(link), the leaf 1, packed in slots of len(word) + 1 bits."""
    b, (start,) = len(word) + 1, layers[0]
    packed = _fold_h(right, desc, word, layers, b, {0: 1})[start]
    return tuple([packed >> k & (1 << b) - 1 for k in range(0, b * b, b)])


def _fold_h(right, desc, word, layers, b, vals):
    """The packed h of every state of layers[0], from ``vals`` after the word."""
    for p in range(len(word) - 1, -1, -1):
        s, below, vals = word[p], vals, {}
        for w in layers[p]:
            vals[w] = below[right[w][s]] + (below.get(w, 0) << b) if desc[w] >> s & 1 \
                else below[w]
    return vals


def subword_facets(right, desc, word, layers):
    """The facets, masks over word positions, each the complement of a reduced
    word of pi: at a descent the deletion's facets, then the link's plus p;
    at a cone point every facet takes p."""
    (start,) = layers[0]
    return _fold_facets(right, desc, word, layers, 0, {0: [0]})[start]


def _fold_facets(right, desc, word, layers, lo, vals):
    """The facets of every state of layers[0], position p at bit lo + p, from
    ``vals`` after the word."""
    for p in range(len(word) - 1, -1, -1):
        s, b, below, vals = word[p], 1 << (lo + p), vals, {}
        for w in layers[p]:
            if not desc[w] >> s & 1:
                vals[w] = [x | b for x in below[w]]
            elif w in below:
                vals[w] = below[right[w][s]] + [x | b for x in below[w]]
            else:
                vals[w] = below[right[w][s]]
    return vals


def move_cut(times, right, desc, le, Q, windows, Qp, start, tops, b):
    """The packed h (slots of b bits) of Q + w + Q' at pi^-1 = ``start``, for w
    each window and then each without its last two letters, the outer pairs
    of windows[0] and the layers of the cut; ``tops`` as for Q + windows[0] + Q'."""
    r, m = len(Qp), len(windows[0])
    prefix, A, _ = subword_layers(times, desc, le, Q, reversed(tops[:-1]), b, {start: 1},
                                  {start: 0})
    heads = list(prefix[-1])
    walk1, U, O = subword_layers(times, desc, le, windows[0], reversed(tops[r:r + m]), b,
                                 prefix[-1], A, {w: 1 << n for n, w in enumerate(heads)})
    wt = [tops[r]]  # Dem(windows[1][p + 1:] + Q')^-1, the last p first
    for s in reversed(windows[1][1:]):
        wt.append(wt[-1] if desc[wt[-1]] >> s & 1 else times(wt[-1], s))
    walk2 = subword_layers(times, desc, le, windows[1], reversed(wt), b, prefix[-1])[0]
    rows = walk1[-1], walk2[-1], walk1[-3], walk2[-3]
    suffix = subword_layers(times, desc, le, Qp, reversed(tops[:r]), b,
                            {v: 0 for v in set().union(*rows) if le(v, tops[r])})[0]
    H = _fold_h(right, desc, Qp, suffix, b, {0: 1})
    pairs = {(A[w], U[v]) for v, o in O.items() if v in H
             for n, w in enumerate(heads) if o >> n & 1}
    return ([sum([c * H[v] for v, c in row.items() if v in H]) for row in rows], pairs,
            (prefix, (walk1, walk2), suffix))


def cut_facets(right, desc, Q, windows, Qp, made, sides):
    """The facets of the words of ``move_cut`` numbered ``sides``: Q' folded
    back once, then each side's Q and window over the cut's layers."""
    prefix, walks, suffix = made
    (start,), q = prefix[0], len(Q)
    S = _fold_facets(right, desc, Qp, suffix, q + len(windows[0]), {0: [0]})
    return [_fold_facets(right, desc, Q + windows[k], prefix[:-1] + walks[k], 0, S)[start]
            for k in sides]


def fill_submasks(facets, out: list) -> int:
    """Append every submask of every facet mask to the list out; returns
    how many were appended, sum(2**popcount(f)).

    Duplicates across facets are kept; the caller deduplicates.
    """
    start = len(out)
    for f in facets:
        subs = [0]
        while f:
            low = f & -f
            subs += [x | low for x in subs]
            f ^= low
        out += subs
    return len(out) - start


def popcounts(masks, out: list) -> list:
    """Per-element popcount of nonnegative int masks, written into out."""
    out[:] = map(int.bit_count, masks)
    return out

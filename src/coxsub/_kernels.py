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
w = pi^-1 u for the product u of the letters taken before position p.  With
s = word[p], a state w without the right descent s is a cone over its link
(p + 1, w); else it splits into the deletion (p + 1, w s) and the link, or
is its deletion when the link is void: the deletion and a cone link of a
live state are never void.  So h = h(deletion) + t h(link) is linear in the
states: the forward pass (``subword_layers``) lists the live states, of
non-void complexes, before each position with their transfers, the sum over
the paths to a state of t per link at a descent, and the transfer at the
identity after the word, the complex {()}, is h.  A transfer packs
coefficient k at bit k * b: a coefficient counts paths, fewer than 2^b over
fewer than b letters, so no slot carries.  Only the facet pass folds back,
a direct loop with no callback per state, from the identity after the word
or from a table of states after a part of it.  Start states must be live.

A braid move changes only its window, so ``move_cut`` answers its four words
Q + window + Q' at once: their transfers after the window, one field of
b * b bits per word, start one forward pass over Q', whose transfer at the
identity holds the four h.  A facet's path meets states w and v before and
after the window; (pi w, pi v) is its outer pair.
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


def unpack_h(x, b, n):
    """The first n coefficients of an h packed in slots of b bits, () when
    none is set: the complex is void."""
    h = tuple([x >> k & (1 << b) - 1 for k in range(0, n * b, b)])
    return h if any(h) else ()


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


def move_cut(times, desc, le, Q, windows, Qp, start, tops, b):
    """The packed h (slots of b bits) of Q + w + Q' at pi^-1 = ``start``, for
    w each window and then each without its last two letters, carried over
    Q' as fields of b * b bits of one transfer; the outer pairs of
    windows[0] and the layers of the cut; ``tops`` as for Q + windows[0] + Q'."""
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
    # word k's transfers from the live states after its window, at bit k * b * b
    rows = walk1[-1], walk2[-1], walk1[-3], walk2[-3]
    T = {v: sum([row.get(v, 0) << k * b * b for k, row in enumerate(rows)])
         for v in set().union(*rows) if le(v, tops[r])}
    suffix = subword_layers(times, desc, le, Qp, reversed(tops[:r]), b, T)[0]
    pairs = {(A[w], U[v]) for v, o in O.items() if v in T
             for n, w in enumerate(heads) if o >> n & 1}
    h = suffix[-1].get(0, 0)
    return ([h >> k * b * b & (1 << b * b) - 1 for k in range(4)], pairs,
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

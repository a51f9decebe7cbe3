"""The hot loops: reduced-subword enumeration and face enumeration.

Conventions:
  * generator indices are 0-based here (the public API is 1-based),
  * a word position set, a facet and a face are each one bitmask in a
    Python int, bit p for position or vertex p,
  * group elements are the integer ids a CoxeterSystem interns them under,
    id 0 being the identity, and the enumeration reads three tables the
    system owns: right[g][s] is the id of g*s, or -1 until step(g, s)
    computes and records it; desc[g] is the bitmask of right descents of
    g; length[g] is its Coxeter length.
"""

from __future__ import annotations


def reduced_subword_masks(right, desc, length, step, word, start):
    """Position masks of the subwords of ``word`` that are reduced words of pi.

    ``start`` is the id of pi^-1.  Positions are read left to right, and
    w = pi^-1 u is kept for the product u of the letters taken so far.  A
    subword is a reduced word of pi exactly when each of its letters is a
    right descent of the w before it and w ends at the identity, so a
    letter is taken only when it is a descent of w, and a branch dies once
    fewer than l(w) positions remain.  Every branch step is a table read.

    word: tuple of 0-based letters.

    Returns the masks in search order.
    """
    L = len(word)
    out = []
    stack = [(0, start, 0)]
    while stack:
        p, w, mask = stack.pop()
        if w == 0:
            out.append(mask)
            continue
        d = desc[w]
        row = right[w]
        # the next letter taken sits at or before position L - l(w)
        for q in range(p, L - length[w] + 1):
            s = word[q]
            if d >> s & 1:
                nxt = row[s]
                if nxt < 0:
                    nxt = step(w, s)
                stack.append((q + 1, nxt, mask | 1 << q))
    return out


def fill_submasks(facets, out: list) -> int:
    """Append every submask of every facet mask to the list out; returns
    how many were appended, sum(2**popcount(f)).

    Duplicates across facets are kept; the caller deduplicates.  Each
    facet's submasks start as [0] and double once per facet bit.
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

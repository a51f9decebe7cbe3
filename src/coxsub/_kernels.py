"""The hot loops: reduced-subword enumeration and face-set bit tricks.

Conventions:
  * generator indices are 0-based here (the public API is 1-based),
  * a word position set is one bitmask, bit p for position p; the face
    helpers take int64 numpy arrays, so ambient words are limited to 62
    letters,
  * group elements are the integer ids a CoxeterSystem interns them under,
    id 0 being the identity, and the enumeration reads three tables the
    system owns: right[g][s] is the id of g*s, or -1 until step(g, s)
    computes and records it; desc[g] is the bitmask of right descents of
    g; length[g] is its Coxeter length.
"""

from __future__ import annotations

import numpy as np


def reduced_subword_masks(right, desc, length, step, word, start, stop_after=None):
    """Position masks of the subwords of ``word`` that are reduced words of pi.

    ``start`` is the id of pi^-1.  Positions are read left to right, and
    w = pi^-1 u is kept for the product u of the letters taken so far.  A
    subword is a reduced word of pi exactly when each of its letters is a
    right descent of the w before it and w ends at the identity, so a
    letter is taken only when it is a descent of w, and a branch dies once
    fewer than l(w) positions remain.  Every branch step is a table read.

    word: tuple of 0-based letters.
    stop_after: return as soon as this many masks have been found.

    Returns the masks in search order.
    """
    L = len(word)
    out = []
    stack = [(0, start, 0)]
    while stack:
        p, w, mask = stack.pop()
        if w == 0:
            out.append(mask)
            if stop_after is not None and len(out) >= stop_after:
                break
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


def fill_submasks(facets, out):
    """Write every submask of every facet mask into out; returns count.

    Duplicates across facets are kept; the caller deduplicates.  out must
    hold sum(2**popcount(f)) entries.  Facets of one size are done together:
    each row of their block starts as [0] and doubles once per facet bit.
    """
    by_size: dict[int, list[int]] = {}
    for f in facets.tolist():
        by_size.setdefault(f.bit_count(), []).append(f)
    idx = 0
    for k, group in by_size.items():
        rest = np.array(group, dtype=np.int64)
        block = out[idx: idx + (len(group) << k)].reshape(len(group), 1 << k)
        block[:, 0] = 0
        for b in range(k):
            low = rest & -rest
            block[:, 1 << b: 2 << b] = block[:, : 1 << b] | low[:, None]
            rest ^= low
        idx += block.size
    return idx


def popcounts(masks, out):
    """Per-element popcount of nonnegative int64 masks, written into out."""
    x = masks - ((masks >> 1) & 0x5555555555555555)
    x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333)
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0F
    x = x + (x >> 8)
    x = x + (x >> 16)
    x = x + (x >> 32)
    out[:] = x & 0x7F
    return out

"""The hot loops: the backward passes of the subword DP and the submask fill.

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
forward pass (``CoxeterSystem._subword_layers``) lists the live states, of
non-void complexes, before each position; the passes fold them back.
"""

from __future__ import annotations


def subword_pass(right, desc, word, layers, leaf, cone, split):
    """The value of the start state, which must be live; the identity after
    the last position, the complex {()}, has the value ``leaf``.  With
    s = word[p], a state w without the right descent s is a cone over its
    link (p + 1, w), of value cone(link, p); else it has split(rest, link, p),
    rest the value of the deletion (p + 1, w s), or rest itself when the link
    is void: the deletion and a cone link of a live state are never void."""
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


def subword_h(right, desc, word, layers):
    """h-vector: h(deletion) + t h(link) at a descent, else h(link), 0."""
    return subword_pass(right, desc, word, layers, (1,), lambda link, p: link + (0,),
                        lambda rest, link, p: tuple(map(sum, zip(rest, (0,) + link))))


def reduced_subword_masks(right, desc, word, layers):
    """Masks of the subwords of ``word`` that are reduced words of pi, the
    complements of the facets: at a descent the deletion's facets, then the
    link's plus p; at a cone point every facet takes p."""
    full = (1 << len(word)) - 1
    return [full ^ f for f in subword_pass(
        right, desc, word, layers, [0], lambda link, p: [x | 1 << p for x in link],
        lambda rest, link, p: rest + [x | 1 << p for x in link])]


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

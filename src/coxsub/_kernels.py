"""The hot loops: the forward and backward passes of the subword DP, the submask fill.

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
complexes, before each position; the backward passes fold them back.
"""

from __future__ import annotations


def subword_layers(times, desc, le, letters, start, tops):
    """The live states w <= Dem(letters[p:])^-1 before each position p, from the
    live id ``start`` of pi^-1; ``tops`` lists Dem(letters[p:])^-1, the last p first.
    A deletion or a cone link of a live state lives: only a link at a descent is tested."""
    layers = [{start}]
    for s, top in zip(letters, reversed(tops[:-1])):
        here = layers[-1]
        layers.append({times(w, s) if desc[w] >> s & 1 else w for w in here})
        layers[-1].update([w for w in here if desc[w] >> s & 1 and le(w, top)])
    return layers


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


def subword_facets(right, desc, word, layers):
    """The facets, masks over word positions, each the complement of a reduced
    word of pi: at a descent the deletion's facets, then the link's plus p;
    at a cone point every facet takes p."""
    return subword_pass(right, desc, word, layers, [0],
                        lambda link, p: [x | 1 << p for x in link],
                        lambda rest, link, p: rest + [x | 1 << p for x in link])


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

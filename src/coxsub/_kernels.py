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
complexes, before each position.  The backward passes, one direct loop
each with no callback per state, fold the states after p into those
before it, from the identity after the last position, the complex {()}.
With s = word[p], a state w without the right descent s is a cone over its
link (p + 1, w); else it splits into the deletion (p + 1, w s) and the
link, or is its deletion when the link is void: the deletion and a cone
link of a live state are never void.  The start state must be live.
"""

from __future__ import annotations


def subword_layers(times, desc, le, letters, start, tops):
    """The live states w <= Dem(letters[p:])^-1 before each position p, from the
    live id ``start`` of pi^-1; ``tops`` lists Dem(letters[p:])^-1, the last p first.
    A deletion or a cone link of a live state lives: only a link at a descent is tested."""
    layers = [{start}]
    for s, top in zip(letters, reversed(tops[:-1])):
        layers.append(nxt := set())
        for w in layers[-2]:
            if desc[w] >> s & 1:
                nxt.add(times(w, s))
                if not le(w, top):
                    continue
            nxt.add(w)
    return layers


def subword_h(right, desc, word, layers):
    """The h-vector packed into one int, coefficient k at bit 64k: h(deletion)
    + t h(link) at a descent, else h(link), the leaf 1.  A coefficient counts
    facets of a live state, at most C(62, 31) < 2^59 for a word of at most
    MAX_WORD_LETTERS letters, so no slot carries into the next."""
    vals = {0: 1}
    for p in range(len(word) - 1, -1, -1):
        s, below, vals = word[p], vals, {}
        for w in layers[p]:
            vals[w] = below[right[w][s]] + (below.get(w, 0) << 64) if desc[w] >> s & 1 \
                else below[w]
    (start,) = layers[0]
    return vals[start]


def subword_facets(right, desc, word, layers):
    """The facets, masks over word positions, each the complement of a reduced
    word of pi: at a descent the deletion's facets, then the link's plus p;
    at a cone point every facet takes p."""
    vals = {0: [0]}
    for p in range(len(word) - 1, -1, -1):
        s, b, below, vals = word[p], 1 << p, vals, {}
        for w in layers[p]:
            if not desc[w] >> s & 1:
                vals[w] = [x | b for x in below[w]]
            elif w in below:
                vals[w] = below[right[w][s]] + [x | b for x in below[w]]
            else:
                vals[w] = below[right[w][s]]
    (start,) = layers[0]
    return vals[start]


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

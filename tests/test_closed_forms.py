"""Closed-form oracles past the brute-force range: for c = 1..n, the
subword complex Delta(c w0(c); w0) is the cluster complex of W
(Ceballos-Labbe-Stump, Subword complexes, cluster complexes, and
generalized multi-associahedra, 2014), whose facets number the W-Catalan
number and whose h-vector is the W-Narayana numbers (Fomin-Reading, Root
systems and generalized associahedra, 2007).  Its gamma vector is known in
types A and B (Postnikov-Reiner-Williams, Faces of generalized
permutohedra, 2008), and it is a flag sphere (Fomin-Zelevinsky 2003)."""

from fractions import Fraction
from math import comb

import pytest

from conftest import c_sorting_word, system
from coxsub.subword import position_complex


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def family_rank(name: str) -> tuple[str, int]:
    """The family letter and the rank, or ("I", m) for I2:m."""
    head, _, m = name.partition(":")
    return (head[0], int(m)) if m else (name[0], int(name[1:]))


def narayana(name: str) -> tuple[int, ...]:
    """The W-Narayana numbers, h_0..h_n of the cluster complex."""
    family, n = family_rank(name)
    if family == "A":  # N(n+1, k+1)
        return tuple(comb(n + 1, k + 1) * comb(n + 1, k) // (n + 1) for k in range(n + 1))
    if family == "B":
        return tuple(comb(n, k) ** 2 for k in range(n + 1))
    if family == "D":
        return tuple(int(comb(n, k) ** 2 - Fraction(n, n - 1) * comb(n - 1, k)
                         * (comb(n - 1, k - 1) if k else 0)) for k in range(n + 1))
    if family == "I":  # I2:m
        return (1, n, 1)
    return {"E6": (1, 36, 204, 351, 204, 36, 1), "F4": (1, 24, 55, 24, 1),
            "H3": (1, 15, 15, 1)}[name]


def gamma(name: str) -> tuple[int, ...] | None:
    family, n = family_rank(name)
    if family == "A":
        return tuple(comb(n, 2 * i) * catalan(i) for i in range(n // 2 + 1))
    if family == "B":
        return tuple(comb(n, i) * comb(n - i, i) for i in range(n // 2 + 1))
    return None


CATALAN = {**{f"A{n}": catalan(n + 1) for n in range(2, 10)},
           **{f"B{n}": comb(2 * n, n) for n in range(2, 8)},
           **{f"D{n}": (3 * n - 2) * comb(2 * n - 2, n - 1) // n for n in range(4, 8)},
           "E6": 833, "F4": 105, "H3": 32, "I2:7": 9}


@pytest.mark.parametrize("name", CATALAN)
def test_cluster_complex(name):
    W = system(name)
    w0 = W.longest_element()
    word = tuple(range(1, W.rank + 1)) + c_sorting_word(W)
    assert len(word) == W.rank + W.length(w0)
    entry = position_complex(W, word, w0, {})
    x = entry.complex
    assert len(x.facets) == sum(entry.h) == CATALAN[name]
    assert x.h_vector() == narayana(name)
    assert entry.spherical and x.gamma() is not None
    if gamma(name) is not None:
        assert x.gamma() == gamma(name)
    if len(x.facets) <= 1000:
        assert x.is_flag()

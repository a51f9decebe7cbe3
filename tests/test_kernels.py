import random
import re
from math import comb

import pytest

from conftest import (brute_facets, contains_reduced, fold_facets, fold_h, forward_layers,
                      oracle_case, random_pi, run_facets, subword_split_faces, system)
from coxsub import _kernels, backend, cli
from coxsub.coxeter import MAX_WORD_LETTERS, CoxeterMatrix, CoxeterSystem
from coxsub.simplicial import FACE_LIMIT_ERROR
from coxsub.subword import PositionComplex, position_complex


def test_python_masks_match_library():
    A2 = system("A2")
    w0 = A2.longest_element()
    got = run_facets(A2, (1, 2, 1, 2, 1), w0)
    # the library's facets are the kernel's, in its order
    entry = position_complex(A2, (1, 2, 1, 2, 1), w0, {})
    assert got == entry.word_facets
    assert len(got) == 5
    # a void instance finds nothing
    assert run_facets(A2, (1, 2), w0) == []
    # and so over seeded words of four groups, void or not
    rng = random.Random(33)
    for k in range(40):
        sys_ = system(("A2", "A3", "B3", "H3")[k % 4])
        word = tuple(rng.randrange(1, sys_.rank + 1) for _ in range(rng.randrange(0, 10)))
        pi = random_pi(sys_, rng, word)
        assert run_facets(sys_, word, pi) == position_complex(sys_, word, pi, {}).word_facets


def test_kernel_masks_match_brute():
    rng = random.Random(22)
    for _ in range(60):
        sys_ = system(rng.choice(("A2", "A3", "B3", "H3")))
        word = tuple(rng.randrange(1, sys_.rank + 1) for _ in range(rng.randrange(0, 11)))
        pi = random_pi(sys_, rng, word)
        got = run_facets(sys_, word, pi)
        assert len(got) == len(set(got))
        facets = {frozenset(p + 1 for p in range(len(word)) if f >> p & 1) for f in got}
        assert facets == brute_facets(sys_, word, pi)


def test_forward_pass_lists_exactly_the_live_states():
    # (p, w) is live when Delta(word[p:]; w^-1) is not void by the 2^L scan;
    # the forward pass lists every live state reachable from the start and
    # no other, and each fold visits exactly those
    visited = set()

    class Layer(set):
        """A layer that records the (position, state) pairs iterated."""
        def __init__(self, p, states):
            super().__init__(states)
            self.p = p

        def __iter__(self):
            for w in set.__iter__(self):
                visited.add((self.p, w))
                yield w

    rng = random.Random(16)
    seen = {"void": 0, "live": 0, "dead reached": 0}
    for k in range(60):
        sys_ = system(("A3", "B3", "H3", "A4")[k % 4])
        word = tuple(rng.randrange(1, sys_.rank + 1) for _ in range(rng.randrange(0, 11)))
        word, pi = oracle_case(sys_, rng, word, k // 4 % 5)
        if not contains_reduced(sys_, word, pi):
            seen["void"] += 1
            continue
        letters, desc = tuple(a - 1 for a in word), sys_._desc
        start = sys_._id(sys_.inverse(pi))
        layers = forward_layers(sys_, letters, start)
        reached = [{start}]  # a deletion at a descent, a link at every position
        for s in letters:
            reached.append({sys_._times(w, s) for w in reached[-1] if desc[w] >> s & 1}
                           | reached[-1])
        live = [{w for w in states
                 if brute_facets(sys_, word[p:], sys_.inverse(sys_._elements[w]))}
                for p, states in enumerate(reached)]
        assert len(layers) == len(live)
        for p, states in enumerate(layers):
            assert states <= live[p], ("a dead state is listed", word, p)
            assert live[p] <= states, ("a live state is missing", word, p)
        counted = [Layer(p, states) for p, states in enumerate(layers)]
        # the live states before the last position, and the start, read also
        # when the word is empty
        want = {(p, w) for p, states in enumerate(live[:-1]) for w in states} | {(0, start)}
        # the oracle's face fold, with a window over the middle third of the word
        third = len(letters) // 3
        faces = lambda right, desc, letters, layers: subword_split_faces(
            right, desc, letters, layers, range(len(letters)), third, len(letters) - third)
        for kernel in (_kernels.subword_h, _kernels.subword_facets, faces):
            visited.clear()
            kernel(sys_._right, desc, letters, counted)
            assert visited == want
        seen["live"] += 1
        seen["dead reached"] += live != reached
    assert min(seen.values()) >= 5, seen


def test_packed_h_and_facets_match_the_generic_fold(capsys):
    # the kernel's h, packed inside it, is the tuple fold's h padded with
    # zeros to len(word) + 1 coefficients, and the memo entry keeps the
    # fold's h; its facets are the fold's, in order
    rng = random.Random(38)
    cases = []
    for k in range(150):
        sys_ = system(("A3", "B3", "H3", "A4", "D4", "B4")[k % 6])
        word = tuple(rng.randrange(1, sys_.rank + 1) for _ in range(rng.randrange(0, 15)))
        cases.append((sys_, *oracle_case(sys_, rng, word, k // 6 % 5)))
    # words of MAX_WORD_LETTERS letters
    for name, kind in (("A3", 4), ("A4", 3), ("B4", 4), ("D4", 2), ("H3", 1)):
        sys_ = system(name)
        word = tuple(rng.randrange(1, sys_.rank + 1) for _ in range(MAX_WORD_LETTERS))
        cases.append((sys_, *oracle_case(sys_, rng, word, kind)))
    # F4's w0 in (1,2,3,4)^15 1,2: a coefficient past 2^32
    F4, B4 = system("F4"), system("B4")
    cases.append((F4, (1, 2, 3, 4) * 15 + (1, 2), F4.longest_element()))
    cases.append((B4, (1, 2, 3, 4) * 15, B4.longest_element()))
    seen = {"void": 0, "facets": 0, "h only": 0}
    top = 0
    for sys_, word, pi in cases:
        entry = PositionComplex(sys_, word, pi, facets=False)
        if not contains_reduced(sys_, word, pi):
            assert entry.h == ()
            seen["void"] += 1
            continue
        letters, tables = tuple(a - 1 for a in word), (sys_._right, sys_._desc)
        layers = forward_layers(sys_, letters, sys_._id(sys_.inverse(pi)))
        h = fold_h(*tables, letters, layers)
        assert entry.h == h and len(h) == len(word) - sys_.length(pi) + 1, (word, pi)
        assert _kernels.subword_h(*tables, letters, layers) == h + (0,) * (len(word) + 1 - len(h))
        top = max(top, *h)
        if sum(h) <= 50_000:
            assert _kernels.subword_facets(*tables, letters, layers) == fold_facets(
                *tables, letters, layers)
            seen["facets"] += 1
        else:
            seen["h only"] += 1
    assert len(cases) >= 120 and min(seen.values()) >= 5, seen
    assert top > 2 ** 32
    # (1,2,3,4)^15 at w0 in B4 has 6,892,441,920 facets: its h is made, then
    # the facet pass is refused, and the command exits 2
    assert sum(PositionComplex(B4, (1, 2, 3, 4) * 15, B4.longest_element(), False).h) \
        == 6_892_441_920
    with pytest.raises(ValueError, match=re.escape(FACE_LIMIT_ERROR)):
        PositionComplex(B4, (1, 2, 3, 4) * 15, B4.longest_element())
    assert cli.main(["complex", "--group", "B4", "--pi", "w0",
                     "--word", ",".join(["1,2,3,4"] * 15)]) == 2
    assert "error:" in capsys.readouterr().err


def test_h_kernel_exact_past_64_bit_slots():
    # the boundary of the 70-dimensional cross-polytope: A1^70, the word
    # 1,1,2,2,..,70,70 and pi = s1 s2 .. s70, whose h is (C(70, k)); its
    # middle coefficient passes 2^64, and the word passes the input bound,
    # so the kernel is called directly
    n = 70
    sys_ = CoxeterSystem(CoxeterMatrix([[1 if i == j else 2 for j in range(n)] for i in range(n)]))
    word = tuple(k for k in range(1, n + 1) for _ in "ab")
    letters, pi = tuple(a - 1 for a in word), sys_.element_of(range(1, n + 1))
    layers = forward_layers(sys_, letters, sys_._id(sys_.inverse(pi)))
    tables = sys_._right, sys_._desc
    h = _kernels.subword_h(*tables, letters, layers)
    assert h == tuple(comb(n, k) for k in range(n + 1)) + (0,) * n
    assert h[:n + 1] == fold_h(*tables, letters, layers)
    assert h[n // 2] > 2 ** 64 and len(word) > MAX_WORD_LETTERS


def test_popcounts():
    masks = [0, 1, 3, 0b1011, 2 ** 62 - 1, 2 ** 40 + 2 ** 13]
    want = [bin(m).count("1") for m in masks]
    out = [0] * len(masks)
    backend.active.popcounts(masks, out)
    assert out == want


def test_fill_submasks():
    facets = [0b101, 0b11]
    want_count = 2 ** 2 + 2 ** 2
    out = []
    n = backend.active.fill_submasks(facets, out)
    assert n == want_count == len(out)
    got = sorted(out)
    assert got == sorted([0b101, 0b100, 0b001, 0, 0b11, 0b10, 0b01, 0])
    # facets of mixed sizes, against the submask loop
    rng = random.Random(5)
    facets = [rng.getrandbits(rng.randrange(0, 13)) for _ in range(30)]
    want = []
    for f in facets:
        sub = f
        while True:
            want.append(sub)
            if sub == 0:
                break
            sub = (sub - 1) & f
    out = [-1]  # the count is of what was appended
    assert backend.active.fill_submasks(facets, out) == len(want)
    assert sorted(out[1:]) == sorted(want)


def test_backend_name_consistent():
    assert backend.backend_name() == "python"
    assert sorted(vars(backend.active)) == ["fill_submasks", "popcounts",
                                            "reduced_subword_masks"]

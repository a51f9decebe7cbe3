import random

from conftest import brute_facets, random_pi, run_masks, system
from coxsub import backend
from coxsub.subword import position_complex


def test_python_masks_match_library():
    A2 = system("A2")
    w0 = A2.longest_element()
    got = sorted(run_masks(A2, (1, 2, 1, 2, 1), w0))
    # the library's facets are the complements of the kernel's masks
    entry = position_complex(A2, (1, 2, 1, 2, 1), w0, {})
    assert got == sorted(0b11111 ^ f for f in entry.word_facets)
    assert len(got) == 5
    # a void instance finds nothing
    assert run_masks(A2, (1, 2), w0) == []


def test_kernel_masks_match_brute():
    rng = random.Random(22)
    for _ in range(60):
        sys_ = system(rng.choice(("A2", "A3", "B3", "H3")))
        word = tuple(rng.randrange(1, sys_.rank + 1) for _ in range(rng.randrange(0, 11)))
        pi = random_pi(sys_, rng, word)
        got = run_masks(sys_, word, pi)
        assert len(got) == len(set(got))
        full = (1 << len(word)) - 1
        facets = {frozenset(p + 1 for p in range(len(word)) if (full ^ m) >> p & 1)
                  for m in got}
        assert facets == brute_facets(sys_, word, pi)


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

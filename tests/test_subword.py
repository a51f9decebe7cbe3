import random

import pytest

from conftest import (brute_facets, brute_is_face, counted_f, counted_h, edge_masks,
                      face_label_sets, face_masks, face_set, facet_label_sets, has_face,
                      k_subdivide, link_oracle_check, named, oracle_case, random_descriptor,
                      random_pi, same_faces, spherical_complex, split_faces, subword_h_oracle,
                      system)
from coxsub import braid, subword
from coxsub.simplicial import MAX_VERTICES, LabeledComplex, iso_invariant
from coxsub.subword import (SubwordDescriptor, build, complex_json, complex_summary,
                            position_complex)


def spherical(d: SubwordDescriptor) -> bool:
    return position_complex(d.system, d.word, d.pi, {}).spherical


def test_descriptor_validation():
    A2 = system("A2")
    w0 = A2.longest_element()
    with pytest.raises(ValueError):
        SubwordDescriptor(A2, (1, 3), w0)  # letter out of range


def test_pentagon():
    A2 = system("A2")
    w0 = A2.longest_element()
    d = SubwordDescriptor(A2, (1, 2, 1, 2, 1), w0)
    x = build(d)
    assert x.f_vector() == (5, 5)
    assert x.h_vector() == (1, 3, 1)
    assert x.gamma() == (1, 1)
    assert x.is_flag()
    assert spherical(d)
    assert set(facet_label_sets(named(x, range(1, 6)))) == {  # position p named p + 1
        frozenset(f) for f in ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5))}


def test_duplicated_word_square():
    # doubled letters make antipodal pairs: the complex is the square boundary
    A2 = system("A2")
    w0 = A2.longest_element()
    d = SubwordDescriptor(A2, (1, 1, 2, 2, 1), w0)
    assert build(d).f_vector() == (4, 4)
    x = named(build(d), range(1, 6))  # position p named p + 1
    assert set(x.vertices) == {1, 2, 3, 4}  # position 5 is in every facet complement
    assert not has_face(x, (1, 2)) and not has_face(x, (3, 4))
    assert has_face(x, (1, 3)) and has_face(x, (2, 4))
    assert spherical(d)


def test_single_empty_face():
    A2 = system("A2")
    w0 = A2.longest_element()
    d = SubwordDescriptor(A2, (1, 2, 1), w0)
    x = build(d)
    assert same_faces(x, LabeledComplex((), (0,)))
    assert x.h_vector() == (1,) and x.gamma() == (1,)


def test_void():
    A2 = system("A2")
    w0 = A2.longest_element()
    d = SubwordDescriptor(A2, (1, 2), w0)  # too short to contain pi
    x = build(d)
    assert x.is_void
    assert not has_face(x, ())
    assert not spherical(d)


def test_spherical_iff_demazure():
    rng = random.Random(6)
    for _ in range(60):
        d = random_descriptor(rng)
        assert spherical(d) == (d.system.demazure_product(d.word) == d.pi)
        x = build(d)
        if spherical(d) and not x.is_void:
            h = x.h_vector()
            assert h == h[::-1]  # sphere: palindromic by Dehn-Sommerville


def test_is_face_matches_brute():
    rng = random.Random(7)
    for _ in range(40):
        d = random_descriptor(rng, max_len=8)
        x = named(build(d), range(1, len(d.word) + 1))
        for _ in range(6):
            k = rng.randrange(0, len(d.word) + 1)
            probe = tuple(sorted(rng.sample(range(1, len(d.word) + 1), k)))
            want = brute_is_face(d.system, d.word, d.pi, probe)
            assert has_face(x, probe) == want


def test_facets_match_brute():
    rng = random.Random(8)
    for _ in range(40):
        d = random_descriptor(rng, max_len=8)
        x = named(build(d), range(1, len(d.word) + 1))
        want = brute_facets(d.system, d.word, d.pi)
        if x.is_void:
            assert want == set()
        else:
            got = set(facet_label_sets(x))
            # brute facets include non-vertex positions explicitly
            assert got == want


def test_link_oracle():
    rng = random.Random(9)
    checked = 0
    while checked < 40:
        d = random_descriptor(rng, max_len=8)
        x = build(d)
        if x.is_void or not x.vertices:
            continue
        fs = sorted(face_label_sets(x), key=lambda f: (len(f), sorted(map(str, f))))
        face = tuple(fs[rng.randrange(len(fs))])
        assert link_oracle_check(d, face)
        checked += 1


def test_complex_json():
    A2 = system("A2")
    w0 = A2.longest_element()
    out = complex_json(SubwordDescriptor(A2, (1, 2, 1, 2, 1), w0))
    assert out["word"] == [1, 2, 1, 2, 1]
    assert out["f_vector"] == [5, 5]
    assert out["h_vector"] == [1, 3, 1]
    assert out["gamma"] == [1, 1]
    assert out["spherical"] and out["flag"]
    assert sorted(out["vertices"]) == ["1", "2", "3", "4", "5"]
    assert all(len(f) == 2 for f in out["facets"])
    void = complex_json(SubwordDescriptor(A2, (1, 2), w0))
    assert void["facets"] == [] and void["h_vector"] is None
    assert void["gamma"] is None


def _with_counted_h(x: LabeledComplex) -> LabeledComplex:
    """x itself when it has an h; else, as for a complex made by hand, x
    made again with its face-counted h, so that its summary can read f and
    h."""
    return x if x.h is not None else LabeledComplex(x.vertices, x.facets, counted_h(x))


def _facets_by_labels(x: LabeledComplex) -> list:
    """The facets of ``complex_summary`` read through the vertex labels."""
    index = {v: k for k, v in enumerate(x.vertices)}
    return sorted(sorted(index[v] for v in fs) for fs in facet_label_sets(x))


def test_complex_summary_facets_match_label_reference():
    rng = random.Random(31)
    cases = [LabeledComplex.void(), LabeledComplex((), (0,)),
             LabeledComplex.from_facets([("b", "a"), ("c", "b")], vertex_order="cba")]
    for _ in range(20):
        _, x = spherical_complex(rng)
        labels = [("v", k) if k % 2 else f"x{k}" for k in range(len(x.vertices))]
        rng.shuffle(labels)
        y = named(x, dict(zip(x.vertices, labels)))
        cases += [x, y]
        for e in edge_masks(y)[:1]:
            s, t = (y.vertices[k] for k in range(len(labels)) if e >> k & 1)
            cases += [k_subdivide(y, (s, t), 1, ("fresh",)),
                      k_subdivide(y, (t, s), 2, ("r1", "r2"))]
    assert len(cases) > 60  # most complexes had an edge to subdivide
    for x in map(_with_counted_h, cases):
        out = complex_summary(x, {v: f"<{v}>" for v in x.vertices})
        assert out["facets"] == _facets_by_labels(x)
        assert out["vertices"] == [f"<{v}>" for v in x.vertices]


def test_complex_summary_facets_match_bit_definition():
    # rows read a byte at a time, across one, two and up to eight bytes;
    # the facets are sparse and of one size, so f and h stay cheap
    rng = random.Random(20)
    cases = []
    for lo, hi in ((1, 8), (9, 16), (17, MAX_VERTICES)):
        for _ in range(40):
            n = rng.randint(lo, hi)
            k = rng.randint(1, min(n, 6))
            facets = {sum(1 << v for v in rng.sample(range(n), k))
                      for _ in range(rng.randint(1, 12))}
            facets.add(sum(1 << v for v in rng.sample(range(n - 1), k - 1)) | 1 << n - 1)
            cases.append(LabeledComplex(range(n), facets))
    A1 = system("A1")
    cases.append(build(SubwordDescriptor(A1, (1,) * 40, A1.element_of((1,)))))
    assert len(cases[-1].vertices) == 40 and cases[-1].facets[0].bit_count() == 39
    for x in map(_with_counted_h, cases):
        n = len(x.vertices)
        assert complex_summary(x, range(n))["facets"] == sorted(
            [k for k in range(n) if f >> k & 1] for f in x.facets)


def _snapshot(x: LabeledComplex) -> tuple:
    return (x.vertices, x.facets, face_masks(x), x.f_vector(),
            iso_invariant(x))


def test_memo_relabel_matches_fresh_build():
    # what a memo serves is its entry's complex itself, in every fact equal
    # to a fresh build; no relabelled copy stands between them
    rng = random.Random(12)
    voids = 0
    for k in range(40):
        sys_ = system(rng.choice(("A3", "B3", "H3")))
        word = tuple(rng.randrange(1, sys_.rank + 1) for _ in range(rng.randrange(1, 10)))
        pi = sys_.longest_element() if k % 4 == 0 else random_pi(sys_, rng, word)
        memo: dict = {}
        d = SubwordDescriptor(sys_, word, pi)
        served, fresh = build(d, memo), build(d)
        assert build(d, memo) is served
        assert len(memo) == 1
        assert _snapshot(served) == _snapshot(fresh)
        assert served is not fresh and same_faces(served, fresh)
        if fresh.is_void:
            voids += 1
            with pytest.raises(ValueError):
                served.h_vector()
        else:
            assert served.h_vector() == fresh.h_vector()
            assert served.is_flag() == fresh.is_flag()
    assert voids >= 3


def test_one_demazure_fold_per_build(monkeypatch):
    # a fresh entry folds one Demazure chain, the reversed word's, which
    # bounds its forward pass and tells a void complex and a sphere
    from coxsub.coxeter import CoxeterSystem

    rng = random.Random(34)
    cases = []
    for k in range(50):
        sys_ = system(("A3", "B3", "H3")[k % 3])
        word = tuple(rng.randrange(1, sys_.rank + 1) for _ in range(rng.randrange(0, 10)))
        word, pi = oracle_case(sys_, rng, word, k // 3 % 5)
        dem = sys_.demazure_product(word)
        cases.append((sys_, word, pi, dem == pi, not sys_.bruhat_le(pi, dem)))
    folds = []
    fold = CoxeterSystem._demazures
    monkeypatch.setattr(CoxeterSystem, "_demazures",
                        lambda self, letters: folds.append(1) or fold(self, letters))
    seen = set()
    for sys_, word, pi, sphere, void in cases:
        folds.clear()
        entry = subword.PositionComplex(sys_, word, pi)
        assert len(folds) == 1, (sys_.name, word, pi)
        assert entry.spherical == sphere and (entry.h == ()) == void
        assert entry.complex.is_void == void
        seen.add((sphere, void))
    assert seen == {(True, False), (False, False), (False, True)}


def test_build_is_the_memo_entry_complex():
    rng = random.Random(13)
    for _ in range(30):
        d = random_descriptor(rng)
        memo: dict = {}
        x = build(d, memo)
        assert x is position_complex(d.system, d.word, d.pi, memo).complex
        # its vertices are the 0-based positions of the facets' positions
        assert set(x.vertices) == {p - 1 for f in brute_facets(d.system, d.word, d.pi)
                                   for p in f}


def test_summaries_read_their_memo_entry_once(monkeypatch):
    seen = []
    entry = position_complex

    def counted(*args):
        seen.append(args[1])
        return entry(*args)

    for module in (subword, braid):
        monkeypatch.setattr(module, "position_complex", counted)
    A2 = system("A2")
    w0 = A2.longest_element()
    complex_json(SubwordDescriptor(A2, (1, 2, 1, 2, 1), w0))
    assert seen == [(1, 2, 1, 2, 1)]
    row = braid._row_summary(A2, (1, 2, 1, 2), w0, {})
    assert seen == [(1, 2, 1, 2, 1), (1, 2, 1, 2)] and row["spherical"]


def test_h_recursion_matches_faces():
    # the vertex-decomposition h and the f it determines, against the
    # same facets counted face by face
    rng = random.Random(13)
    seen = {"void": 0, "empty face": 0, "cone point": 0, "spherical": 0}
    for k in range(120):
        sys_ = system(("A3", "B3", "H3", "A4", "D4", "B4")[k % 6])
        word = tuple(rng.randrange(1, sys_.rank + 1) for _ in range(rng.randrange(0, 11)))
        pi = sys_.demazure_product(word) if k % 3 == 0 else random_pi(sys_, rng, word)
        if k % 10 == 1:
            pi = sys_.longest_element()  # mostly void
        x = build(SubwordDescriptor(sys_, word, pi))
        if x.is_void:
            seen["void"] += 1
            assert x.f_vector() == counted_f(x) == ()
            continue
        assert x.h_vector() == counted_h(x)
        assert x.f_vector() == counted_f(x)
        seen["empty face"] += x.facets == (0,)
        common = x.facets[0]
        for f in x.facets:
            common &= f
        seen["cone point"] += common != 0
        seen["spherical"] += sys_.demazure_product(word) == pi
    assert min(seen.values()) >= 3, seen


def test_subword_dp_matches_oracles():
    # h, facets and faces of the one forward pass and its backward passes,
    # against the set-based h recursion, the 2^L facet scan and the
    # submasks of the facets; the faces are split at a random window, with
    # the positions on randomly permuted bits
    rng, split_rng = random.Random(31), random.Random(32)
    seen = {"void": 0, "empty face": 0, "spherical": 0, "general": 0}
    for k in range(90):
        sys_ = system(("A2", "A3", "B3", "H3", "A4", "D4")[k % 6])
        word = tuple(rng.randrange(1, sys_.rank + 1) for _ in range(rng.randrange(0, 13)))
        word, pi = oracle_case(sys_, rng, word, k // 6 % 5)
        entry = position_complex(sys_, word, pi, {})
        want_h = subword_h_oracle(sys_, word, pi)
        x = entry.complex
        bits = split_rng.sample(range(len(word)), len(word))
        lo = split_rng.randrange(len(word) + 1)
        hi = split_rng.randrange(lo, len(word) + 1)
        split = split_faces(sys_, word, pi, bits, lo, hi)
        if x.is_void:
            seen["void"] += 1
            assert want_h is None and entry.word_facets == [] and split == {}
            assert brute_facets(sys_, word, pi) == set()
            continue
        seen["empty face"] += x.facets == (0,)
        seen["spherical" if entry.spherical else "general"] += 1
        assert x.h_vector() == want_h
        assert {frozenset(p + 1 for p in range(len(word)) if f >> p & 1)
                for f in entry.word_facets} == brute_facets(sys_, word, pi)
        window = sum(1 << bits[p] for p in range(lo, hi))
        assert all(k | window == window for k in split)
        assert all(outer and all(not o & window for o in outer) for outer in split.values())
        faces = [k | o for k, outer in split.items() for o in outer]
        assert len(faces) == len(set(faces))
        assert set(faces) == {sum(1 << bits[p] for p in range(len(word)) if f >> p & 1)
                              for f in face_set(entry.word_facets)}
    assert min(seen.values()) >= 5, seen

import random

import pytest

from conftest import (brute_facets, brute_is_face, face_label_sets, has_face, k_subdivide,
                      link_oracle_check, random_descriptor, random_pi, spherical_complex,
                      system)
from coxsub.simplicial import LabeledComplex, iso_invariant
from coxsub.subword import (SubwordDescriptor, build, complex_json, complex_summary,
                            position_complex)


def spherical(d: SubwordDescriptor) -> bool:
    return position_complex(d.system, d.word, d.pi, {}).spherical


def test_descriptor_validation():
    A2 = system("A2")
    w0 = A2.longest_element()
    with pytest.raises(ValueError):
        SubwordDescriptor(A2, (1, 3), w0)  # letter out of range
    with pytest.raises(ValueError):
        SubwordDescriptor(A2, (1, 2), w0, labels=("a",))  # wrong label count
    with pytest.raises(ValueError):
        SubwordDescriptor(A2, (1, 2), w0, labels=("a", "a"))
    # default labels are the 1-based positions
    assert SubwordDescriptor(A2, (1, 2), w0).labels == (1, 2)


def test_pentagon():
    A2 = system("A2")
    w0 = A2.longest_element()
    d = SubwordDescriptor(A2, (1, 2, 1, 2, 1), w0)
    x = build(d)
    assert x.f_vector() == (5, 5)
    assert x.h_vector() == (1, 3, 1)
    assert x.gamma().coeffs == (1, 1)
    assert x.is_flag()
    assert spherical(d)
    assert set(x.facet_label_sets()) == {
        frozenset(f) for f in ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5))}


def test_duplicated_word_square():
    # doubled letters make antipodal pairs: the complex is the square boundary
    A2 = system("A2")
    w0 = A2.longest_element()
    d = SubwordDescriptor(A2, (1, 1, 2, 2, 1), w0)
    x = build(d)
    assert x.f_vector() == (4, 4)
    assert set(x.vertices) == {1, 2, 3, 4}  # position 5 is in every facet complement
    assert not has_face(x, (1, 2)) and not has_face(x, (3, 4))
    assert has_face(x, (1, 3)) and has_face(x, (2, 4))
    assert spherical(d)


def test_single_empty_face():
    A2 = system("A2")
    w0 = A2.longest_element()
    d = SubwordDescriptor(A2, (1, 2, 1), w0)
    x = build(d)
    assert x == LabeledComplex.empty_face_only()
    assert x.h_vector() == (1,) and x.gamma().coeffs == (1,)


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
        x = build(d)
        for _ in range(6):
            k = rng.randrange(0, len(d.word) + 1)
            probe = tuple(sorted(rng.sample(range(1, len(d.word) + 1), k)))
            want = brute_is_face(d.system, d.word, d.pi, probe)
            assert has_face(x, probe) == want


def test_facets_match_brute():
    rng = random.Random(8)
    for _ in range(40):
        d = random_descriptor(rng, max_len=8)
        x = build(d)
        want = brute_facets(d.system, d.word, d.pi)
        if x.is_void:
            assert want == set()
        else:
            got = set(x.facet_label_sets())
            # brute facets include non-vertex positions explicitly
            assert got == want


def test_custom_labels_flow_through():
    A2 = system("A2")
    w0 = A2.longest_element()
    d = SubwordDescriptor(A2, (1, 2, 1, 2, 1), w0,
                          labels=("a", "b", "c", "d", "e"))
    x = build(d)
    assert set(x.vertices) == {"a", "b", "c", "d", "e"}
    assert has_face(x, ("a", "b"))
    assert has_face(x, ("a", "e"))


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


def _facets_by_labels(x: LabeledComplex) -> list:
    """The facets of ``complex_summary`` read through the vertex labels."""
    index = {v: k for k, v in enumerate(x.vertices)}
    return sorted(sorted(index[v] for v in fs) for fs in x.facet_label_sets())


def test_complex_summary_facets_match_label_reference():
    rng = random.Random(31)
    cases = [LabeledComplex.void(), LabeledComplex.empty_face_only(),
             LabeledComplex.from_facets([("b", "a"), ("c", "b")], vertex_order="cba")]
    for _ in range(20):
        _, x = spherical_complex(rng)
        labels = [("v", k) if k % 2 else f"x{k}" for k in range(len(x.vertices))]
        rng.shuffle(labels)
        y = x.relabel(labels)
        cases += [x, y]
        for e in y.edge_masks()[:1]:
            s, t = (y.vertices[k] for k in range(len(labels)) if e >> k & 1)
            cases += [y.edge_subdivide((s, t), "fresh"),
                      k_subdivide(y, (t, s), 2, ("r1", "r2"))]
    assert len(cases) > 60  # most complexes had an edge to subdivide
    for x in cases:
        assert complex_summary(x)["facets"] == _facets_by_labels(x)


def _snapshot(x: LabeledComplex) -> tuple:
    return (x.vertices, x.facets, x.faces_masks(), x.f_vector(),
            iso_invariant(x))


def test_memo_relabel_matches_fresh_build():
    rng = random.Random(12)
    voids = 0
    for k in range(40):
        sys_ = system(rng.choice(("A3", "B3", "H3")))
        word = tuple(rng.randrange(1, sys_.rank + 1) for _ in range(rng.randrange(1, 10)))
        pi = sys_.longest_element() if k % 4 == 0 else random_pi(sys_, rng, word)
        labels = tuple(f"v{t}" if t % 2 else t for t in rng.sample(range(100), len(word)))
        memo: dict = {}
        build(SubwordDescriptor(sys_, word, pi), memo)  # the memo's first request
        d = SubwordDescriptor(sys_, word, pi, labels=labels)
        source = position_complex(d.system, d.word, d.pi, memo).complex
        before = (source.vertices, source.facets)
        served, fresh = build(d, memo), build(d)
        assert len(memo) == 1
        assert _snapshot(served) == _snapshot(fresh)
        assert served == fresh
        if fresh.is_void:
            voids += 1
            with pytest.raises(ValueError):
                served.h_vector()
        else:
            assert served.h_vector() == fresh.h_vector()
            assert served.is_flag() == fresh.is_flag()
            # the face tuple the relabels share is immutable
            with pytest.raises(TypeError):
                served.faces_masks()[0] = 1
        # the relabel left the labels and facets of its source as they were,
        # and the facts it computed hold for the source too
        assert (source.vertices, source.facets) == before
        assert source.vertices == tuple(labels.index(v) for v in served.vertices)
        assert _snapshot(source)[1:] == _snapshot(fresh)[1:]
    assert voids >= 3


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
        counted = LabeledComplex(x.vertices, x.facets)  # no shared cache
        if x.is_void:
            seen["void"] += 1
            assert x.f_vector() == counted.f_vector() == ()
            continue
        assert x.h_vector() == counted.h_vector()
        assert x.f_vector() == counted.f_vector()
        seen["empty face"] += x.facets == (0,)
        common = x.facets[0]
        for f in x.facets:
            common &= f
        seen["cone point"] += common != 0
        seen["spherical"] += sys_.demazure_product(word) == pi
    assert min(seen.values()) >= 3, seen


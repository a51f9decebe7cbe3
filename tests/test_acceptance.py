"""Acceptance gate: one test per shipped criterion, each printing a
pass/fail line and enforcing its stated time budget.

Timed sections run after a warmup fixture so compiled-kernel caching is
not billed to the criterion.
"""

import itertools
import json
import random
import time

import pytest

from conftest import (brute_facets, condition, contains_reduced, counted_h, f_label,
                      face_label_sets, facet_label_sets, flat_faces, has_face, link,
                      link_oracle_check, named, random_context, random_descriptor,
                      side_descriptor, spherical_complex, subdivide, system)
from coxsub.braid import (BraidContext, MoveFacts, apply_sequence, classify, subfamilies,
                          tilde, verify_decomposition)
from coxsub.rhoposet import build_rho, poset_json
from coxsub.simplicial import LabeledComplex
from coxsub.subword import SubwordDescriptor, build, complex_json

# descriptors and complexes built while running criteria 1-8; criterion 9
# replays the sphericity bookkeeping over all of them
_BUILT: list[SubwordDescriptor] = []


def _note(d: SubwordDescriptor) -> SubwordDescriptor:
    _BUILT.append(d)
    return d


def _line(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    A2 = system("A2")
    w0 = A2.longest_element()
    x = build(SubwordDescriptor(A2, (1, 2, 1, 2, 1), w0))
    x.f_vector(), x.h_vector(), x.is_flag()
    contains_reduced(A2, (1, 2, 1), w0)


def test_criterion_01_dihedral_family():
    t0 = time.perf_counter()
    for m in range(3, 8):
        sys_ = system(f"I2:{m}")
        ctx = BraidContext(sys_, (1, 2), (), 1, 2, sys_.longest_element())
        rep = classify(ctx)
        assert rep.case == 2, f"m={m} case {rep.case}"
        assert rep.delta2.f_vector() == (4, 4)
        assert rep.delta1.f_vector() == (m + 2, m + 2)
        assert rep.witness_ok, f"m={m} subdivision witness"
        g1 = rep.delta1.gamma()[1]
        g2 = rep.delta2.gamma()[1]
        assert g1 - g2 == m - 2
        _note(side_descriptor(ctx, 1)[0])
        _note(side_descriptor(ctx, 2)[0])
    dt = time.perf_counter() - t0
    _line(1, dt < 1.0, f"I2(3..7) case 2, exact witnesses, {dt:.2f}s")


def test_criterion_02_rank3_chain():
    t0 = time.perf_counter()
    A3 = system("A3")
    w0 = A3.longest_element()
    rep = apply_sequence(A3, (1, 2, 3, 3, 2, 1, 3, 2, 3), w0,
                         (6, 4, 6, 5, 8, 6, 4, 6))
    assert all(s.report.supported and s.report.witness_ok for s in rep.steps)
    rows = [rep.rows[k] for k in (0, 1, 2, 3, 5, 6, 7, 8)]
    assert [r["f_vector"] for r in rows] == [
        (6, 12, 8), (6, 12, 8), (7, 15, 10), (7, 15, 10), (7, 15, 10),
        (8, 18, 12), (9, 21, 14), (9, 21, 14)]
    assert [set(r["vertices"]) for r in rows] == [
        {1, 2, 3, 4, 7, 9}, {1, 2, 3, 4, 6, 9}, {1, 2, 3, 4, 5, 6, 9},
        {1, 2, 3, 4, 5, 8, 9}, {1, 2, 3, 4, 6, 8, 9}, {1, 2, 3, 4, 6, 7, 8, 9},
        set(range(1, 10)), set(range(1, 10))]
    assert [r["gamma1"] for r in rows] == [0, 0, 1, 1, 1, 2, 3, 3]
    for w in rep.words:
        _note(SubwordDescriptor(A3, w, w0))
    dt = time.perf_counter() - t0
    _line(2, dt < 5.0, f"8 rows, gamma1 (0,0,1,1,1,2,3,3), {dt:.2f}s")


def test_criterion_03_cluster_pentagon():
    A2 = system("A2")
    d = _note(SubwordDescriptor(A2, (1, 2, 1, 2, 1), A2.longest_element()))
    out = complex_json(d)
    ok = (out["spherical"] and out["flag"] and out["h_vector"] == [1, 3, 1]
          and out["gamma"] == [1, 1])
    _line(3, ok, "pentagon boundary: spherical flag, h=(1,3,1), gamma=(1,1)")


def test_criterion_04_duplicated_letters_square():
    A2 = system("A2")
    d = _note(SubwordDescriptor(A2, (1, 1, 2, 2, 1), A2.longest_element()))
    built = build(d)
    x = named(built, range(1, 6))  # position p named p + 1
    ok = (built.f_vector() == (4, 4)
          and not has_face(x, (1, 2)) and not has_face(x, (3, 4))
          and 5 not in x.vertices)
    _line(4, ok, "square boundary: non-faces {1,2},{3,4}; position 5 dropped")


def test_criterion_05_polynomial_identity_batch():
    t0 = time.perf_counter()
    rng = random.Random(501)
    checked = 0
    while checked < 200:
        ctx = random_context(rng, names=("A3", "B3", "H3"), max_side=6)
        if not MoveFacts(ctx).supported:
            continue
        rep = classify(ctx)
        assert rep.poly is not None and rep.poly.h_ok, (ctx.Q, ctx.Qp, ctx.i, ctx.j)
        assert rep.poly.gamma_ok is not False
        _note(side_descriptor(ctx, 1)[0])
        _note(side_descriptor(ctx, 2)[0])
        checked += 1
    dt = time.perf_counter() - t0
    _line(5, dt < 60.0, f"200 contexts, h and gamma identities exact, {dt:.1f}s")


def test_criterion_06_structural_suite():
    rng = random.Random(601)
    chained = 0
    unsupported = 0
    for _ in range(200):
        ctx = random_context(rng, names=("A3", "B3", "H3"), max_side=6)
        m, f = ctx.m, MoveFacts(ctx)
        d1x, d2x = (named(x, f.names(b)) for x, b in zip(f.sides, f.bits))
        # reduced complexes coincide literally in the shared universe
        assert flat_faces(f, tilde(f, 1)) == flat_faces(f, tilde(f, 2))
        # side 2 splits into the reduced part and the interface families
        fams = subfamilies(f)
        kept, d2_int, d2_G = (flat_faces(f, x) for x in (tilde(f, 2), fams.d2_int, fams.d2_G))
        assert kept | d2_int | d2_G == flat_faces(f, f.faces[1])
        assert kept & (d2_int | d2_G) == set()
        # full decomposition report (chain identities on the hypothesis subset)
        dec = verify_decomposition(f)
        assert dec.ok, dec.mismatches
        chained += dec.chain_checked
        # endpoint-edge pairing and window-condition monotonicity
        edge = (f_label(1), f_label(m))
        assert condition(ctx, "B", 2) == (not has_face(d1x, edge))
        assert condition(ctx, "A", 2) == (not has_face(d2x, edge))
        for which in ("A", "B"):
            vals = [condition(ctx, which, k) for k in range(m + 1)]
            assert all(b or not a for a, b in zip(vals, vals[1:]))
        unsupported += not classify(ctx).supported
        _note(side_descriptor(ctx, 1)[0])
        _note(side_descriptor(ctx, 2)[0])
    ok = unsupported > 0 and chained > 0
    _line(6, ok, f"200 contexts ({unsupported} unsupported), face-set "
                 f"identities hold; chain verified on {chained}")


def test_criterion_07_oracle_equivalence():
    rng = random.Random(701)
    for _ in range(100):
        d = _note(random_descriptor(rng, max_len=10))
        x = build(d)
        want = brute_facets(d.system, d.word, d.pi)
        got = set(facet_label_sets(named(x, range(1, len(d.word) + 1))))
        assert got == want
        # containment against the exhaustive fixed-length scan
        target = d.system.length(d.pi)
        exists = any(
            d.system.is_reduced([d.word[p] for p in take])
            and d.system.element_of([d.word[p] for p in take]) == d.pi
            for take in itertools.combinations(range(len(d.word)), target))
        assert contains_reduced(d.system, d.word, d.pi) == exists
    links = 0
    while links < 100:
        d = random_descriptor(rng, max_len=8)
        x = build(d)
        if x.is_void or not x.vertices:
            continue
        faces = sorted(face_label_sets(x),
                       key=lambda f: (len(f), sorted(map(str, f))))
        face = tuple(faces[rng.randrange(len(faces))])
        assert link_oracle_check(d, face)
        links += 1
    _line(7, True, "100 facet enumerations match 2^L scans; 100 link checks")


def test_criterion_08_subdivision_h_and_flagness():
    rng = random.Random(801)
    done = 0
    while done < 100:
        d, x = spherical_complex(rng)
        if not x.is_flag():
            continue
        edges = sorted((tuple(sorted(f, key=str)) for f in face_label_sets(x)
                        if len(f) == 2))
        if not edges:
            continue
        _note(d)
        edge = edges[rng.randrange(len(edges))]
        s, t = (1 << x.vertices.index(v) for v in edge)
        n = len(x.vertices)  # the fresh vertex is bit n, as in the gap scan
        sub = LabeledComplex(range(n + 1), subdivide(x.facets, s, t, (1 << n,)))
        h0, h1 = x.h_vector(), counted_h(sub)
        link_h = counted_h(link(x, edge))
        for k in range(len(h0)):
            add = link_h[k - 1] if 1 <= k <= len(link_h) else 0
            assert h1[k] == h0[k] + add
        assert sub.is_flag()
        done += 1
    _line(8, True, "100 edge subdivisions: exact h transfer, flag preserved")


def test_criterion_09_sphericity_bookkeeping():
    if not _BUILT:  # lets this test stand alone
        rng = random.Random(901)
        for _ in range(300):
            _BUILT.append(random_descriptor(rng, max_len=9))
    spherical = nonspherical = 0
    for d in _BUILT:
        x = build(d)
        sph = d.system.demazure_product(d.word) == d.pi
        if x.is_void:
            continue
        h = x.h_vector()
        out = complex_json(d)
        if sph:
            assert h == h[::-1], (d.word, h)
            assert out["gamma"] is not None
            spherical += 1
        else:
            assert out["gamma"] is None
            nonspherical += 1
    ok = spherical > 100 and nonspherical > 0
    _line(9, ok, f"{spherical} spherical instances palindromic; "
                 f"{nonspherical} non-spherical emitted no gamma")


def test_criterion_10_reduced_word_order():
    t0 = time.perf_counter()
    A3 = system("A3")
    w0 = A3.longest_element()
    p = build_rho(A3, (1, 2, 3), (), w0)
    q = build_rho(A3, (1, 2, 3), (), w0)
    assert len(p.words) == 16
    assert p.antisymmetric
    assert all(e.verified for e in p.edges if e.lower is not None)
    sl = p.semilattice
    assert sl.applicable and sl.meet and sl.join
    assert sl.meet_certificate is None and sl.join_certificate is None
    blob1 = json.dumps(poset_json(p), sort_keys=True)
    blob2 = json.dumps(poset_json(q), sort_keys=True)
    assert blob1 == blob2
    dt = time.perf_counter() - t0
    _line(10, dt < 30.0,
          f"16 words, antisymmetric, meet/join verdicts certified, "
          f"deterministic, {dt:.2f}s")

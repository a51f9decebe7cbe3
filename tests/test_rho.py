import hashlib
import json
import random

import pytest

from conftest import (REFERENCE_CAP, braid_step, certify_subdivision, cut_passes, edge_masks,
                      face_passes, forward_passes, k_subdivide, projection_key, reference_gap,
                      subdivide, system)
from coxsub import backend, cli, rhoposet, subword
from coxsub.braid import apply_sequence, classify, move_context
from coxsub.coxeter import CoxeterSystem
from coxsub.rhoposet import (GapReport, RhoPoset, SemilatticeResult, build_rho,
                             export_dot, poset_json, semilattice_check,
                             transitive_reduction)
from coxsub.simplicial import (LabeledComplex, contractions, is_isomorphic_constrained,
                               iso_invariant)
from coxsub.subword import SubwordDescriptor, build


def a3_instance() -> RhoPoset:
    A3 = system("A3")
    return build_rho(A3, (1, 2, 3), (), A3.longest_element())


def test_identity_poset():
    A3 = system("A3")
    p = build_rho(A3, (), (), A3.identity)
    assert p.words == ((),)
    assert p.classes == (((),),)
    assert p.leq == (1,)
    assert p.antisymmetric
    assert p.semilattice.applicable and p.semilattice.meet and p.semilattice.join
    assert p.gap.checked and p.gap.clean


def test_two_word_merge():
    A2 = system("A2")
    p = build_rho(A2, (), (), A2.longest_element())
    assert p.words == ((1, 2, 1), (2, 1, 2))
    assert len(p.edges) == 1
    e = p.edges[0]
    assert e.case == 1 and e.verified and e.lower is None
    assert e.report.case == 1 and e.report.witness_ok
    assert p.classes == (((1, 2, 1), (2, 1, 2)),)
    assert p.antisymmetric and p.gap.clean
    dot = export_dot(p)
    assert 'label="121"' in dot and 'label="212"' in dot
    assert "style=dashed" in dot and "->" in dot


def test_a3_instance_frozen():
    p = a3_instance()
    assert len(p.words) == 16
    assert len(p.classes) == 6
    cases = {}
    for e in p.edges:
        cases[e.case] = cases.get(e.case, 0) + 1
    assert cases == {1: 12, 2: 6}
    assert [g[0] for g in p.classes] == [
        (1, 2, 1, 3, 2, 1), (1, 2, 3, 2, 1, 2), (1, 3, 2, 1, 3, 2),
        (2, 1, 2, 3, 2, 1), (2, 1, 3, 2, 1, 3), (3, 2, 1, 3, 2, 3)]
    assert transitive_reduction(p) == ((1, 0), (2, 1), (3, 0), (4, 3), (5, 2), (5, 4))
    assert p.antisymmetric and not p.violations
    assert p.semilattice.applicable
    assert p.semilattice.meet and p.semilattice.join
    assert p.semilattice.meet_certificate is None


def test_a3_instance_gap_scan():
    # isomorphic complexes sit in distinct single-move classes here: the
    # defined relation is coarser than the generated one, and is reported
    p = a3_instance()
    assert p.gap.checked and not p.gap.truncated
    assert p.gap.iso_pairs == (
        ((1, 2, 3, 2, 1, 2), (2, 1, 2, 3, 2, 1)),
        ((1, 3, 2, 1, 3, 2), (2, 1, 3, 2, 1, 3)))
    assert p.gap.subdivision_pairs == (
        ((1, 3, 2, 1, 3, 2), (2, 1, 2, 3, 2, 1)),
        ((2, 1, 3, 2, 1, 3), (1, 2, 3, 2, 1, 2)))
    assert not p.gap.clean


def test_every_cover_edge_verified():
    p = a3_instance()
    oriented = [e for e in p.edges if e.lower is not None]
    assert oriented
    for e in oriented:
        assert e.verified and e.report.witness_ok
        assert e.report.case in (2, 3)
        # f0 grows strictly toward the finer complex
        low, up = (build(SubwordDescriptor(p.system, p.Q + w + p.Qp, p.pi))
                   for w in (e.lower, e.upper))
        assert len(up.vertices) == len(low.vertices) + e.report.m - 2


def test_reduction_closure_roundtrip():
    p = a3_instance()
    n = len(p.classes)
    covers = transitive_reduction(p)
    reach = [set([a]) for a in range(n)]
    changed = True
    while changed:
        changed = False
        for a, b in covers:
            for src in range(n):
                if a in reach[src] and b not in reach[src]:
                    reach[src].add(b)
                    changed = True
    for a in range(n):
        assert {b for b in range(n) if p.leq[a] >> b & 1} == reach[a]


def test_mirror_orientation():
    # re-running a cover move from the other word swaps cases 2 and 3
    p = a3_instance()
    sys_ = p.system
    for e in p.edges:
        if e.case not in (2, 3):
            continue
        ctx_b = move_context(sys_, p.Q + e.word_b + p.Qp, len(p.Q) + e.pos, p.pi)
        rep_b = classify(ctx_b)
        assert rep_b.case == {2: 3, 3: 2}[e.case]
        assert rep_b.witness_ok
        assert braid_step(sys_, e.word_b, e.pos) == e.word_a


def test_dot_export_structure():
    p = a3_instance()
    dot = export_dot(p)
    lines = dot.splitlines()
    assert lines[0] == "digraph rho {"
    assert lines[-1] == "}"
    assert sum("style=dashed" in ln for ln in lines) == 12
    directed = [ln for ln in lines if "->" in ln and "dashed" not in ln]
    assert len(directed) == len(transitive_reduction(p))
    assert all('label="2"' in ln for ln in directed)
    assert sum('[label="' in ln and "->" not in ln for ln in lines) == 16


def test_poset_json_shape():
    p = a3_instance()
    out = poset_json(p)
    text = json.dumps(out, sort_keys=True)
    assert json.loads(text) == out  # serializable as-is
    assert out["word_count"] == 16
    assert len(out["words"]) == 16
    assert len(out["cover_edges"]) == 6
    assert len(out["iso_edges"]) == 12
    assert out["unsupported_pairs"] == []
    assert out["antisymmetric"] is True
    assert out["semilattice"]["meet"] is True
    assert out["semilattice"]["join"] is True
    assert len(out["gap"]["iso_pairs"]) == 2
    pairs = {(a, b) for a, b in out["relation"]}
    assert (5, 0) in pairs  # bottom class reaches the top through the chain
    for edge in out["cover_edges"]:
        a = p.class_of[tuple(edge["lower"])]
        b = p.class_of[tuple(edge["upper"])]
        assert (a, b) in pairs


def _synthetic(matrix, words, antisymmetric=True) -> RhoPoset:
    """An order on one word per class, its relation given as a bool matrix."""
    classes = tuple((w,) for w in words)
    leq = tuple(sum(1 << b for b, x in enumerate(row) if x) for row in matrix)
    return RhoPoset(None, (), (), None, tuple(words), (), classes,
                    {w: k for k, w in enumerate(words)}, leq, antisymmetric,
                    () if antisymmetric else ((words[0], words[0]),),
                    SemilatticeResult(applicable=False), GapReport(False))


def test_semilattice_on_synthetic_orders():
    chain = _synthetic(((True, True, True), (False, True, True), (False, False, True)),
                       [(1,), (2,), (3,)])
    res = semilattice_check(chain)
    assert res.meet and res.join

    antichain = _synthetic(((True, False), (False, True)), [(1,), (2,)])
    res = semilattice_check(antichain)
    assert not res.meet and not res.join
    assert res.meet_certificate == ((1,), (2,), ())
    assert res.join_certificate == ((1,), (2,), ())

    # two maximal lower bounds: meet fails, join exists (diamond minus top)
    #   c, d below both a and b; a, b incomparable
    leq = (
        (True, False, False, False),   # a
        (False, True, False, False),   # b
        (True, True, True, False),     # c <= a, b
        (True, True, False, True),     # d <= a, b
    )
    bowtie = _synthetic(leq, [("a",), ("b",), ("c",), ("d",)])
    res = semilattice_check(bowtie)
    assert not res.meet
    assert res.meet_certificate == (("a",), ("b",), (("c",), ("d",)))
    assert not res.join
    # the scan hits (a, b) first: they have no common upper bound at all
    assert res.join_certificate == (("a",), ("b",), ())


def test_semilattice_requires_antisymmetry():
    p = _synthetic(((True,),), [(1,)], antisymmetric=False)
    with pytest.raises(ValueError):
        semilattice_check(p)


# -- the order on bool matrices, the reference for the reach rows ------------


def _matrix_closure(n: int, covers) -> list[list[bool]]:
    """Reflexive transitive closure by repeated relaxation to a fixed point."""
    leq = [[a == b for b in range(n)] for a in range(n)]
    for a, b in covers:
        leq[a][b] = True
    changed = True
    while changed:
        changed = False
        for a in range(n):
            for c in range(n):
                for b in range(n):
                    if leq[a][c] and leq[c][b] and not leq[a][b]:
                        leq[a][b] = changed = True
    return leq


def _matrix_reduction(leq) -> tuple:
    """Cover pairs: a < b with no c outside {a, b} between them."""
    n = len(leq)
    return tuple((a, b) for a in range(n) for b in range(n)
                 if a != b and leq[a][b]
                 and not any(c != a and c != b and leq[a][c] and leq[c][b] for c in range(n)))


def _matrix_semilattice(p: RhoPoset, leq) -> SemilatticeResult:
    """Meet and join by scanning every pair's bound list for its extremal
    members, with the same certificates as ``semilattice_check``."""
    n = len(leq)

    def verdict(is_bound, beats):
        for a in range(n):
            for b in range(a + 1, n):
                bounds = [c for c in range(n) if is_bound(c, a) and is_bound(c, b)]
                extremal = [c for c in bounds
                            if not any(d != c and beats(c, d) for d in bounds)]
                if len(extremal) != 1:
                    reps = tuple(p.class_rep(c) for c in extremal)
                    return False, (p.class_rep(a), p.class_rep(b), reps)
        return True, None

    meet, meet_cert = verdict(lambda c, a: leq[c][a], lambda c, d: leq[c][d])
    join, join_cert = verdict(lambda c, a: leq[a][c], lambda c, d: leq[d][c])
    return SemilatticeResult(True, meet, join, meet_cert, join_cert)


def test_reach_rows_match_bool_matrix():
    rng = random.Random(31)
    verdicts = set()
    for trial in range(300):
        n = rng.randrange(1, 9)
        # covers along a random order of the classes; every third trial
        # also adds backward covers, so the closure may hold cycles
        rank = rng.sample(range(n), n)
        covers = sorted({(a, b) for a in range(n) for b in range(n)
                         if a != b and rng.random() < 0.3
                         and (rank[a] < rank[b] or trial % 3 == 0 and rng.random() < 0.2)})
        matrix = _matrix_closure(n, covers)
        rows = rhoposet._closure(n, covers)
        assert rows == tuple(sum(1 << b for b in range(n) if matrix[a][b]) for a in range(n))
        antisymmetric = not any(matrix[a][b] and matrix[b][a]
                                for a in range(n) for b in range(a + 1, n))
        p = _synthetic(matrix, [(k,) for k in range(n)], antisymmetric)
        assert transitive_reduction(p) == _matrix_reduction(matrix)
        if antisymmetric:
            got, want = semilattice_check(p), _matrix_semilattice(p, matrix)
            assert (got.meet, got.join, got.meet_certificate, got.join_certificate) == \
                (want.meet, want.join, want.meet_certificate, want.join_certificate)
            verdicts.add((got.meet, got.join))
    # lattices, one-sided semilattices and orders with both certificates
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def test_cap_respected():
    A3 = system("A3")
    with pytest.raises(ValueError):
        build_rho(A3, (), (), A3.longest_element(), cap=5)


def test_build_rho_checks_its_words_once(monkeypatch):
    # Q, Q' and the side length are checked where they enter, with the
    # messages the per-move checks gave; an order with one word (pi = e)
    # makes no move, and fails the same way
    A3 = system("A3")
    checked = []
    check = CoxeterSystem.check_word
    monkeypatch.setattr(CoxeterSystem, "check_word",
                        lambda self, word: checked.append(word) or check(self, word))
    p = build_rho(A3, (1, 3), (1, 2), A3.longest_element())
    assert len(p.edges) == 18 and checked == [(1, 3) + p.words[0] + (1, 2)]
    w0, e = A3.longest_element(), A3.identity
    bad = r"generator index 4 out of range 1\.\.3"
    for pi in (w0, e):
        for Q, Qp in (((1, 4), ()), ((), (2, 4)), ((4,), (3,)), ((2,), (1, 4, 2))):
            with pytest.raises(ValueError, match=bad):
                build_rho(A3, Q, Qp, pi)
    long = "words are limited to 62 letters"
    for Q, Qp, pi in (((1,) * 30, (2,) * 27, w0), ((1,) * 57, (), w0),
                      ((), (2,) * 57, w0), ((1,) * 40, (2,) * 23, e), ((3,) * 63, (), e)):
        with pytest.raises(ValueError, match=long):
            build_rho(A3, Q, Qp, pi)
    # 62 letters pass, and the words reach the order as ints
    p = build_rho(A3, [1] * 40, iter([2] * 22), e)
    assert p.Q == (1,) * 40 and p.Qp == (2,) * 22 and p.words == ((),)


def test_build_rho_lists_each_words_moves_once(monkeypatch):
    # the search lists each word's moves, and the order lists them once
    # more, commutation moves and the rest in one pass: 2 per word
    A4 = system("A4")
    calls = []
    moves = CoxeterSystem._braid_moves
    monkeypatch.setattr(CoxeterSystem, "_braid_moves",
                        lambda self, w: calls.append(w) or moves(self, w))
    p = build_rho(A4, (1, 2, 3, 4), (), A4.longest_element())
    assert len(p.words) == 768 and len(calls) == 2 * 768
    assert sorted(calls) == sorted(p.words * 2)


def test_gap_scan_skipped_above_limit(monkeypatch):
    monkeypatch.setattr(rhoposet, "GAP_SCAN_WORDS", 4)
    A3 = system("A3")
    p = build_rho(A3, (1, 2, 3), (), A3.longest_element())
    assert not p.gap.checked and not p.gap.clean


@pytest.mark.parametrize("Q, Qp, subdivisions", [
    ((1, 3), (1, 2), 9), ((2, 1), (2, 1), 6), ((1, 3), (3, 2), 9)])
def test_gap_scan_two_letter_factors(Q, Qp, subdivisions):
    # these scans subdivide complexes whose vertices are positions of the
    # full word; fresh vertices once mixed labels that could not be sorted
    A3 = system("A3")
    gap = build_rho(A3, Q, Qp, A3.longest_element()).gap
    assert gap.checked and not gap.truncated
    assert len(gap.iso_pairs) == 2
    assert len(gap.subdivision_pairs) == subdivisions


def test_gap_scan_with_the_limit_lifted(monkeypatch):
    # A4 w0 (Q = 1234) past GAP_SCAN_WORDS, scanned whole; CI pins this
    # report with D4's and H3's
    monkeypatch.setattr(rhoposet, "GAP_SCAN_WORDS", 10**9)
    A4 = system("A4")
    gap = build_rho(A4, (1, 2, 3, 4), (), A4.longest_element()).gap
    assert (len(gap.iso_pairs), len(gap.subdivision_pairs), gap.truncated) == (25, 110, False)
    text = json.dumps({"truncated": gap.truncated, "iso_pairs": gap.iso_pairs,
                       "subdivision_pairs": gap.subdivision_pairs})
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "e5a4770af6ff2f6cfb55f5895079d6cc6ac06371d21b063419be5da180871f38"


# The lifted D4 and H3 reports as a forward subdivision scan, its depths
# before the last cut past 512 classes, gave them: truncated, with the pairs
# that scan missed left out, listed here as class index -> target indices.
_FORWARD_SCAN = {
    "D4": ("5f98a9c71d1721fb684b96e105a3aba3cbec2940871217b9e9bc491b54ada85e", {
        10: (8, 27, 28, 29), 18: (2, 27, 28, 29), 20: (7, 8, 26, 27, 28, 29, 32),
        21: (26, 27, 28, 29, 32), 22: (1, 2, 26, 27, 28, 29, 32), 33: (3, 8, 12),
        34: (3, 7, 11, 12, 13, 27), 39: (1, 5, 11, 12, 13, 29), 40: (2, 5, 12),
        43: (3, 7, 8, 11, 27, 32), 44: (3, 7, 11, 27), 46: (1, 5, 13, 29),
        47: (1, 2, 5, 13, 26, 29)}),
    "H3": ("f9fedddfdc272305ee4a4a1e1ed33db15dc0be10dc6c272df80b18667bbd91da", {
        0: (6, 8), 4: (3, 7), 10: (1, 3, 7), 11: (1, 3, 7), 12: (5, 6, 8),
        13: (2, 5, 6, 8), 14: (2,)}),
}


@pytest.mark.parametrize("name, iso, pairs", [("D4", 82, 495), ("H3", 9, 33)])
def test_gap_scan_lifted_finishes_with_certified_pairs(monkeypatch, name, iso, pairs):
    # D4 and H3 w0 (Q = 1..n) past GAP_SCAN_WORDS, scanned whole: a pair
    # is reported iff a chain of checked contractions is found for it, and
    # every pair of the forward scan is still found
    monkeypatch.setattr(rhoposet, "GAP_SCAN_WORDS", 10**9)
    W = system(name)
    p = build_rho(W, tuple(range(1, W.rank + 1)), (), W.longest_element())
    gap = p.gap
    assert (len(gap.iso_pairs), len(gap.subdivision_pairs), gap.truncated) == (iso, pairs, False)
    reps = [build(SubwordDescriptor(W, p.Q + p.class_rep(c), p.pi)) for c in range(len(p.classes))]
    reported = {(p.class_of[a], p.class_of[b]) for a, b in gap.subdivision_pairs}
    for a, x in enumerate(reps):
        for b, y in enumerate(reps):
            if not p.leq[a] >> b & 1 and len(y.vertices) > len(x.vertices):
                assert certify_subdivision(x, y) == ((a, b) in reported), (a, b)
    digest, missed = _FORWARD_SCAN[name]
    found = tuple((a, b) for a, b in gap.subdivision_pairs
                  if p.class_of[b] not in missed.get(p.class_of[a], ()))
    text = json.dumps({"truncated": True, "iso_pairs": gap.iso_pairs, "subdivision_pairs": found})
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_gap_scan_truncated(capsys, monkeypatch):
    # a cut frontier still reports true pairs, only fewer of them
    A3 = system("A3")
    args = ("poset", "--group", "A3", "--Q", "1,3", "--Qprime", "1,2", "--pi", "w0")
    full = build_rho(A3, (1, 3), (1, 2), A3.longest_element()).gap
    monkeypatch.setattr(rhoposet, "FRONTIER_CAP", 1)
    gap = build_rho(A3, (1, 3), (1, 2), A3.longest_element()).gap
    assert gap.checked and gap.truncated and not gap.clean
    assert gap.iso_pairs == full.iso_pairs
    assert 0 < len(gap.subdivision_pairs) < len(full.subdivision_pairs)
    assert set(gap.subdivision_pairs) <= set(full.subdivision_pairs)
    assert cli.main(list(args)) == 0
    assert "subdivision pairs 5 (scan truncated)" in capsys.readouterr().out


def _oracle_gap(p: RhoPoset) -> GapReport:
    """The gap scan without a class table: every pair of representatives
    searched directly, and each class's subdivision frontiers rebuilt
    from its own representative."""
    n = len(p.classes)
    reps = [build(SubwordDescriptor(p.system, p.Q + p.class_rep(c) + p.Qp, p.pi))
            for c in range(n)]
    inv = [iso_invariant(x) for x in reps]
    f0 = [0 if x.is_void else len(x.vertices) for x in reps]

    def iso(x, y):
        return is_isomorphic_constrained(x, y) is not None

    def frontiers_of(x, depth):
        frontiers, cur = [], [x]
        for _ in range(depth):
            nxt, count = {}, 0
            for z in cur:
                fresh = max(z.vertices) + 1  # the vertices are integers
                for e in edge_masks(z):
                    edge = tuple(z.vertices[i] for i in range(e.bit_length()) if e >> i & 1)
                    w = k_subdivide(z, edge, 1, [fresh])
                    bucket = nxt.setdefault(iso_invariant(w), [])
                    if not any(iso(w, seen) for seen in bucket):
                        bucket.append(w)
                        count += 1
                assert count <= REFERENCE_CAP  # no truncation here
            frontiers.append(nxt)
            cur = [w for bucket in nxt.values() for w in bucket]
            if not cur:
                break
        return frontiers

    iso_pairs = tuple((p.class_rep(a), p.class_rep(b))
                      for a in range(n) for b in range(a + 1, n)
                      if inv[a] == inv[b] and iso(reps[a], reps[b]))
    subdivision_pairs = []
    for a in range(n):
        targets = [b for b in range(n)
                   if b != a and not p.leq[a] >> b & 1 and f0[b] > f0[a]]
        if not targets or reps[a].is_void:
            continue
        frontiers = frontiers_of(reps[a], max(f0[b] - f0[a] for b in targets))
        for b in targets:
            d = f0[b] - f0[a]
            if d <= len(frontiers) and any(
                    iso(z, reps[b]) for z in frontiers[d - 1].get(inv[b], ())):
                subdivision_pairs.append((p.class_rep(a), p.class_rep(b)))
    return GapReport(True, False, iso_pairs, tuple(subdivision_pairs))


def _short_words(rank: int):
    return [()] + [(i,) for i in range(1, rank + 1)] + [
        (i, j) for i in range(1, rank + 1) for j in range(1, rank + 1)]


@pytest.mark.parametrize("name", ["A2", "B2", "I2:5", "I2:6", "A3"])
def test_gap_scan_matches_per_class_frontiers(name):
    W = system(name)
    if name == "A3":  # the two-letter pairs are the ones with subdivision pairs
        pairs = [((1, 2, 3), (3, 3, 2)), ((2, 2, 3), (2, 3, 3)),
                 ((1, 3), (1, 2)), ((2, 1), (2, 1)), ((1, 3), (3, 2))]
    else:
        pairs = [(Q, Qp) for Q in _short_words(2) for Qp in _short_words(2)]
    for Q, Qp in pairs:
        p = build_rho(W, Q, Qp, W.longest_element())
        got, want = p.gap, _oracle_gap(p)
        assert got.checked and not got.truncated
        assert (got.iso_pairs, got.subdivision_pairs) == \
            (want.iso_pairs, want.subdivision_pairs), (Q, Qp)


def _a3_pairs() -> list:
    """The 81 orders of A3 w0 inside Q + w + Q' for two-letter Q and Q'."""
    words = [(i, j) for i in range(1, 4) for j in range(1, 4)]
    return [(Q, Qp) for Q in words for Qp in words]


def _check_against_reference(p: RhoPoset) -> GapReport:
    """The order's gap report against ``reference_gap``: equal field for
    field where neither is cut, a subset of the reference's pairs where
    only the library's is, a superset where only the reference's is; a
    pair the reference lacks is certified by ``certify_subdivision``.
    Returns the reference."""
    got, ref = p.gap, reference_gap(p)
    assert (got.checked, got.iso_pairs) == (ref.checked, ref.iso_pairs)
    have, want = set(got.subdivision_pairs), set(ref.subdivision_pairs)
    if not got.truncated and not ref.truncated:
        assert tuple(got) == tuple(ref)
    elif not ref.truncated:
        assert have <= want
    elif not got.truncated:
        assert have >= want
    for a, b in have - want:
        x, y = (build(SubwordDescriptor(p.system, p.Q + w + p.Qp, p.pi)) for w in (a, b))
        assert certify_subdivision(x, y), (a, b)
    return ref


@pytest.mark.parametrize("cap", [4, 32, 512])
def test_aimed_gap_scan_matches_reference_a3_pairs(monkeypatch, cap):
    # each target's frontiers listed only as deep as its farthest source
    # needs; a frontier cut at a lowered cap reports fewer pairs, marked
    # truncated; from 8 classes a depth up, no two-letter A3 pair is cut
    monkeypatch.setattr(rhoposet, "FRONTIER_CAP", cap)
    A3 = system("A3")
    gaps = []
    for Q, Qp in _a3_pairs():
        p = build_rho(A3, Q, Qp, A3.longest_element())
        ref = _check_against_reference(p)
        gaps.append(tuple(p.gap))
        # a report compares by identity: equal fields, yet two reports
        assert p.gap != ref and p.gap == p.gap, (Q, Qp)
    assert any(g[1] for g in gaps) == (cap == 4)
    assert sum(len(g[3]) for g in gaps) > 0


@pytest.mark.parametrize("cap", [8, 32])
def test_gap_scan_last_depth_is_never_cut(monkeypatch, cap):
    # every two-letter A3 pair cuts no depth, its last included, at these
    # caps, so a lowered cap leaves each report whole
    A3 = system("A3")
    full = [tuple(build_rho(A3, Q, Qp, A3.longest_element()).gap) for Q, Qp in _a3_pairs()]
    monkeypatch.setattr(rhoposet, "FRONTIER_CAP", cap)
    for (Q, Qp), want in zip(_a3_pairs(), full):
        gap = build_rho(A3, Q, Qp, A3.longest_element()).gap
        assert not gap.truncated and tuple(gap) == want, (Q, Qp)


def _random_order(rng: random.Random) -> tuple:
    """A seeded order over A2, B2, I2:5, A3 and B3, rank 3 drawn more often:
    Q and Q' of up to four letters around w0, or, in B3, around the element
    of a prefix of 6 to 8 letters of a reduced word of w0."""
    name = rng.choice(("A2", "B2", "I2:5", "A3", "A3", "A3", "B3", "B3"))
    W = system(name)
    Q, Qp = (tuple(rng.randrange(1, W.rank + 1) for _ in range(rng.randrange(5)))
             for _ in "QP")
    pi = W.longest_element()
    if name == "B3":  # w0 has 42 reduced words, past GAP_SCAN_WORDS
        pi = W.element_of(rng.choice(W.reduced_words(pi))[:rng.randrange(6, 9)])
    return W, Q, Qp, pi


@pytest.mark.parametrize("cap", [4, 512])
def test_aimed_gap_scan_matches_reference_random_orders(monkeypatch, cap):
    monkeypatch.setattr(rhoposet, "FRONTIER_CAP", cap)
    rng = random.Random(3)
    orders = [_random_order(rng) for _ in range(30)]
    gaps, cut = [], []
    for W, Q, Qp, pi in orders:
        p = build_rho(W, Q, Qp, pi)
        gaps.append(tuple(p.gap))
        if _check_against_reference(p).truncated and not p.gap.truncated:
            cut.append((Q, Qp))
    assert cut == [((2, 3, 3, 2), (1, 2, 3, 1))]  # the reference alone is cut
    assert all(g[0] for g in gaps)
    assert sum(len(g[2]) > 0 for g in gaps) >= 3 and sum(len(g[3]) > 0 for g in gaps) >= 3
    assert any(len(set(w)) < len(w) for _, Q, Qp, _ in orders for w in (Q, Qp))


def _two_way_contractions(y: LabeledComplex) -> int:
    """Every contraction of y, subdivided back at {s, t} with the fresh
    vertex r, is y itself; returns how many y has."""
    count = 0
    for r, s, t, x in contractions(y):
        assert len(x.vertices) == len(y.vertices) - 1
        low = r - 1
        back = [f & low | (f & ~low) << 1 for f in x.facets]  # r's bit reinserted, empty
        assert subdivide(back, s, t, (r,)) == frozenset(y.facets)
        count += 1
    return count


def _undone_by_contraction(z: LabeledComplex) -> int:
    """Each single edge subdivision of z, at the fresh vertex n, has a
    contraction at that vertex equal to z on the vertices 0..n-1, and its
    every contraction subdivides back to it; returns the edges checked."""
    n = len(z.vertices)
    for e in edge_masks(z):
        child = LabeledComplex(range(n + 1), subdivide(z.facets, e & -e, e & (e - 1), (1 << n,)))
        assert any(r == 1 << n and {s, t} == {e & -e, e & (e - 1)} and x.facets == z.facets
                   for r, s, t, x in contractions(child))
        assert _two_way_contractions(child) >= 1
    return len(edge_masks(z))


def test_contraction_undoes_the_subdivision():
    # both ways, on the class representatives of the 81 two-letter A3 pairs
    # and on seeded random pure complexes, some with vertices on no facet
    A3 = system("A3")
    edges, seen = 0, set()
    for Q, Qp in _a3_pairs():
        p = build_rho(A3, Q, Qp, A3.longest_element())
        for c in range(len(p.classes)):
            z = build(SubwordDescriptor(A3, Q + p.class_rep(c) + Qp, p.pi))
            if (len(z.vertices), z.facets) not in seen:  # each complex once
                seen.add((len(z.vertices), z.facets))
                _two_way_contractions(z)
                edges += _undone_by_contraction(z)
    assert edges > 1000
    rng, none = random.Random(5), 0
    for _ in range(300):
        k, size = rng.randrange(2, 8), rng.randrange(1, 4)
        z = LabeledComplex(range(k), {sum(1 << v for v in rng.sample(range(k), min(size, k)))
                                      for _ in range(rng.randrange(1, 7))})
        none += _two_way_contractions(z) == 0
        _undone_by_contraction(z)
    assert 0 < none < 300
    # the boundary of a triangle subdivides nothing: {s, t} is one of its facets
    assert _two_way_contractions(LabeledComplex(range(3), (3, 5, 6))) == 0


def _classify_calls(monkeypatch) -> list:
    """Record the context of every move that ``build_rho`` classifies."""
    seen = []
    direct = rhoposet.classify

    def counted(ctx, memo=None):
        seen.append(ctx)
        return direct(ctx, memo)

    monkeypatch.setattr(rhoposet, "classify", counted)
    return seen


def _commutes(p: RhoPoset, e) -> bool:
    """Whether the edge's move has order 2."""
    i, j = e.word_a[e.pos - 1], e.word_a[e.pos]
    return p.system.m[i - 1, j - 1] == 2


@pytest.mark.parametrize("name, Q, Qp, calls, edges", [
    ("A4", (), (), 100, 1770), ("H3", (), (), 56, 640), ("A3", (1, 1), (1, 3), 8, 18),
    ("D4", (), (), 324, 6252)], ids=["A4", "H3", "A3", "D4"])
def test_one_classification_per_commutation_orbit(monkeypatch, name, Q, Qp, calls, edges):
    # one call per commutation orbit of the moves of order m >= 3, the
    # distinct heap pairs of those moves; a move of order 2 is not classified
    W = system(name)
    seen = _classify_calls(monkeypatch)
    p = build_rho(W, Q, Qp, W.longest_element())
    assert len(seen) == calls and len(p.edges) == edges
    assert all(ctx.system.m[ctx.i - 1, ctx.j - 1] > 2 for ctx in seen)
    assert len({e.report for e in p.edges if e.report is not None}) == calls
    assert all((e.report is None) == _commutes(p, e) for e in p.edges)


def _edge_verdict(rep) -> tuple:
    poly = rep.poly
    return (rep.case, rep.witness_ok, cli.report_ok(rep), rep.A2, rep.B2, rep.A3, rep.B3,
            rep.decomposition.ok, poly and poly.h_ok, poly and poly.gamma_ok)


def _orbit_oracle(p: RhoPoset) -> None:
    """Each edge's report, possibly carried from a commutation-equivalent
    move, against a direct classification of the edge's own move; an edge
    of order 2 carries no report, and its move classifies as a verified
    case 1 that passes ``report_ok``."""
    for e in p.edges:
        ctx = move_context(p.system, p.Q + e.word_a + p.Qp, len(p.Q) + e.pos, p.pi)
        direct = classify(ctx)
        if e.report is None:
            assert direct.m == 2 and direct.witness_ok and cli.report_ok(direct)
        else:
            assert _edge_verdict(e.report) == _edge_verdict(direct), (e.word_a, e.pos)
        assert e.case == direct.case and e.verified == direct.witness_ok
        if e.lower is not None:
            assert (e.lower, e.upper) == {2: (e.word_b, e.word_a),
                                          3: (e.word_a, e.word_b)}[direct.case]


@pytest.mark.parametrize("name, Q, Qp", [("A4", (), ()), ("H3", (), ()), ("B3", (), ()),
                                         ("B3", (1, 2, 3), (3, 2, 1))],
                         ids=["A4", "H3", "B3", "B3-123-321"])
def test_orbit_verdicts_match_direct_classify(name, Q, Qp):
    W = system(name)
    _orbit_oracle(build_rho(W, Q, Qp, W.longest_element()))


@pytest.mark.parametrize("name, count", [("A4", 1386), ("H3", 462), ("D4", 4752), ("B3", 40)])
def test_commutation_edges_classify_as_case_1(name, count):
    # the lemma in build_rho, checked move by move with Q = 1..n: every
    # edge of order 2, which carries no report, classifies in full as a
    # verified case 1 that passes report_ok (_orbit_oracle checks the same
    # on the two-letter A3 pairs)
    W = system(name)
    p = build_rho(W, tuple(range(1, W.rank + 1)), (), W.longest_element())
    memo: dict = {}
    edges = [e for e in p.edges if e.report is None]
    for e in edges:
        rep = classify(move_context(W, p.Q + e.word_a, len(p.Q) + e.pos, p.pi), memo)
        assert rep.m == 2 and (e.case, e.verified, e.lower) == (1, True, None)
        assert rep.case == 1 and rep.witness_ok and cli.report_ok(rep)
    assert len(edges) == count


def _orbits_match_projection_key(p: RhoPoset) -> None:
    """The moves of order m >= 3 that share a report are exactly those that
    share a projection key: the order's heap key and the projection lemma
    cut the moves into the same commutation orbits.  The moves of order 2
    carry no report."""
    by_report, by_key = {}, {}
    for k, e in enumerate(p.edges):
        if e.report is None:
            assert _commutes(p, e)
            continue
        by_report.setdefault(id(e.report), set()).add(k)
        by_key.setdefault(projection_key(p.system, p.Q, e.word_a, e.pos, p.Qp), set()).add(k)
    assert sorted(map(sorted, by_report.values())) == sorted(map(sorted, by_key.values()))


@pytest.mark.parametrize("name", ["A4", "H3", "D4", "B3"])
@pytest.mark.parametrize("prefix", [False, True], ids=["Q=()", "Q=1..n"])
def test_orbits_match_projection_key(name, prefix):
    W = system(name)
    Q = tuple(range(1, W.rank + 1)) if prefix else ()
    _orbits_match_projection_key(build_rho(W, Q, (), W.longest_element()))


def test_orbits_match_projection_key_a3_pairs():
    A3 = system("A3")
    w0 = A3.longest_element()
    two = [(a, b) for a in range(1, 4) for b in range(1, 4)]
    for Q in two:
        for Qp in two:
            _orbits_match_projection_key(build_rho(A3, Q, Qp, w0))


def test_orbit_verdicts_match_direct_classify_a3_pairs():
    A3 = system("A3")
    w0 = A3.longest_element()
    two = [(a, b) for a in range(1, 4) for b in range(1, 4)]
    for Q in two:
        for Qp in two:
            _orbit_oracle(build_rho(A3, Q, Qp, w0))


def _kernel_calls(monkeypatch) -> list:
    """Record the (letters, start) of every subword-kernel call."""
    seen = []
    kernel = backend.active.reduced_subword_masks

    def counted(right, desc, word, layers):
        (start,) = layers[0]
        seen.append((word, start))
        return kernel(right, desc, word, layers)

    monkeypatch.setattr(backend.active, "reduced_subword_masks", counted)
    return seen


def _position_complexes(monkeypatch) -> list:
    """Record the (word, pi) and the made entry of every position complex
    built word by word, not from a move's cut."""
    made = []
    cls = subword.PositionComplex

    def counted(system, word, pi):
        entry = cls(system, word, pi)
        made.append(((word, pi), entry))
        return entry

    monkeypatch.setattr(subword, "PositionComplex", counted)
    return made


@pytest.mark.parametrize("name, Q, Qp, sides", [("A4", (1, 2, 3, 4), (), 158),
                                                ("H3", (1, 2, 3), (), 86),
                                                ("A3", (1, 1), (1, 3), 12)])
def test_faces_made_once_per_complex(monkeypatch, name, Q, Qp, sides):
    # every classified move, one per commutation orbit of order m >= 3, has
    # one cut, which lists the facets of each of its sides not yet in the
    # memo: each side read is listed once, and no complex of the order is
    # built word by word; no face of any complex is made, as each move reads
    # its faces off one outer table
    classified = {"A4": 100, "H3": 56, "A3": 8}[name]
    W = system(name)
    made = _position_complexes(monkeypatch)
    moves, cuts = face_passes(monkeypatch), cut_passes(monkeypatch)
    p = build_rho(W, Q, Qp, W.longest_element())
    assert len(moves) == classified and all(seen == ["table"] for seen in moves)
    assert len(cuts["cuts"]) == len(set(cuts["cuts"])) == classified
    reports = {id(e.report): e.report for e in p.edges if e.report is not None}
    read = {r.ctx.side_word(k) for r in reports.values() for k in (1, 2)}
    assert len(reports) == classified and made == []
    assert len(cuts["sides"]) == len(set(cuts["sides"])) == len(read) == sides
    assert {w for w, _ in cuts["sides"]} == read


def test_each_complex_built_once(monkeypatch):
    A3 = system("A3")
    w0 = A3.longest_element()
    made = _position_complexes(monkeypatch)
    seen, forward = _kernel_calls(monkeypatch), forward_passes(monkeypatch)
    cuts = cut_passes(monkeypatch)
    p = build_rho(A3, (1, 1), (1, 3), w0)
    # 12 of the 16 side words are listed, each once, by the cuts of the 8
    # classified moves: one move per commutation orbit of order m >= 3 is
    # classified, so four words are read by no classified move.  No word is
    # built on its own: no entry is made word by word, a build's facet
    # kernel never runs, and every forward pass is one of the four of a
    # cut (Q, each window, Q'); the shortened windows have no entry
    assert len(cuts["cuts"]) == 8
    assert len(cuts["sides"]) == len(set(cuts["sides"])) == 12
    assert made == seen == [] and len(forward) == 4 * 8
    assert len(p.edges) == 18
    rep = apply_sequence(A3, cli.CHAIN_START, w0, cli.CHAIN_MOVES)
    # a chain's words are the sides of its moves: each is listed once, by
    # the cut of the first move that reads it, and its row reads its entry
    assert len(cuts["cuts"]) == 8 + len(cli.CHAIN_MOVES)
    listed = [w for w, _ in cuts["sides"][12:]]
    assert len(listed) == len(set(listed)) == len(rep.words) == len(cli.CHAIN_MOVES) + 1
    assert set(listed) == set(rep.words) and made == seen == []
    assert len(forward) == 4 * len(cuts["cuts"])


def test_gap_scan_reads_the_memo_entries(monkeypatch):
    # each class's first table entry is its representative's memo complex
    # itself, with no copy on other vertices between them
    A3 = system("A3")
    p = build_rho(A3, (1, 2, 3), (3, 3, 2), A3.longest_element())
    # every edge keeps the order's own words, not copies of them
    own = {w: w for w in p.words}
    assert sum(e.lower is not None for e in p.edges) > 0
    assert all(own[w] is w for e in p.edges for w in (e.word_a, e.word_b, e.lower, e.upper)
               if w is not None)
    interned = []
    intern = rhoposet._ClassTable.intern
    monkeypatch.setattr(rhoposet._ClassTable, "intern",
                        lambda table, x: interned.append(x) or intern(table, x))
    memo: dict = {}
    gap = rhoposet._gap_scan(p, memo)
    assert (gap.iso_pairs, gap.subdivision_pairs) == (p.gap.iso_pairs, p.gap.subdivision_pairs)
    want = [memo[p.Q + p.class_rep(c) + p.Qp, p.pi].complex for c in range(len(p.classes))]
    assert len(interned) > len(want)
    assert all(x is y for x, y in zip(interned, want))

import json

import pytest

from conftest import system
from coxsub import backend, cli, rhoposet, subword
from coxsub.braid import apply_sequence, classify, move_context
from coxsub.rhoposet import (GapReport, RhoPoset, SemilatticeResult, build_rho,
                             export_dot, poset_json, semilattice_check,
                             transitive_reduction)
from coxsub.simplicial import is_isomorphic_constrained, iso_invariant
from coxsub.subword import SubwordDescriptor, build


def a3_instance() -> RhoPoset:
    A3 = system("A3")
    return build_rho(A3, (1, 2, 3), (), A3.longest_element())


def test_identity_poset():
    A3 = system("A3")
    p = build_rho(A3, (), (), A3.identity)
    assert p.words == ((),)
    assert p.classes == (((),),)
    assert p.leq == ((True,),)
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
        assert {b for b in range(n) if p.leq[a][b]} == reach[a]


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
        assert sys_.apply_braid_move(e.word_b, e.pos) == e.word_a


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


def test_semilattice_on_synthetic_orders():
    def make(leq, words):
        classes = tuple((w,) for w in words)
        return RhoPoset(None, (), (), None, tuple(words), (), classes,
                        {w: k for k, w in enumerate(words)}, leq, True, (),
                        SemilatticeResult(applicable=False), GapReport(False))

    chain = make(((True, True, True), (False, True, True), (False, False, True)),
                 [(1,), (2,), (3,)])
    res = semilattice_check(chain)
    assert res.meet and res.join

    antichain = make(((True, False), (False, True)), [(1,), (2,)])
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
    bowtie = make(leq, [("a",), ("b",), ("c",), ("d",)])
    res = semilattice_check(bowtie)
    assert not res.meet
    assert res.meet_certificate == (("a",), ("b",), (("c",), ("d",)))
    assert not res.join
    # the scan hits (a, b) first: they have no common upper bound at all
    assert res.join_certificate == (("a",), ("b",), ())


def test_semilattice_requires_antisymmetry():
    p = RhoPoset(None, (), (), None, ((1,),), (), (((1,),),), {(1,): 0},
                 ((True,),), False, (((1,), (1,)),),
                 SemilatticeResult(applicable=False), GapReport(False))
    with pytest.raises(ValueError):
        semilattice_check(p)


def test_cap_respected():
    A3 = system("A3")
    with pytest.raises(ValueError):
        build_rho(A3, (), (), A3.longest_element(), cap=5)


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


def test_gap_scan_truncated(capsys, monkeypatch):
    # a cut frontier still reports true pairs, only fewer of them
    A3 = system("A3")
    args = ("poset", "--group", "A3", "--Q", "1,3", "--Qprime", "1,2", "--pi", "w0")
    full = build_rho(A3, (1, 3), (1, 2), A3.longest_element()).gap
    monkeypatch.setattr(rhoposet, "FRONTIER_CAP", 4)
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
    reps = [x.relabel(range(len(x.vertices)))
            for x in (build(SubwordDescriptor(p.system, p.Q + p.class_rep(c) + p.Qp, p.pi))
                      for c in range(n))]
    inv = [iso_invariant(x) for x in reps]
    f0 = [0 if x.is_void else len(x.vertices) for x in reps]

    def iso(x, y):
        return is_isomorphic_constrained(x, y) is not None

    def frontiers_of(x, depth):
        frontiers, cur = [], [x]
        for _ in range(depth):
            nxt, count = {}, 0
            for z in cur:
                fresh = len(z.vertices)
                for e in z.edge_masks():
                    w = z.edge_subdivide(((e & -e).bit_length() - 1, e.bit_length() - 1), fresh)
                    bucket = nxt.setdefault(iso_invariant(w), [])
                    if not any(iso(w, seen) for seen in bucket):
                        bucket.append(w)
                        count += 1
                assert count <= rhoposet.FRONTIER_CAP  # no truncation here
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
                   if b != a and not p.leq[a][b] and f0[b] > f0[a]]
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


def _kernel_calls(monkeypatch) -> list:
    """Record the (letters, start) of every subword-kernel call."""
    seen = []
    kernel = backend.active.reduced_subword_masks

    def counted(right, desc, length, step, word, start):
        seen.append((word, start))
        return kernel(right, desc, length, step, word, start)

    monkeypatch.setattr(backend.active, "reduced_subword_masks", counted)
    return seen


def _position_complexes(monkeypatch) -> list:
    """Record the (word, pi) and the made entry of every position complex."""
    made = []
    cls = subword.PositionComplex

    def counted(system, word, pi):
        entry = cls(system, word, pi)
        made.append(((word, pi), entry))
        return entry

    monkeypatch.setattr(subword, "PositionComplex", counted)
    return made


def test_each_complex_built_once(monkeypatch):
    A3 = system("A3")
    w0 = A3.longest_element()
    made = _position_complexes(monkeypatch)
    seen = _kernel_calls(monkeypatch)
    p = build_rho(A3, (1, 1), (1, 3), w0)
    # 16 side words and 24 shortened-window words, each made once; the
    # kernel runs once for each complex that is not void
    keys = [key for key, _ in made]
    assert len(keys) == len(set(keys)) == 40
    assert len(seen) == len(set(seen)) == sum(not e.complex.is_void for _, e in made) == 18
    assert len(p.edges) == 18
    made.clear()
    seen.clear()
    rep = apply_sequence(A3, cli.CHAIN_START, w0, cli.CHAIN_MOVES)
    keys = [key for key, _ in made]
    assert len(keys) == len(set(keys)) == 21
    assert len(seen) == len(set(seen)) == sum(not e.complex.is_void for _, e in made) == 14
    assert {(w, w0) for w in rep.words} <= set(keys)

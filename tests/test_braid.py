import importlib.util
import itertools
import random
from pathlib import Path

import pytest

from conftest import (braid_step, check_A3B3_edges, check_column_sets, check_cut, check_cuts,
                      columns, condition, counted_f, cut_passes, f_label, face_label_sets,
                      face_masks, face_passes, face_set, facet_label_sets, flat_decomposition,
                      flat_faces, flat_move, flat_rows, forward_passes, g_label, has_face,
                      i2_context, inject_faults, k_subdivide, named, no_face_listing,
                      oracle_contexts, outer_parts, random_context, same_faces, same_outer_table,
                      shortened_void_or_spherical, side_descriptor, split_faces, system,
                      word_labels)
from coxsub import braid, rhoposet
from coxsub.braid import (BraidContext, Family, MoveFacts, apply_sequence, classify,
                          find_move_path, move_context, polynomial_delta, subfamilies,
                          tilde, verify_decomposition)
from coxsub.coxeter import CoxeterSystem
from coxsub.simplicial import LabeledComplex, _bits, subdivide
from coxsub.subword import PositionComplex, SubwordDescriptor, build


def _mask(f: MoveFacts, labels) -> int:
    """Universe mask of a label set, read off the move's label table."""
    return sum(1 << f.universe.index(v) for v in labels)


def _label_sets(f: MoveFacts, masks) -> set:
    """Universe masks turned back into label sets."""
    uni = f.universe
    return {frozenset(uni[b] for b in range(len(uni)) if x >> b & 1) for x in masks}


def _named_sides(f: MoveFacts) -> tuple:
    """Both side complexes with the move's vertex names."""
    return tuple(named(x, f.names(b)) for x, b in zip(f.sides, f.bits))


def test_window_word_identities():
    ctx = i2_context(6)
    m = ctx.m
    for k in range(m):
        w = ctx.window_word(k, side=1)
        assert len(w) == m - k
        assert w[:2] == (1, 2) if len(w) >= 2 else True
        if k + 1 <= m:
            assert w == (ctx.i,) + ctx.window_word(k + 1, side=2)
        if k + 2 <= m:
            assert w == (ctx.i, ctx.j) + ctx.window_word(k + 2, side=1)
    assert ctx.window_word(m, side=1) == ()
    with pytest.raises(ValueError):
        ctx.window_word(m + 1)


def test_condition_monotone():
    rng = random.Random(10)
    for _ in range(50):
        ctx = random_context(rng)
        for which in ("A", "B"):
            vals = [condition(ctx, which, k) for k in range(ctx.m + 1)]
            for a, b in zip(vals, vals[1:]):
                assert (not a) or b  # shorter window word, fewer subwords


def test_endpoint_edge_pairing():
    # B2 holds exactly when side 1 misses the endpoint edge, A2 for side 2
    rng = random.Random(11)
    for _ in range(60):
        ctx = random_context(rng)
        d1x, d2x = _named_sides(MoveFacts(ctx))
        edge = (f_label(1), f_label(ctx.m))
        assert condition(ctx, "B", 2) == (not has_face(d1x, edge))
        assert condition(ctx, "A", 2) == (not has_face(d2x, edge))


def test_shared_namespace_crossing():
    m = 5
    assert g_label(1, m) == f_label(m)
    assert g_label(m, m) == f_label(1)
    assert g_label(2, m) == "g2"
    ctx = i2_context(m)
    assert side_descriptor(ctx, 1)[1] == ("Q1", "Q2", "f1", "f2", "f3", "f4", "f5")
    assert side_descriptor(ctx, 2)[1] == ("Q1", "Q2", "f5", "g2", "g3", "g4", "f1")
    # the position tables against the label oracle, on moves with m = 2..5
    # and Q, Q' both non-empty
    rng = random.Random(27)
    contexts, seen_m = [], set()
    while len(contexts) < 60:
        ctx = random_context(rng)
        if ctx.Q and ctx.Qp:
            contexts.append(ctx)
            seen_m.add(ctx.m)
    assert seen_m == {2, 3, 4, 5}
    for ctx in contexts:
        f, m = MoveFacts(ctx), ctx.m
        (d1, names1), (d2, names2) = side_descriptor(ctx, 1), side_descriptor(ctx, 2)
        assert f.universe == names1 + tuple(f"g{l}" for l in range(2, m))
        assert f.names(f.bits[0]) == names1 and f.names(f.bits[1]) == names2
        assert classify(ctx).names == (names1, names2)
        assert same_faces(f.sides[0], build(d1)) and same_faces(f.sides[1], build(d2))
        # named, each side's facets are its universe facets
        for x, names, facets in zip(f.sides, (names1, names2), f.facets):
            assert set(facet_label_sets(named(x, names))) == _label_sets(f, facets)
        assert f.internal == (_mask(f, [f_label(l) for l in range(2, m)]),
                              _mask(f, [g_label(l, m) for l in range(2, m)]))
        # side 2 reaches the universe by one fixed bit permutation, which
        # carries its faces as it carries its facets
        for p, label in enumerate(names2):
            assert f.from_side2([1 << p]) == [1 << f.bits[1][p]] == [_mask(f, [label])]
        assert flat_faces(f, f.faces[1]) == face_set(f.facets[1])
        # the witnesses' names: each side walks its endpoint edge onto the
        # other side's internal slots, from slot m - 1 down
        slots = range(m - 1, 1, -1)
        (*_, edge1, fresh1), (*_, edge2, fresh2) = f._witness
        assert edge1 == (f_label(1), f_label(m)) and edge2 == (f_label(m), f_label(1))
        assert fresh1 == tuple(g_label(l, m) for l in slots)
        assert fresh2 == tuple(f_label(l) for l in slots)
        w = classify(ctx).witness
        if w and w["kind"] == "subdivision":
            assert (w["edge"], w["fresh"]) == ((edge1, fresh1) if w["of_side"] == 1
                                               else (edge2, fresh2))
        elif w and w["kind"] == "common refinement":
            assert (w["edge"], w["fresh_from_side_1"], w["fresh_from_side_2"]) == \
                (edge1, fresh1, fresh2)


def test_classify_again_runs_no_forward_pass(monkeypatch):
    # one cut of the move makes the memo entries of both sides, listing the
    # facets of each once, and side 1's entry keeps the rest of the cut:
    # classifying the move again runs no DP pass, neither a cut nor a
    # forward pass nor a listing, and each classification builds one outer
    # table and lists no face
    rng = random.Random(41)
    moves, forward = face_passes(monkeypatch), forward_passes(monkeypatch)
    cuts = cut_passes(monkeypatch)
    live = 0
    for _ in range(40):
        ctx, memo = random_context(rng), {}
        first = classify(ctx, memo)
        made = len(forward), len(cuts["cuts"]), len(cuts["sides"])
        again = classify(ctx, memo)
        assert (len(forward), len(cuts["cuts"]), len(cuts["sides"])) == made
        assert moves[-1] == moves[-2] == ["table"]
        assert (again.case, again.witness, again.decomposition.checks) == \
            (first.case, first.witness, first.decomposition.checks)
        assert (again.delta1, again.delta2) == (first.delta1, first.delta2)
        # a report is one result: its copy, every field the same, is another
        copy = first._replace()
        assert tuple(copy) == tuple(first) and copy != first and not copy == first
        assert len({first, copy, first}) == 2
        live += not first.delta1.is_void
    assert forward and len(moves) == 80
    assert len(cuts["cuts"]) == 40 and len(cuts["sides"]) == len(set(cuts["sides"])) == 2 * live


def test_classify_makes_no_inner_f_vector():
    # the identities read the inner complexes' h, gamma and voidness and
    # nothing prints their f or facets, so the cut gives their h and the
    # memo holds no entry of them; a later build of such a word makes its
    # entry, whose h is the cut's
    rng = random.Random(43)
    read = 0
    for _ in range(40):
        ctx, memo = random_context(rng), {}
        f = MoveFacts(ctx, memo)
        classify(ctx, memo)
        inner = [SubwordDescriptor(ctx.system, ctx.side_word(side, 2), ctx.pi) for side in (1, 2)]
        assert all((d.word, d.pi) not in memo for d in inner)
        for d, h in zip(inner, f.h[2:]):
            x = build(d)
            assert h == (() if x.is_void else x.h_vector())
            assert "f" not in x._cache
            if not x.is_void:
                read += 1
                assert x.f_vector() == counted_f(x)
                assert "f" in x._cache
            assert same_faces(build(d, memo), x) and memo[d.word, d.pi].h == h
    assert read >= 10


def test_cut_matches_the_builds_word_by_word():
    # the move's cut against the builds word by word and the facet loop
    # (``check_cut``): on 300 seeded moves, each with a fresh memo, and on
    # every classified move of the A4, H3 and D4 w0 orders, which share one
    # memo per order, as ``build_rho``'s moves do
    seen = check_cuts(300, 0)
    assert min(seen.get(case, 0) for case in (1, 2, 3, 4, None)) >= 15, seen
    for name, classified in (("A4", 100), ("H3", 56), ("D4", 324)):
        W = system(name)
        p = rhoposet.build_rho(W, tuple(range(1, W.rank + 1)), (), W.longest_element())
        reports = {id(e.report): e.report for e in p.edges if e.report is not None}
        memo: dict = {}
        for rep in reports.values():
            check_cut(rep.ctx, memo)
        assert len(reports) == classified


def test_face_limit_read_off_the_cut_before_any_list(monkeypatch, capsys):
    # the cut gives each side's h, which sums to its facet count, before
    # any prefix, window or suffix list is made: with MAX_FACES between the
    # sides' 4 and 5 facets the move exits 2 with one error line, after one
    # cut and no listing, and one more facet lets it through
    from coxsub import cli
    from coxsub.simplicial import FACE_LIMIT_ERROR

    cuts = cut_passes(monkeypatch)
    args = ["classify", "--group", "A3", "--word", "1,1,2,1,1,3,2,1", "--pos", "2", "--pi", "w0"]
    monkeypatch.setattr(braid, "MAX_FACES", 4)
    assert cli.main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {FACE_LIMIT_ERROR}\n"
    assert len(cuts["cuts"]) == 1 and cuts["sides"] == []
    monkeypatch.setattr(braid, "MAX_FACES", 5)
    assert cli.main(args) == 0 and len(cuts["cuts"]) == 2 and len(cuts["sides"]) == 2


def test_one_classify_leaves_two_memo_entries():
    # the memo holds side entries alone, none of h only: one classify leaves
    # exactly the entries of its two sides, each holding the complex that
    # the report names, void sides included
    rng = random.Random(47)
    A3, void = system("A3"), 0
    both_void = BraidContext(A3, (), (), 1, 2, A3.longest_element())
    for ctx in oracle_contexts() + [random_context(rng) for _ in range(100)] + [both_void]:
        memo: dict = {}
        rep = classify(ctx, memo)
        assert list(memo) == [(ctx.side_word(1), ctx.pi), (ctx.side_word(2), ctx.pi)]
        assert [e.complex for e in memo.values()] == [rep.delta1, rep.delta2]
        void += rep.delta1.is_void
    assert void == 1


def test_classify_reports_the_memo_complexes():
    # the report's complexes are the memo entries of the side words; the
    # move's names for their positions travel beside them, one tuple per
    # shape (|Q|, m, |Q'|), and the moves of one label pattern share one
    # decomposition report
    rng = random.Random(44)
    names, checks, decided = {}, {}, {}
    for _ in range(30):
        ctx, memo = random_context(rng), {}
        rep = classify(ctx, memo)
        assert rep.delta1 is memo[ctx.side_word(1), ctx.pi].complex
        assert rep.delta2 is memo[ctx.side_word(2), ctx.pi].complex
        assert [len(n) for n in rep.names] == [len(ctx.side_word(1))] * 2
        assert rep.names is names.setdefault((len(ctx.Q), rep.m, len(ctx.Qp)), rep.names)
        dec, labels = rep.decomposition, tuple(MoveFacts(ctx).table.labels.values())
        assert dec is decided.setdefault((rep.m, labels), dec)
        checks.setdefault(dec.checks, dec.checks)
    assert len(names) < 30 and len(checks) < len(decided) < 30


def test_i2_family():
    for m in range(3, 8):
        ctx = i2_context(m)
        rep = classify(ctx)
        assert rep.case == 2
        assert rep.witness_ok
        assert rep.delta1.f_vector() == (m + 2, m + 2)
        assert rep.delta2.f_vector() == (4, 4)
        assert rep.delta1.gamma() == (1, m - 2)
        assert rep.delta2.gamma() == (1, 0)
        assert rep.decomposition.ok
        assert rep.poly.h_ok and rep.poly.gamma_ok
        # shortened windows: side 1 stays reduced, side 2 gets a double letter
        f = MoveFacts(ctx)
        assert f.h[2:] == ((1,), ())  # the complex {()}, a sphere
        assert PositionComplex(ctx.system, f.words[2], ctx.pi).spherical
    rep5 = classify(i2_context(5))
    assert rep5.poly.delta_h == {(1, 1): -3}
    assert rep5.poly.rhs_h == {(1, 1): -3}
    assert rep5.poly.delta_gamma == (0, -3)
    assert rep5.poly.rhs_gamma == (0, -3)


def test_i2_witness_is_stepwise_subdivision():
    ctx = i2_context(5)
    rep = classify(ctx)
    m = ctx.m
    w = rep.witness
    assert w["kind"] == "subdivision" and w["of_side"] == 2
    assert w["edge"] == (f_label(m), f_label(1))
    assert w["fresh"] == tuple(f_label(l) for l in range(m - 1, 1, -1))
    step = named(rep.delta2, rep.names[1])
    r = f_label(m)
    for fresh in w["fresh"]:
        step = k_subdivide(step, (r, f_label(1)), 1, [fresh])
        r = fresh
    assert same_faces(step, named(rep.delta1, rep.names[0]))


def test_commutation_is_case_1():
    rng = random.Random(12)
    seen = 0
    while seen < 25:
        ctx = random_context(rng)
        if ctx.m != 2:
            continue
        rep = classify(ctx)
        assert rep.case == 1 and rep.supported
        assert rep.witness_ok
        assert same_faces(named(rep.delta1, rep.names[0]), named(rep.delta2, rep.names[1]))
        if rep.poly is not None:
            assert rep.poly.delta_h == {} and rep.poly.rhs_h == {}
        seen += 1


def test_case_table():
    rng = random.Random(13)
    for _ in range(80):
        ctx = random_context(rng)
        rep = classify(ctx)
        if ctx.m == 2:
            assert rep.case == 1
            continue
        if not rep.supported:
            assert rep.case is None and rep.witness is None
            assert ctx.m > 3 and not (rep.A3 and rep.B3)
            continue
        want = {(True, True): 1, (False, True): 2,
                (True, False): 3, (False, False): 4}[(rep.A2, rep.B2)]
        assert rep.case == want
        assert rep.witness_ok, (ctx.Q, ctx.Qp, ctx.i, ctx.j, rep.case)


def test_swapped_reverses_roles():
    rng = random.Random(14)
    for _ in range(50):
        ctx = random_context(rng)
        rep = classify(ctx)
        # the same move read in the other direction
        rev = classify(BraidContext(ctx.system, ctx.Q, ctx.Qp, ctx.j, ctx.i, ctx.pi))
        assert rev.A2 == rep.B2 and rev.B2 == rep.A2
        assert rev.A3 == rep.B3 and rev.B3 == rep.A3
        assert rev.supported == rep.supported
        if rep.case is not None:
            assert rev.case == {1: 1, 2: 3, 3: 2, 4: 4}[rep.case]
            assert rev.witness_ok == rep.witness_ok
            assert rev.delta1.f_vector() == rep.delta2.f_vector()
            assert rev.delta2.f_vector() == rep.delta1.f_vector()


def test_subfamily_membership():
    rng = random.Random(15)
    for _ in range(40):
        ctx = random_context(rng)
        m, f = ctx.m, MoveFacts(ctx)
        faces1, faces2 = (flat_faces(f, x) for x in f.faces)
        fams = subfamilies(f)
        d1_int, d1_F, d2_int, d2_G = (flat_faces(f, x) for x in (fams.d1_int, fams.d1_F,
                                                                fams.d2_int, fams.d2_G))
        internal_f = _mask(f, [f_label(l) for l in range(2, m)])
        internal_g = _mask(f, [g_label(l, m) for l in range(2, m)])
        endpoint = _mask(f, [f_label(1), f_label(m)])
        assert d1_int == {s for s in faces1 if s & internal_f}
        assert d1_F == {s for s in faces1 if s & endpoint == endpoint}
        assert d2_int == {s for s in faces2 if s & internal_g}
        assert d2_G == {s for s in faces2 if s & endpoint == endpoint}


def test_tilde_isomorphism_and_partition():
    rng = random.Random(16)
    for _ in range(40):
        f = MoveFacts(random_context(rng))
        t1 = flat_faces(f, tilde(f, 1))
        t2 = flat_faces(f, tilde(f, 2))
        assert t1 == t2  # the shared universe makes the reduced sides literal
        assert all(x & ~(1 << b) in t2 for x in t2 for b in range(x.bit_length()))
        fams = subfamilies(f)
        rest = flat_faces(f, fams.d2_int) | flat_faces(f, fams.d2_G)
        assert t2 & rest == set()
        assert t2 | rest == flat_faces(f, f.faces[1])


def _remap(face: frozenset, table: dict) -> frozenset:
    return frozenset(table.get(v, v) for v in face)


def _label_reference(f: MoveFacts):
    """The interface families and reduced complexes built on label sets
    through the shift tables of the link isomorphisms."""
    ctx, m = f.ctx, f.m
    # the shortened windows, with neutral labels "w1".."w{m-2}"
    inner = word_labels(ctx, (f"w{t}" for t in range(1, m - 1)))
    k1, k2 = (named(build(SubwordDescriptor(ctx.system, ctx.side_word(side, 2), ctx.pi)), inner)
              for side in (1, 2))
    faces1, faces2 = face_label_sets(k1), face_label_sets(k2)
    endpoint = frozenset({f_label(1), f_label(m)})

    def shift_table(l: int, lab) -> dict:
        # link iso for the edge at slots (l, l+1): w_t lands before or after it
        return {f"w{t}": lab(t if t < l else t + 2) for t in range(1, m - 1)}

    d1_int: set = set()
    d2_int: set = set()
    for l in range(2, m):
        phi_l = shift_table(l, f_label)
        phi_prev = shift_table(l - 1, f_label)
        psi_l = shift_table(l, lambda t: g_label(t, m))
        psi_prev = shift_table(l - 1, lambda t: g_label(t, m))
        fl0, fl, fl1 = f_label(l - 1), f_label(l), f_label(l + 1)
        gl0, gl, gl1 = g_label(l - 1, m), g_label(l, m), g_label(l + 1, m)
        for sig in faces1:
            a = _remap(sig, phi_l)
            b = _remap(sig, phi_prev)
            d1_int.update((a | {fl, fl1}, a | {fl}, b | {fl}, b | {fl0, fl}))
        for rho in faces2:
            a = _remap(rho, psi_l)
            b = _remap(rho, psi_prev)
            d2_int.update((a | {gl, gl1}, a | {gl}, b | {gl}, b | {gl0, gl}))
    psi_F = {f"w{t}": f_label(t + 1) for t in range(1, m - 1)}
    phi_G = {f"w{t}": g_label(t + 1, m) for t in range(1, m - 1)}
    d1_F = {_remap(rho, psi_F) | endpoint for rho in faces2}
    d2_G = {_remap(sig, phi_G) | endpoint for sig in faces1}
    reduced = []
    for side, x in zip((1, 2), _named_sides(f)):
        internal = {(f_label(l) if side == 1 else g_label(l, m)) for l in range(2, m)}
        reduced.append({fs for fs in face_label_sets(x)
                        if not fs & internal and not endpoint <= fs})
    return (d1_int, d1_F, d2_int, d2_G), reduced


def test_mask_families_match_label_reference():
    rng = random.Random(22)
    seen_m = set()
    for _ in range(40):
        f = MoveFacts(random_context(rng))
        seen_m.add(f.m)
        fams = subfamilies(f)
        want_fams, want_reduced = _label_reference(f)
        got = (fams.d1_int, fams.d1_F, fams.d2_int, fams.d2_G)
        for mask_family, label_family in zip(got, want_fams):
            assert _label_sets(f, flat_faces(f, mask_family)) == label_family
        for side, x in zip((1, 2), _named_sides(f)):
            assert _label_sets(f, flat_faces(f, f.faces[side - 1])) == set(face_label_sets(x))
            assert _label_sets(f, flat_faces(f, tilde(f, side))) == want_reduced[side - 1]
    assert seen_m >= {2, 3, 4, 5}


def test_decomposition_report():
    rng = random.Random(17)
    for _ in range(40):
        ctx = random_context(rng)
        dec = verify_decomposition(MoveFacts(ctx))
        assert dec.ok, dec.mismatches
        assert bool(dec)
        names = [n for n, _ in dec.checks]
        assert len(names) == len(set(names))
        chain_names = [n for n in names if "chain" in n]
        if dec.chain_checked:
            assert ctx.m == 2 or (condition(ctx, "A", 3) and condition(ctx, "B", 3))
            assert chain_names
        else:
            assert not chain_names


def test_split_algebra_matches_flat_oracle():
    # the families of the outer table, flattened, and every check against
    # the algebra that crosses and tests each face on its own; each
    # complex's family, window part by window part, against the face fold
    # split at its window; the last move has void sides, whose families are empty
    seen, A3 = set(), system("A3")
    for ctx in oracle_contexts() + [BraidContext(A3, (), (), 1, 2, A3.longest_element())]:
        f = MoveFacts(ctx)
        q, m = f.q, f.m
        faces, fams, tildes = flat_move(f)
        got = f.families
        assert tuple(flat_faces(f, x) for x in f.faces) == faces
        assert tuple(flat_faces(f, x) for x in (got.d1_int, got.d1_F, got.d2_int,
                                                got.d2_G)) == fams
        assert (flat_faces(f, tilde(f, 1)), flat_faces(f, tilde(f, 2))) == tildes
        # no family holds the label 0 of an empty O
        assert all(all(fam.values()) for fam in (*f.faces, got.d1_int, got.d1_F, got.d2_int,
                                                 got.d2_G, tilde(f, 1), tilde(f, 2)))
        inner = (*range(q + m - 2), *range(q + m, f.L))  # Q' moved up by two
        for side in (1, 2):
            for word, bits, n, fam in (
                    (ctx.side_word(side), f.bits[side - 1], m, f.faces[side - 1]),
                    (ctx.side_word(side), range(f.L), m, f.walks[side - 1][0]),
                    (ctx.side_word(side, 2), inner, m - 2, f.walks[side - 1][1])):
                want = split_faces(ctx.system, word, ctx.pi, bits, q, q + n)
                assert {k: outer_parts(f, label) for k, label in fam.items()} == want
        dec = verify_decomposition(f)
        checks, mismatches = flat_decomposition(f, faces, fams, tildes)
        assert dec.checks == checks and dec.mismatches == mismatches == {}
        seen.add((min(f.m, 5), dec.chain_checked))
    assert seen >= {(2, True), (3, True), (3, False), (4, True), (4, False), (5, True)}


def test_mismatches_name_the_faces_a_family_lost(monkeypatch):
    # the faces of one window part taken from one family fail the checks
    # that read it, the same checks as in the flat algebra; each failed
    # check names faces of its face-level symmetric difference, read off
    # the labels: the lost part itself and it with each generator of its O
    f = MoveFacts(i2_context(4))
    assert f.chain_checked
    faces, fams, tildes = flat_move(f)
    key = min(fams[0], key=lambda x: (x.bit_count(), x)) & ((1 << f.m) - 1) << f.q
    lost = frozenset(x for x in fams[0] if x & ((1 << f.m) - 1) << f.q == key)
    label = f.families.d1_int[key]
    d1_int = Family({k: label for k, label in f.families.d1_int.items() if k != key})
    monkeypatch.setattr(f, "families", f.families._replace(d1_int=d1_int))
    no_face_listing(monkeypatch)
    dec = verify_decomposition(f)
    rows = flat_rows(f, faces, (fams[0] - lost, *fams[1:]), tildes)
    assert not dec.ok and dec.checks == tuple((name, got == want) for name, got, want in rows)
    assert set(dec.mismatches) == {name for name, got, want in rows if got != want} == {
        "internal family, side 1", "patched union identity", "refinement chain 1=2"}
    def labelled(masks) -> set:
        return {tuple(sorted(f.names(_bits(x)))) for x in masks}

    for name, got, want in rows:
        if got != want:
            assert dec.mismatches[name] and set(dec.mismatches[name]) <= labelled(got ^ want)
    named = dec.mismatches["internal family, side 1"]
    assert named == f.face_labels({key} | {key | g for g in f.table.generators(label)})
    assert set(named) <= labelled(lost)


def test_family_checks_equal_face_checks_under_faults(monkeypatch):
    # 2,000 realizable faults (a part dropped or added, or a label replaced
    # by a join of outer-table labels) in the families of seeded moves: the
    # family checks equal the face-level ones, and every failed check names
    # faces of its face-level symmetric difference; no face is listed by
    # the package
    no_face_listing(monkeypatch)
    stats = inject_faults(2000)
    assert stats["injected"] == 2000 and stats["failed"] >= 1800
    assert stats["named"] >= stats["failed"]


def test_chain_identity_needs_window_conditions():
    # a face may contain the endpoint edge and an internal vertex at once;
    # the refinement chain is then skipped, all unconditional checks hold
    B3 = system("B3")
    ctx = BraidContext(B3, (1, 3, 2), (3,), 3, 2, B3.element_of((1, 2)))
    assert ctx.m == 4
    rep = classify(ctx)
    assert rep.case is None and not rep.supported
    dec = rep.decomposition
    assert dec.ok and not dec.chain_checked
    f = MoveFacts(ctx)
    fams = subfamilies(f)
    endpoint = _mask(f, [f_label(1), f_label(4)])
    internal = _mask(f, [f_label(2), f_label(3)])
    bad = [s for s in flat_faces(f, fams.d1_int) if s & endpoint == endpoint and s & internal]
    assert bad  # the gated faces that break the literal chain equality


def test_check_A3B3_edges():
    sys4 = system("I2:4")
    ctx = BraidContext(sys4, (1, 2), (), 1, 2, sys4.longest_element())
    assert condition(ctx, "A", 3) and condition(ctx, "B", 3)
    assert check_A3B3_edges(MoveFacts(ctx))
    with pytest.raises(ValueError):
        check_A3B3_edges(MoveFacts(i2_context(3)))  # m must exceed 3
    B3 = system("B3")
    bad = BraidContext(B3, (1, 3, 2), (3,), 3, 2, B3.element_of((1, 2)))
    with pytest.raises(ValueError):
        check_A3B3_edges(MoveFacts(bad))  # window conditions fail


def test_polynomial_identity_recomputed():
    # both sides rebuilt here from raw h-vectors, not the report's helpers
    def monomials(h):
        n = len(h) - 1
        return {(k, n - k): c for k, c in enumerate(h) if c}

    def subtract(a, b):
        out = dict(a)
        for key, c in b.items():
            out[key] = out.get(key, 0) - c
        return {k: c for k, c in out.items() if c}

    rng = random.Random(18)
    checked = 0
    while checked < 60:
        f = MoveFacts(random_context(rng))
        if not f.supported:
            with pytest.raises(ValueError):
                polynomial_delta(f)
            continue
        rep = polynomial_delta(f)
        h1, h2 = (() if x.is_void else x.h_vector() for x in f.sides)
        k1, k2 = f.h[2:]  # the cut's h of the shortened windows
        delta = subtract(monomials(h2), monomials(h1))
        inner = subtract(monomials(k2), monomials(k1))
        rhs = {(a + 1, t + 1): (f.m - 2) * c for (a, t), c in inner.items()}
        assert rep.delta_h == delta
        assert rep.rhs_h == rhs
        assert delta == rhs
        assert rep.h_ok
        if all(rep.spherical):
            assert rep.gamma_ok
        checked += 1


def test_hypothesis_met():
    assert MoveFacts(i2_context(3)).supported
    assert MoveFacts(i2_context(7)).supported  # extra letters keep A3/B3 true here
    B3 = system("B3")
    bad = BraidContext(B3, (1, 3, 2), (3,), 3, 2, B3.element_of((1, 2)))
    assert not MoveFacts(bad).supported
    sys2 = system("A3")
    ctx2 = BraidContext(sys2, (), (), 1, 3, sys2.element_of((1, 3)))
    assert ctx2.m == 2 and MoveFacts(ctx2).supported


def test_move_context_validation():
    A3 = system("A3")
    w0 = A3.longest_element()
    with pytest.raises(ValueError):
        move_context(A3, (1, 2, 1), 3, w0)  # out of range
    with pytest.raises(ValueError):
        move_context(A3, (1, 1, 2), 1, w0)  # no window at equal letters
    with pytest.raises(ValueError):
        move_context(A3, (1, 2, 2), 1, w0)  # m=3 window does not alternate
    ctx = move_context(A3, (3, 1, 2, 1, 3), 2, w0)
    assert (ctx.Q, ctx.i, ctx.j, ctx.Qp) == ((3,), 1, 2, (3,))


def test_a3_chain_frozen():
    A3 = system("A3")
    w0 = A3.longest_element()
    start = (1, 2, 3, 3, 2, 1, 3, 2, 3)
    moves = (6, 4, 6, 5, 8, 6, 4, 6)
    rep = apply_sequence(A3, start, w0, moves)
    assert [s.report.case for s in rep.steps] == [1, 3, 1, 1, 1, 3, 3, 1]
    assert all(s.report.witness_ok and s.report.supported for s in rep.steps)
    assert all(s.report.decomposition.ok for s in rep.steps)
    rows = [rep.rows[k] for k in (0, 1, 2, 3, 5, 6, 7, 8)]
    assert [r["f_vector"] for r in rows] == [
        (6, 12, 8), (6, 12, 8), (7, 15, 10), (7, 15, 10), (7, 15, 10),
        (8, 18, 12), (9, 21, 14), (9, 21, 14)]
    assert [r["gamma1"] for r in rows] == [0, 0, 1, 1, 1, 2, 3, 3]
    assert [set(r["vertices"]) for r in rows] == [
        {1, 2, 3, 4, 7, 9}, {1, 2, 3, 4, 6, 9}, {1, 2, 3, 4, 5, 6, 9},
        {1, 2, 3, 4, 5, 8, 9}, {1, 2, 3, 4, 6, 8, 9}, {1, 2, 3, 4, 6, 7, 8, 9},
        set(range(1, 10)), set(range(1, 10))]
    assert rep.words[-1] == (1, 2, 3, 1, 2, 3, 1, 2, 1)
    # each next word is the classified move's side 2, the window rewritten
    assert all(braid_step(A3, a, pos) == b
               for a, b, pos in zip(rep.words, rep.words[1:], moves))
    assert all(r["spherical"] for r in rep.rows)


def test_case1_witness_matches_label_equality():
    rng = random.Random(23)
    case1_orders, outcomes = set(), set()
    for _ in range(300):
        ctx = random_context(rng)
        rep = classify(ctx)
        # the reference
        equal = same_faces(named(rep.delta1, rep.names[0]), named(rep.delta2, rep.names[1]))
        f = MoveFacts(ctx)
        assert (flat_faces(f, f.faces[0]) == flat_faces(f, f.faces[1])) == equal
        assert (f.facets[0] == f.facets[1]) == equal
        if rep.case == 1:
            assert rep.witness_ok == equal
            case1_orders.add(min(rep.m, 3))
        outcomes.add(equal)
    # the sweep holds case-1 moves at m = 2 and m >= 3, equal and unequal sides
    assert case1_orders == {2, 3} and outcomes == {True, False}


def test_subdivision_witnesses_match_label_reference():
    rng = random.Random(24)
    seen = set()
    for _ in range(200):
        ctx = random_context(rng)
        rep = classify(ctx)
        if rep.case not in (2, 3, 4):
            continue
        seen.add(rep.case)
        f, m = MoveFacts(ctx), rep.m
        ends = (f_label(1), f_label(m))
        fresh_f = [f_label(l) for l in range(m - 1, 1, -1)]
        fresh_g = [g_label(l, m) for l in range(m - 1, 1, -1)]
        # the reference: labelled subdivisions, None where the edge is missing
        refs, masks = [], []
        x1, x2 = named(rep.delta1, rep.names[0]), named(rep.delta2, rep.names[1])
        for x, facets, edge, fresh in ((x1, f.facets[0], ends, fresh_g),
                                       (x2, f.facets[1], ends[::-1], fresh_f)):
            refs.append(k_subdivide(x, edge, m - 2, fresh) if has_face(x, edge) else None)
            bits = [_mask(f, [v]) for v in edge + tuple(fresh)]
            masks.append(subdivide(facets, bits[0], bits[1], bits[2:]))
        for ref, mask in zip(refs, masks):
            assert (ref is None) == (mask is None)
            if ref is not None:
                assert _label_sets(f, mask) == set(facet_label_sets(ref))
        sub1, sub2 = refs
        if rep.case == 2:
            assert rep.witness_ok == (sub2 is not None and same_faces(sub2, x1))
        elif rep.case == 3:
            assert rep.witness_ok == (sub1 is not None and same_faces(sub1, x2))
        else:
            assert rep.witness["agree"] == (None not in refs and same_faces(sub1, sub2))
            assert rep.witness_ok == rep.witness["agree"]
    assert seen == {2, 3, 4}


def test_mask_subdivision_matches_k_subdivide():
    rng = random.Random(25)
    non_edges = 0
    for _ in range(60):
        n = rng.randrange(3, 8)
        facets = [rng.sample(range(n), rng.randrange(2, n + 1))
                  for _ in range(rng.randrange(1, 5))]
        x = LabeledComplex.from_facets(facets)
        verts = x.vertices
        s, t = rng.sample(range(len(verts)), 2)
        k = rng.randrange(0, 4)
        # fresh vertex r_i lands at index len(verts) + i - 1, as k_subdivide appends it
        fresh_bits = [1 << (len(verts) + r) for r in range(k)]
        got = subdivide(x.facets, 1 << s, 1 << t, fresh_bits)
        edge = (verts[s], verts[t])
        if not has_face(x, edge):
            non_edges += 1
            assert got is None
            with pytest.raises(ValueError):
                k_subdivide(x, edge, k, [f"r{r}" for r in range(k)])
            continue
        ref = k_subdivide(x, edge, k, [f"r{r}" for r in range(k)])
        assert got == frozenset(ref.facets)
        assert face_set(got) == set(face_masks(ref))
    assert non_edges > 0


def _demazure_tables(sys_) -> tuple:
    """Every element of a finite group as an index, by length from the
    identity 0: right multiplication by each generator, the Bruhat down-set
    of each element as a bitmask over the indices, and the Demazure product
    x * g of every pair as ``star[x][g]``.  Only the multiplication comes
    from the library: the down-set of a reduced p s is that of p together
    with its right multiples by s (the subword property)."""
    ids, index, parents, length = [0], {0: 0}, [None], [0]
    for g in ids:  # breadth first, so a new h = g s has length l(g) + 1
        for s in range(sys_.rank):
            h = sys_._times(g, s)
            if h not in index:
                index[h] = len(ids)
                ids.append(h)
                parents.append((index[g], s))
                length.append(length[index[g]] + 1)
    times = [[index[sys_._times(g, s)] for s in range(sys_.rank)] for g in ids]
    down = [1]
    for p, s in parents[1:]:
        d = down[p]
        for u in range(len(ids)):
            if down[p] >> u & 1:
                d |= 1 << times[u][s]
        down.append(d)
    star = []
    for x in range(len(ids)):
        row = [x]
        for p, s in parents[1:]:
            a = row[p]
            b = times[a][s]
            row.append(a if length[b] < length[a] else b)
        star.append(row)
    return times, down, star


def test_window_lemma_on_demazure_products():
    # classify's lemma for every pi at once: with J = {i, j}, m = m_ij >= 3
    # and 0 < k < m, every pi below x*d*y for both d in W_J of length k lies
    # below x*e*y for an e of length k - 1, for all x and y; one d alone
    # is not enough
    for name in ("A3", "B3", "H3", "A4", "D4", "I2:7", "B4"):
        sys_ = system(name)
        times, down, star = _demazure_tables(sys_)
        bad = one_sided = 0
        for i in range(sys_.rank):
            for j in range(i + 1, sys_.rank):
                m = int(sys_.m[i, j])
                if m < 3:
                    continue
                # per first letter, the element of W_J of each length 0..m-1
                alt = []
                for a, b in ((i, j), (j, i)):
                    w = [0]
                    for t in range(m - 1):
                        w.append(times[w[-1]][(a, b)[t % 2]])
                    alt.append(w)
                for k in range(1, m):
                    for row in star:
                        for d1, d2, e1, e2 in zip(*(star[row[w[l]]] for l in (k, k - 1)
                                                    for w in alt)):
                            below = down[e1] | down[e2]
                            bad += bool(down[d1] & down[d2] & ~below)
                            one_sided += bool(down[d1] & ~below)
        assert bad == 0, name
        assert one_sided > 0, name


def test_no_chain_checked_common_refinement():
    # the lemma's consequences on 1,000 seeded moves: no case-4 move is
    # chain-checked, and when both sides are spheres the words with the
    # window shortened by two are void or spheres
    rng = random.Random(71)
    seen = {"case 4": 0, "both spherical": 0}
    for _ in range(1000):
        ctx = random_context(rng)
        memo: dict = {}
        rep = classify(ctx, memo)
        f = MoveFacts(ctx, memo)
        assert not (rep.case == 4 and rep.decomposition.chain_checked), ctx
        assert shortened_void_or_spherical(f), ctx
        seen["case 4"] += rep.case == 4
        seen["both spherical"] += all(f.spherical)
    assert all(seen.values()), seen


def test_find_move_path():
    A2 = system("A2")
    assert find_move_path(A2, (1, 2, 1), (2, 1, 2)) == [1]
    assert find_move_path(A2, (1, 2, 1), (1, 2, 1)) == []
    A3 = system("A3")
    w0 = A3.longest_element()
    words = A3.reduced_words(w0)
    rng = random.Random(19)
    for _ in range(10):
        a, b = rng.sample(words, 2)
        path = find_move_path(A3, a, b)
        cur = a
        for pos in path:
            cur = braid_step(A3, cur, pos)
        assert cur == b
    with pytest.raises(ValueError):
        find_move_path(A3, (1, 2, 1), (2, 3, 2))  # different elements


def test_find_move_path_cap():
    A3 = system("A3")
    words = A3.reduced_words(A3.longest_element())
    start = words[0]
    # the word the search reaches last, as the 16th
    far = list(A3._braid_search(start, len(words)))[-1]
    # a goal is returned as soon as it is reached, even past the cap
    for cap in (len(words), len(words) - 1):
        cur = start
        for pos in find_move_path(A3, start, far, cap=cap):
            cur = braid_step(A3, cur, pos)
        assert cur == far
    with pytest.raises(ValueError, match=f"more than {len(words) - 2}"):
        find_move_path(A3, start, far, cap=len(words) - 2)
    # without a reachable goal the cap acts as in reduced_words
    B3 = system("B3")
    w = B3.word_of(B3.longest_element())
    with pytest.raises(ValueError, match="not related"):
        find_move_path(B3, w, (1,), cap=42)
    with pytest.raises(ValueError, match="more than 41"):
        find_move_path(B3, w, (1,), cap=41)


def test_case4_common_refinement():
    rng = random.Random(20)
    found = 0
    while found < 12:
        ctx = random_context(rng)
        rep = classify(ctx)
        if rep.case != 4:
            continue
        w = rep.witness
        assert w["kind"] == "common refinement" and w["agree"]
        m = ctx.m
        sub1 = k_subdivide(named(rep.delta1, rep.names[0]), (f_label(1), f_label(m)), m - 2,
                           w["fresh_from_side_1"])
        sub2 = k_subdivide(named(rep.delta2, rep.names[1]), (f_label(m), f_label(1)), m - 2,
                           w["fresh_from_side_2"])
        assert same_faces(sub1, sub2)
        found += 1


def test_random_sweep():
    rng = random.Random(21)
    counts = {1: 0, 2: 0, 3: 0, 4: 0, None: 0}
    for _ in range(120):
        ctx = random_context(rng)
        rep = classify(ctx)
        counts[rep.case] += 1
        assert rep.decomposition.ok
        if rep.case is not None:
            assert rep.witness_ok
        if rep.supported:
            assert rep.poly.h_ok
            assert rep.poly.gamma_ok is not False
    assert counts[1] > 0 and counts[2] + counts[3] > 0  # the sweep saw variety


def test_length3_conditions_read_off_the_outer_table():
    # a window shortened by three is void iff the label of Dem of its first
    # m - 3 letters is 0: the oracle moves agree with the Demazure fold of
    # ``condition``
    contexts = oracle_contexts()
    want = [(condition(ctx, "A", 3), condition(ctx, "B", 3)) if ctx.m >= 3 else (None, None)
            for ctx in contexts]
    for ctx, pair in zip(contexts, want):
        rep = classify(ctx)
        assert (rep.A3, rep.B3) == pair, ctx
    assert {a for pair in want for a in pair} == {None, True, False}


def test_shortened_windows_voidness_read_off_the_outer_table():
    # a window shortened by two is void iff the label of Dem of its first
    # m - 2 letters is 0, so A2 and B2 are read off the outer table too:
    # they agree with the cut's h of the shortened windows
    rng = random.Random(62)
    seen = set()
    for ctx in oracle_contexts() + [random_context(rng) for _ in range(200)]:
        f = MoveFacts(ctx)
        labels = f.table.labels
        got = [not labels[chain[f.m - 2]] for chain in f.table.chains]
        assert got == [f.conditions["A2"], f.conditions["B2"]], ctx
        assert got == [not h for h in f.h[2:]], ctx
        seen.update(got)
    assert seen == {True, False}


def test_outer_table_matches_the_two_pass_oracle():
    # one pass over side 1's facets gives each outer part the bit of its
    # column, read from the first rise along each window chain; the oracle
    # tests the Demazure criterion for each d of W_ij on its own, so the
    # labels, in chain order, and the parts with their bits agree, and with
    # them every key of ``classify``'s table
    rng = random.Random(38)
    shared = heads = 0
    for _ in range(300):
        f = MoveFacts(random_context(rng, names=("A3", "B3", "H3", "A4", "D4")))
        assert same_outer_table(f), f.ctx
        parts = f.table.parts
        shared += len(parts) < len(f._entries[0].word_facets)
        heads += len({x & (1 << f.q) - 1 for x in parts}) < len(parts)
    assert min(shared, heads) >= 30, (shared, heads)


def test_window_chains_folded_once_per_system_and_pair(monkeypatch):
    # the outer table reads both window chains from a cache per system,
    # keyed on (i, j): over the 2,700 inputs of the seed-0 classify stream
    # each (system, i, j) is folded once, not twice per move
    chains, demazures = [], []
    chain, fold = CoxeterSystem._chain, CoxeterSystem._demazures
    monkeypatch.setattr(CoxeterSystem, "_chain",
                        lambda self, i, j: chains.append((self, i, j)) or chain(self, i, j))
    # the benchmark's stream over fresh systems, made after the patch so that
    # their chain caches wrap the counter
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    systems = workloads.make_systems(workloads.CLASSIFY_GROUPS)
    stream = list(itertools.islice(workloads.classify_inputs(systems, 0), 2700))
    monkeypatch.setattr(CoxeterSystem, "_demazures",
                        lambda self, letters: demazures.append(1) or fold(self, letters))
    met = set()
    for _, ctx in stream:
        classify(ctx)
        met.update({(ctx.system, ctx.i - 1, ctx.j - 1), (ctx.system, ctx.j - 1, ctx.i - 1)})
    assert len(stream) == 2700
    assert len(chains) == len(set(chains)) and set(chains) == met
    assert len(met) <= sum(r * (r - 1) for r in (3, 3, 3, 4, 4))
    # one fold per move, for its cut, and one per chain: 2 x 2,700 chain
    # folds fewer than when each move folded both of its chains
    assert len(demazures) == 2700 + len(met)


def test_equal_label_patterns_decide_equal_checklists():
    # the key of ``classify``'s table: moves with the same m and the same
    # outer labels in chain order get the same checklist, chain flag and
    # window conditions, each evaluated afresh, across groups, |Q| and |Q'|
    rng = random.Random(63)
    contexts = oracle_contexts() + [random_context(rng, names=("A3", "B3", "H3", "A4"))
                                    for _ in range(300)]
    patterns: dict = {}
    for ctx in contexts:
        f = MoveFacts(ctx)
        dec = verify_decomposition(f)
        assert dec.ok
        decided = dec.checks, dec.chain_checked, f.conditions
        shape = ctx.system, len(ctx.Q), len(ctx.Qp)
        patterns.setdefault((f.m, tuple(f.table.labels.values())), []).append((decided, shape))
    varied = set()
    for rows in patterns.values():
        assert all(decided == rows[0][0] for decided, _ in rows)
        for k in range(3):
            varied.add((k, len({shape[k] for _, shape in rows}) > 1))
    assert {(0, True), (1, True), (2, True)} <= varied


def test_classify_keeps_passing_checklists_alone(monkeypatch):
    # a label pattern is evaluated until it passes, then read from the
    # table: a failing outcome is not stored, a passing report is, and the
    # moves of its pattern share it
    monkeypatch.setattr(braid, "_DECOMPOSED", {})
    ctx, calls = i2_context(5), []
    real = braid.verify_decomposition

    def failing(f):
        calls.append(f)
        return real(f)._replace(ok=False, mismatches={"side 2 partition": ()})

    monkeypatch.setattr(braid, "verify_decomposition", failing)
    assert not classify(ctx).decomposition.ok and not classify(ctx).decomposition.ok
    assert len(calls) == 2 and not braid._DECOMPOSED
    monkeypatch.setattr(braid, "verify_decomposition", lambda f: calls.append(f) or real(f))
    first, again = classify(ctx).decomposition, classify(ctx).decomposition
    assert len(calls) == 3 and first.ok and again.ok and first is again
    assert again.checks is first.checks and again.chain_checked == first.chain_checked
    assert again.mismatches == {}
    f = MoveFacts(ctx)
    assert braid._DECOMPOSED == {(f.m, tuple(f.table.labels.values())): (first, True)}


def test_classify_keeps_passing_witnesses_alone(monkeypatch):
    # the facet witness runs with the checklist, once per key of classify's
    # table: a failing witness is reported and not stored, so it runs again;
    # a passing one is stored, and the moves of its key read it
    monkeypatch.setattr(braid, "_DECOMPOSED", {})
    ctx, calls = i2_context(5), []
    real = braid.facet_witness
    monkeypatch.setattr(braid, "facet_witness", lambda f, case: calls.append(case) or False)
    assert [classify(ctx).witness_ok for _ in range(2)] == [False, False]
    assert calls == [2, 2] and not braid._DECOMPOSED
    monkeypatch.setattr(braid, "facet_witness",
                        lambda f, case: calls.append(case) or real(f, case))
    reports = [classify(ctx) for _ in range(2)]
    assert [r.witness_ok for r in reports] == [True, True] and calls == [2, 2, 2]
    assert reports[0].witness == reports[1].witness and reports[0].witness["kind"] == "subdivision"
    assert [known[1] for known in braid._DECOMPOSED.values()] == [True]


def test_every_column_set_passes_the_checklist():
    # classify's table has one key per set of W_ij's 3m - 1 columns: every
    # key it can hold for m <= 5 is checked here, the empty set (void sides)
    # included, and for m = 3..16 the 128 sets of the top seven columns,
    # which are exactly the chain-checked ones
    assert [len(columns(m)) for m in range(2, 17)] == [3 * m - 1 for m in range(2, 17)]
    for m in range(2, 6):
        assert check_column_sets(m) == (2 ** (3 * m - 1), 32 if m == 2 else 128)
    for m in range(3, 17):
        assert check_column_sets(m, top=True) == (128, 128)


def test_a4_order_verifies_each_column_set_once(monkeypatch):
    # A4 w0 after Q = 1,2,3,4 meets four column sets, so from an empty
    # table its order runs the checklist four times, once per key
    # and the facet witness as often
    monkeypatch.setattr(braid, "_DECOMPOSED", {})
    calls, real = [], braid.verify_decomposition
    monkeypatch.setattr(braid, "verify_decomposition", lambda f: calls.append(f) or real(f))
    witnesses, witness = [], braid.facet_witness
    monkeypatch.setattr(braid, "facet_witness",
                        lambda f, case: witnesses.append(case) or witness(f, case))
    A4 = system("A4")
    rhoposet.build_rho(A4, (1, 2, 3, 4), (), A4.longest_element())
    assert len(calls) == len(witnesses) == len(braid._DECOMPOSED) == 4

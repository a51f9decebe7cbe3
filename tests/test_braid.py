import random

import pytest

from conftest import (check_A3B3_edges, face_label_sets, has_face, k_subdivide,
                      random_context, system)
from coxsub import braid
from coxsub.braid import (BraidContext, MoveFacts, apply_sequence, classify, condition,
                          f_label, find_move_path, g_label, move_context,
                          polynomial_delta, subfamilies, tilde, verify_decomposition)
from coxsub.simplicial import LabeledComplex, face_set, subdivide
from coxsub.subword import SubwordDescriptor, build


def i2_context(m: int) -> BraidContext:
    sys_ = system(f"I2:{m}")
    return BraidContext(sys_, (1, 2), (), 1, 2, sys_.longest_element())


def _mask(f: MoveFacts, labels) -> int:
    """Universe mask of a label set, read off the move's label table."""
    return sum(1 << f.universe.index(v) for v in labels)


def _label_sets(f: MoveFacts, masks) -> set:
    """Universe masks turned back into label sets."""
    uni = f.universe
    return {frozenset(uni[b] for b in range(len(uni)) if x >> b & 1) for x in masks}


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
        d1x, d2x = MoveFacts(ctx).sides
        edge = (f_label(1), f_label(ctx.m))
        assert condition(ctx, "B", 2) == (not has_face(d1x, edge))
        assert condition(ctx, "A", 2) == (not has_face(d2x, edge))


def test_shared_namespace_crossing():
    m = 5
    assert g_label(1, m) == f_label(m)
    assert g_label(m, m) == f_label(1)
    assert g_label(2, m) == "g2"
    ctx = i2_context(m)
    d1 = ctx.side_descriptor(1)
    d2 = ctx.side_descriptor(2)
    assert d1.labels == ("Q1", "Q2", "f1", "f2", "f3", "f4", "f5")
    assert d2.labels == ("Q1", "Q2", "f5", "g2", "g3", "g4", "f1")
    f = MoveFacts(ctx)
    assert f.universe == d1.labels + ("g2", "g3", "g4")
    # side 2 reaches the universe by one fixed bit permutation
    for p, label in enumerate(d2.labels):
        assert f.from_side2([1 << p]) == {_mask(f, [label])}


def test_i2_family():
    for m in range(3, 8):
        ctx = i2_context(m)
        rep = classify(ctx)
        assert rep.case == 2
        assert rep.witness_ok
        assert rep.delta1.f_vector() == (m + 2, m + 2)
        assert rep.delta2.f_vector() == (4, 4)
        assert rep.delta1.gamma().coeffs == (1, m - 2)
        assert rep.delta2.gamma().coeffs == (1, 0)
        assert rep.decomposition.ok
        assert rep.poly.h_ok and rep.poly.gamma_ok
        # shortened windows: side 1 stays reduced, side 2 gets a double letter
        k1, k2 = MoveFacts(ctx).inner
        assert k1 == LabeledComplex.empty_face_only()
        assert k2.is_void
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
    step = rep.delta2
    r = f_label(m)
    for fresh in w["fresh"]:
        step = step.edge_subdivide((r, f_label(1)), fresh)
        r = fresh
    assert step == rep.delta1


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
        assert rep.delta1 == rep.delta2
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
        faces1, faces2 = f.faces
        fams = subfamilies(f)
        internal_f = _mask(f, [f_label(l) for l in range(2, m)])
        internal_g = _mask(f, [g_label(l, m) for l in range(2, m)])
        endpoint = _mask(f, [f_label(1), f_label(m)])
        assert fams.d1_int == {s for s in faces1 if s & internal_f}
        assert fams.d1_F == {s for s in faces1 if s & endpoint == endpoint}
        assert fams.d2_int == {s for s in faces2 if s & internal_g}
        assert fams.d2_G == {s for s in faces2 if s & endpoint == endpoint}


def test_tilde_isomorphism_and_partition():
    rng = random.Random(16)
    for _ in range(40):
        f = MoveFacts(random_context(rng))
        t1 = tilde(f, 1)
        t2 = tilde(f, 2)
        assert t1 == t2  # the shared universe makes the reduced sides literal
        assert all(x & ~(1 << b) in t2 for x in t2 for b in range(x.bit_length()))
        fams = subfamilies(f)
        rest = fams.d2_int | fams.d2_G
        assert t2 & rest == set()
        assert t2 | rest == f.faces[1]


def _remap(face: frozenset, table: dict) -> frozenset:
    return frozenset(table.get(v, v) for v in face)


def _label_reference(f: MoveFacts):
    """The interface families and reduced complexes built on label sets
    through the shift tables of the link isomorphisms."""
    ctx, m = f.ctx, f.m
    # the shortened windows, with neutral labels "w1".."w{m-2}"
    inner = ctx._labels(f"w{t}" for t in range(1, m - 1))
    k1, k2 = (build(SubwordDescriptor(ctx.system, ctx.side_word(side, 2), ctx.pi, inner))
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
    for side, x in zip((1, 2), f.sides):
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
            assert _label_sets(f, mask_family) == label_family
        for side, x in zip((1, 2), f.sides):
            assert _label_sets(f, f.faces[side - 1]) == set(face_label_sets(x))
            assert _label_sets(f, tilde(f, side)) == want_reduced[side - 1]
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
    bad = [s for s in fams.d1_int if s & endpoint == endpoint and s & internal]
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
    def monomials(x):
        if x.is_void:
            return {}
        h = x.h_vector()
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
        d1x, d2x = f.sides
        k1, k2 = f.inner
        delta = subtract(monomials(d2x), monomials(d1x))
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
    assert all(r["spherical"] for r in rep.rows)


def test_case1_witness_matches_label_equality():
    rng = random.Random(23)
    case1_orders, outcomes = set(), set()
    for _ in range(300):
        ctx = random_context(rng)
        rep = classify(ctx)
        equal = rep.delta1 == rep.delta2  # the reference
        f = MoveFacts(ctx)
        assert (f.faces[0] == f.faces[1]) == equal
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
        for x, facets, edge, fresh in ((rep.delta1, f.facets[0], ends, fresh_g),
                                       (rep.delta2, f.facets[1], ends[::-1], fresh_f)):
            refs.append(k_subdivide(x, edge, m - 2, fresh) if has_face(x, edge) else None)
            bits = [_mask(f, [v]) for v in edge + tuple(fresh)]
            masks.append(subdivide(facets, bits[0], bits[1], bits[2:]))
        for ref, mask in zip(refs, masks):
            assert (ref is None) == (mask is None)
            if ref is not None:
                assert _label_sets(f, mask) == set(ref.facet_label_sets())
        sub1, sub2 = refs
        if rep.case == 2:
            assert rep.witness_ok == (sub2 == rep.delta1)
        elif rep.case == 3:
            assert rep.witness_ok == (sub1 == rep.delta2)
        else:
            assert rep.witness["agree"] == (sub1 is not None and sub1 == sub2)
            assert rep.witness_ok == (rep.witness["agree"] and
                                      rep.witness.get("interface_expression_matches", True))
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
        # fresh vertex r_i lands at index len(verts) + i - 1, as edge_subdivide appends it
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
        assert face_set(got) == set(ref.faces_masks())
    assert non_edges > 0


def test_interface_expression_on_chain_checked_moves():
    # the common-refinement expression also describes the finer side of a
    # one-sided subdivision; no known move reaches it in case 4
    rng = random.Random(26)
    contexts = [i2_context(m) for m in range(3, 8)]
    contexts += [random_context(rng) for _ in range(150)]
    seen = set()
    for ctx in contexts:
        f = MoveFacts(ctx)
        if f.m == 2 or not f.chain_checked:
            continue
        case = classify(ctx).case
        if case not in (2, 3):
            continue
        seen.add(case)
        fine, coarse = f.facets if case == 2 else f.facets[::-1]
        assert braid._interface_expression_ok(f, fine)
        assert not braid._interface_expression_ok(f, coarse)
    assert seen == {2, 3}


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
            cur = A3.apply_braid_move(cur, pos)
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
            cur = A3.apply_braid_move(cur, pos)
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
        sub1 = k_subdivide(rep.delta1, (f_label(1), f_label(m)), m - 2,
                           w["fresh_from_side_1"])
        sub2 = k_subdivide(rep.delta2, (f_label(m), f_label(1)), m - 2,
                           w["fresh_from_side_2"])
        assert sub1 == sub2
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

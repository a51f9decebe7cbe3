import itertools
import random

import pytest

from conftest import (face_label_sets, has_face, k_subdivide, link, random_descriptor,
                      spherical_complex)
from coxsub.simplicial import (LabeledComplex, _signatures, is_isomorphic_constrained,
                               iso_invariant)
from coxsub.subword import build


def cycle(n, labels=None):
    labels = labels or list(range(1, n + 1))
    return LabeledComplex.from_facets(
        [(labels[k], labels[(k + 1) % n]) for k in range(n)])


def test_void_and_empty():
    v = LabeledComplex.void()
    e = LabeledComplex.empty_face_only()
    assert v.is_void and not e.is_void
    assert v.f_vector() == () and e.f_vector() == ()
    assert e.h_vector() == (1,) and e.gamma().coeffs == (1,)
    assert v.gamma().coeffs == () and not v.gamma()
    assert v.dim is None and e.dim == -1
    assert v != e and v == LabeledComplex.void()
    with pytest.raises(ValueError):
        v.h_vector()


def test_facet_pruning_and_vertex_order():
    x = LabeledComplex.from_facets([(1, 2), (1,), (2,)])
    assert x.facet_label_sets() == (frozenset({1, 2}),)
    # unused labels in vertex_order are dropped
    y = LabeledComplex.from_facets([(2, 1)], vertex_order=(5, 2, 1))
    assert y.vertices == (2, 1)
    assert x == LabeledComplex.from_facets([(2, 1)])


def test_pentagon_counts():
    pent = cycle(5)
    assert pent.f_vector() == (5, 5)
    assert pent.h_vector() == (1, 3, 1)
    assert pent.gamma().coeffs == (1, 1)
    assert pent.dim == 1 and pent.is_flag()
    assert has_face(pent, (1, 2)) and not has_face(pent, (1, 3))
    assert not has_face(pent, ("nope",))


def test_triangle_boundary_not_flag():
    tri = cycle(3)
    assert tri.h_vector() == (1, 1, 1)
    assert tri.gamma().coeffs == (1, -1)
    assert not tri.is_flag()  # empty triangle: the 3-clique is no face


def test_h_vector_guards():
    mixed = LabeledComplex.from_facets([(1, 2, 3), (4, 5)])
    with pytest.raises(ValueError):
        mixed.h_vector()
    pure_nonpal = LabeledComplex.from_facets([(1, 2, 3), (3, 4, 5)])
    assert pure_nonpal.h_vector() == (1, 2, -1, 0)
    with pytest.raises(ValueError):
        pure_nonpal.gamma()


def test_octahedron():
    facets = [(a, b, c) for a in (1, 4) for b in (2, 5) for c in (3, 6)]
    octa = LabeledComplex.from_facets(facets)
    assert octa.f_vector() == (6, 12, 8)
    assert octa.h_vector() == (1, 3, 3, 1)
    assert octa.gamma().coeffs == (1, 0)
    assert octa.is_flag()
    assert link(octa, (1,)) == cycle(4, [2, 3, 5, 6])


def test_link():
    pent = cycle(5)
    assert sorted(map(sorted, link(pent, (1,)).facet_label_sets())) == [[2], [5]]
    assert link(pent, (1, 2)) == LabeledComplex.empty_face_only()
    assert link(pent, ()) == pent
    with pytest.raises(ValueError):
        link(pent, (1, 3))


def test_edge_subdivide():
    sq = cycle(4)
    s = sq.edge_subdivide((1, 2), "x")
    assert s.f_vector() == (5, 5)
    assert has_face(s, (1, "x")) and has_face(s, (2, "x")) and not has_face(s, (1, 2))
    assert is_isomorphic_constrained(s, cycle(5)) is not None
    for edge, fresh in [((1, 3), "y"),  # not an edge
                        ((1, "nope"), "y"),  # not a vertex
                        ((1, 2), 3),  # label already present
                        ((1, 1), "y")]:  # a vertex is no edge
        with pytest.raises(ValueError):
            sq.edge_subdivide(edge, fresh)


def test_edge_subdivide_h_identity():
    # subdividing an edge adds t * H(link of the edge) to the h-polynomial
    rng = random.Random(4)
    for _ in range(30):
        _, x = spherical_complex(rng)
        edges = sorted(tuple(sorted(f, key=str)) for f in face_label_sets(x)
                       if len(f) == 2)
        if not edges:
            continue
        edge = edges[rng.randrange(len(edges))]
        link_h = link(x, edge).h_vector()
        sub = x.edge_subdivide(edge, "fresh")
        h0 = list(x.h_vector())
        h1 = list(sub.h_vector())
        assert len(h0) == len(h1)
        for k in range(len(h0)):
            add = link_h[k - 1] if 1 <= k <= len(link_h) else 0
            assert h1[k] == h0[k] + add


def test_edge_subdivide_derives_signatures():
    # a subdivision derives its vertex signatures from its parent's; they
    # must equal a fresh count over its facets, pure complexes or not
    rng = random.Random(17)
    starts = [spherical_complex(rng)[1] for _ in range(15)]
    starts += [LabeledComplex.from_facets(
        [rng.sample(range(6), rng.randrange(2, 5)) for _ in range(rng.randrange(2, 7))])
        for _ in range(15)]
    for x in starts:
        _signatures(x)
        for step in range(5):
            edges = x.edge_masks()
            if not edges:
                break
            e = rng.choice(edges)
            ends = (x.vertices[(e & -e).bit_length() - 1], x.vertices[e.bit_length() - 1])
            x = x.edge_subdivide(ends, f"r{step}")
            derived = x._cache["sig"]
            assert derived == _signatures(LabeledComplex(x.vertices, x.facets))


def test_k_subdivide():
    sq = cycle(4)
    assert k_subdivide(sq, (1, 2), 0, []) == sq
    hepta = k_subdivide(sq, (1, 2), 3, ["a", "b", "c"])
    assert hepta.f_vector() == (7, 7)
    # ordered walk: each fresh vertex splits the remaining {r, 2} edge
    step = sq.edge_subdivide((1, 2), "a")
    step = step.edge_subdivide(("a", 2), "b")
    step = step.edge_subdivide(("b", 2), "c")
    assert hepta == step
    with pytest.raises(ValueError):
        k_subdivide(sq, (1, 2), 2, ["a"])  # not enough fresh labels
    with pytest.raises(ValueError):
        k_subdivide(sq, (1, 3), 1, ["a"])  # not an edge


def test_equality_is_face_sets():
    a = LabeledComplex.from_facets([(1, 2), (2, 3)])
    b = LabeledComplex.from_facets([(2, 3), (1, 2)], vertex_order=(3, 2, 1))
    assert a == b
    assert a != LabeledComplex.from_facets([(1, 2), (1, 3)])


def test_isomorphism_unconstrained():
    pent = cycle(5)
    other = cycle(5, ["v", "w", "x", "y", "z"])
    m = is_isomorphic_constrained(pent, other)
    assert m is not None
    assert sorted(m) == [1, 2, 3, 4, 5]
    image = {frozenset(m[v] for v in f) for f in pent.facet_label_sets()}
    assert image == set(other.facet_label_sets())
    assert is_isomorphic_constrained(pent, cycle(4)) is None
    assert is_isomorphic_constrained(cycle(3), cycle(3)) is not None


def test_isomorphism_random_relabel():
    rng = random.Random(5)
    for _ in range(25):
        _, x = spherical_complex(rng)
        perm = list(x.vertices)
        rng.shuffle(perm)
        relabel = dict(zip(x.vertices, perm))
        y = LabeledComplex.from_facets(
            [tuple(relabel[v] for v in f) for f in x.facet_label_sets()])
        m = is_isomorphic_constrained(x, y)
        assert m is not None
        image = {frozenset(m[v] for v in f) for f in x.facet_label_sets()}
        assert image == set(y.facet_label_sets())


def test_isomorphism_plan_shared_through_relabel():
    # the search plan cached on x serves every relabel of x, and the
    # mapping it yields is in the relabel's own labels
    rng = random.Random(19)
    for _ in range(20):
        _, x = spherical_complex(rng)
        perm = list(x.vertices)
        rng.shuffle(perm)
        relabel = dict(zip(x.vertices, perm))
        y = LabeledComplex.from_facets(
            [tuple(relabel[v] for v in f) for f in x.facet_label_sets()])
        assert is_isomorphic_constrained(x, y) is not None
        named = x.relabel([f"v{k}" for k in range(len(x.vertices))])
        plan = x._cache["plan"]
        m = is_isomorphic_constrained(named, y)
        assert named._cache["plan"] is plan
        assert set(m) == set(named.vertices)
        image = {frozenset(m[v] for v in f) for f in named.facet_label_sets()}
        assert image == set(y.facet_label_sets())


def _brute_isomorphic(x, y) -> bool:
    if len(x.vertices) != len(y.vertices):
        return False
    target = set(y.facet_label_sets())
    for perm in itertools.permutations(y.vertices):
        m = dict(zip(x.vertices, perm))
        if {frozenset(m[v] for v in f) for f in x.facet_label_sets()} == target:
            return True
    return False


def test_isomorphism_matches_brute_force():
    # single-edge subdivisions of one complex share vertex and facet counts,
    # and some pairs share every vertex signature without being isomorphic
    rng = random.Random(11)

    def small(k):
        return LabeledComplex.from_facets(
            [rng.sample(range(k), rng.randrange(1, 4)) for _ in range(rng.randrange(1, 6))])

    same_invariant_not_iso = 0
    for _ in range(40):
        k = rng.randrange(3, 6)
        x, other = small(k), small(k)
        perm = list(x.vertices)
        rng.shuffle(perm)
        relabel = dict(zip(x.vertices, perm))
        shuffled = LabeledComplex.from_facets(
            [[relabel[v] for v in f] for f in x.facet_label_sets()])
        n = len(x.vertices)
        subs = [x.edge_subdivide([x.vertices[i] for i in range(n) if e >> i & 1], "new")
                for e in x.faces_masks() if e.bit_count() == 2]
        for a, b in [(x, shuffled), (x, other), *itertools.combinations(subs, 2)]:
            m = is_isomorphic_constrained(a, b)
            assert (m is not None) == _brute_isomorphic(a, b)
            if m is not None:
                image = {frozenset(m[v] for v in f) for f in a.facet_label_sets()}
                assert image == set(b.facet_label_sets())
            elif iso_invariant(a) == iso_invariant(b):
                same_invariant_not_iso += 1
    assert same_invariant_not_iso > 0


def test_relabel():
    pent = cycle(5)
    pent.h_vector()
    named = pent.relabel("abcde")
    assert named.vertices == tuple("abcde") and named.facets == pent.facets
    assert has_face(named, ("a", "b")) and not has_face(named, ("a", "c"))
    assert named.h_vector() == pent.h_vector() == (1, 3, 1)
    assert named.faces_masks() is pent.faces_masks()
    assert pent.vertices == (1, 2, 3, 4, 5)  # the source keeps its labels
    with pytest.raises(ValueError):
        pent.relabel("abcd")
    with pytest.raises(ValueError):
        pent.relabel("abcda")


def _flag_by_cliques(x) -> bool:
    """Flagness by definition: every nonempty vertex set whose pairs are
    all edges is a face, over the enumerated faces."""
    faces = set(x.faces_masks())
    edges = {m for m in faces if m.bit_count() == 2}
    n = len(x.vertices)
    for mask in range(1, 1 << n):
        bits = [1 << i for i in range(n) if mask >> i & 1]
        if all(a | b in edges for k, a in enumerate(bits) for b in bits[k + 1:]) \
                and mask not in faces:
            return False
    return True


def test_is_flag_matches_clique_definition():
    rng = random.Random(14)
    cases = [cycle(n) for n in range(3, 8)]
    cases.append(LabeledComplex.from_facets([(1, 2, 3)]))  # a full triangle
    cases.append(LabeledComplex.from_facets(  # boundary of the tetrahedron
        [f for f in itertools.combinations(range(4), 3)]))
    cases += [LabeledComplex.void(), LabeledComplex.empty_face_only()]
    cases += [LabeledComplex.from_facets(  # random small complexes
        [rng.sample(range(7), rng.randrange(1, 5)) for _ in range(rng.randrange(1, 9))])
        for _ in range(60)]
    while len(cases) < 180:
        x = build(random_descriptor(rng, names=("A2", "A3", "B3", "H3"), max_len=9))
        cases.append(x)
        edges = sorted(tuple(sorted(f, key=str)) for f in face_label_sets(x) if len(f) == 2)
        if edges:  # an edge subdivision is no word complex in general
            cases.append(x.edge_subdivide(edges[rng.randrange(len(edges))], "new"))
    flags = [x.is_flag() for x in cases]
    assert flags == [_flag_by_cliques(x) for x in cases]
    assert flags[0] is False and all(flags[1:5])  # the triangle boundary only
    assert True in flags[9:] and False in flags[9:]


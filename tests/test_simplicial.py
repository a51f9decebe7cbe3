import itertools
import random
import re

import pytest

from conftest import (counted_f, counted_h, edge_masks, face_masks, facet_label_sets, has_face,
                      k_subdivide, link, random_descriptor, same_faces, spherical_complex,
                      system)
from coxsub import simplicial
from coxsub.simplicial import (FACE_LIMIT_ERROR, LabeledComplex, is_isomorphic_constrained,
                               iso_invariant, subdivide)
from coxsub.subword import SubwordDescriptor, build


def _subdivided(x: LabeledComplex, e: int) -> LabeledComplex:
    """x subdivided along the edge mask e at a fresh last vertex, on the
    vertices 0..n as the gap scan makes it."""
    n = len(x.vertices)
    return LabeledComplex(range(n + 1), subdivide(x.facets, e & -e, e & (e - 1), (1 << n,)))


def cycle(n, labels=None):
    labels = labels or list(range(1, n + 1))
    return LabeledComplex.from_facets(
        [(labels[k], labels[(k + 1) % n]) for k in range(n)])


def test_void_and_empty():
    v = LabeledComplex.void()
    A2 = system("A2")
    e = build(SubwordDescriptor(A2, (1,), A2.generator(1)))  # the complex {()}
    assert same_faces(e, LabeledComplex((), (0,)))
    assert v.is_void and not e.is_void
    assert v.f_vector() == () and e.f_vector() == ()
    assert e.h_vector() == (1,) and e.gamma() == (1,)
    assert v.gamma() == ()
    assert v.dim is None and e.dim == -1
    assert not same_faces(v, e) and same_faces(v, LabeledComplex.void())
    with pytest.raises(ValueError):
        v.h_vector()
    assert repr(v) == "LabeledComplex(void)"
    assert repr(cycle(5)) == "LabeledComplex(5 vertices, 5 facets)"
    # the void complex is isomorphic to itself alone, by the empty map
    assert is_isomorphic_constrained(v, LabeledComplex.void()) == {}
    assert is_isomorphic_constrained(v, e) is None and is_isomorphic_constrained(e, v) is None


def test_facet_pruning_and_vertex_order():
    x = LabeledComplex.from_facets([(1, 2), (1,), (2,)])
    assert facet_label_sets(x) == (frozenset({1, 2}),)
    # unused labels in vertex_order are dropped
    y = LabeledComplex.from_facets([(2, 1)], vertex_order=(5, 2, 1))
    assert y.vertices == (2, 1)
    assert same_faces(x, LabeledComplex.from_facets([(2, 1)]))


@pytest.mark.parametrize("make, error, message", [
    (lambda: LabeledComplex(range(63), ()), ValueError, "limited to 62 vertices"),
    (lambda: LabeledComplex(("a",), (0b10,)), ValueError, "unknown vertices"),
    (lambda: setattr(LabeledComplex.void(), "h", (1,)), AttributeError, "immutable"),
    (lambda: LabeledComplex.from_facets([("a", "b")], vertex_order=("a",)), ValueError,
     "vertex_order is missing labels"),
], ids=["vertex-limit", "unknown-vertex", "immutable", "vertex-order"])
def test_record_refusals(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_pentagon_counts():
    pent = cycle(5)
    assert counted_f(pent) == (5, 5)
    assert counted_h(pent) == (1, 3, 1)
    assert simplicial._gamma(counted_h(pent)) == (1, 1)
    assert pent.dim == 1 and pent.is_flag()
    assert has_face(pent, (1, 2)) and not has_face(pent, (1, 3))
    assert not has_face(pent, ("nope",))


def test_triangle_boundary_not_flag():
    tri = cycle(3)
    assert counted_h(tri) == (1, 1, 1)
    assert simplicial._gamma(counted_h(tri)) == (1, -1)
    assert not tri.is_flag()  # empty triangle: the 3-clique is no face


def test_h_vector_guards():
    # f, h and gamma read the h a complex was made with: one made by hand
    # has none, whatever its facets
    for x in (LabeledComplex((), ()), LabeledComplex((), (0,)), cycle(5),
              LabeledComplex.from_facets([(1, 2, 3), (4, 5)])):
        for count in (x.f_vector, x.h_vector, x.gamma):
            with pytest.raises(ValueError, match="made without an h-vector"):
                count()
    pure_nonpal = LabeledComplex.from_facets([(1, 2, 3), (3, 4, 5)])
    assert counted_h(pure_nonpal) == (1, 2, -1, 0)
    pure_nonpal = LabeledComplex(pure_nonpal.vertices, pure_nonpal.facets, counted_h(pure_nonpal))
    assert pure_nonpal.h_vector() == (1, 2, -1, 0)
    for _ in range(2):  # the per-h gamma cache keeps the refusal
        with pytest.raises(ValueError):
            pure_nonpal.gamma()
    assert simplicial._gamma((1, 2, -1, 0)) is None  # read as gamma_ok False by a move


def test_octahedron():
    facets = [(a, b, c) for a in (1, 4) for b in (2, 5) for c in (3, 6)]
    octa = LabeledComplex.from_facets(facets)
    assert counted_f(octa) == (6, 12, 8)
    assert counted_h(octa) == (1, 3, 3, 1)
    assert simplicial._gamma(counted_h(octa)) == (1, 0)
    assert octa.is_flag()
    assert same_faces(link(octa, (1,)), cycle(4, [2, 3, 5, 6]))


def test_link():
    pent = cycle(5)
    assert sorted(map(sorted, facet_label_sets(link(pent, (1,))))) == [[2], [5]]
    assert same_faces(link(pent, (1, 2)), LabeledComplex((), (0,)))
    assert same_faces(link(pent, ()), pent)
    with pytest.raises(ValueError):
        link(pent, (1, 3))


def test_edge_subdivide():
    sq = cycle(4)  # vertex k is labelled k + 1
    s = _subdivided(sq, 0b11)
    assert counted_f(s) == (5, 5)
    assert has_face(s, (0, 4)) and has_face(s, (1, 4)) and not has_face(s, (0, 1))
    assert is_isomorphic_constrained(s, cycle(5)) is not None
    assert subdivide(sq.facets, 0b1, 0b100, (0b10000,)) is None  # not an edge
    assert subdivide(sq.facets, 0b1, 0b1, (0b10000,)) is None  # a vertex is no edge


def test_edge_subdivide_h_identity():
    # subdividing an edge adds t * H(link of the edge) to the h-polynomial
    rng = random.Random(4)
    for _ in range(30):
        _, x = spherical_complex(rng)
        edges = edge_masks(x)
        if not edges:
            continue
        e = edges[rng.randrange(len(edges))]
        link_h = counted_h(link(x, [v for k, v in enumerate(x.vertices) if e >> k & 1]))
        sub = _subdivided(x, e)
        h0 = list(x.h_vector())
        h1 = list(counted_h(sub))
        assert len(h0) == len(h1)
        for k in range(len(h0)):
            add = link_h[k - 1] if 1 <= k <= len(link_h) else 0
            assert h1[k] == h0[k] + add


def test_k_subdivide():
    sq = cycle(4)
    assert same_faces(k_subdivide(sq, (1, 2), 0, []), sq)
    hepta = k_subdivide(sq, (1, 2), 3, ["a", "b", "c"])
    assert counted_f(hepta) == (7, 7)
    # ordered walk: each fresh vertex splits the remaining {r, 2} edge
    step = sq
    for r, fresh in ((1, "a"), ("a", "b"), ("b", "c")):
        step = k_subdivide(step, (r, 2), 1, [fresh])
    assert same_faces(hepta, step)
    with pytest.raises(ValueError):
        k_subdivide(sq, (1, 2), 2, ["a"])  # not enough fresh labels
    with pytest.raises(ValueError):
        k_subdivide(sq, (1, 3), 1, ["a"])  # not an edge


def test_equality_is_face_sets():
    a = LabeledComplex.from_facets([(1, 2), (2, 3)])
    b = LabeledComplex.from_facets([(2, 3), (1, 2)], vertex_order=(3, 2, 1))
    assert same_faces(a, b)
    assert not same_faces(a, LabeledComplex.from_facets([(1, 2), (1, 3)]))
    # a complex is one record: it compares and hashes by identity
    assert a != b and a == a and len({a, b, a}) == 2
    assert LabeledComplex.void() != LabeledComplex.void()


def test_isomorphism_unconstrained():
    pent = cycle(5)
    other = cycle(5, ["v", "w", "x", "y", "z"])
    m = is_isomorphic_constrained(pent, other)
    assert m is not None
    assert sorted(m) == [1, 2, 3, 4, 5]
    image = {frozenset(m[v] for v in f) for f in facet_label_sets(pent)}
    assert image == set(facet_label_sets(other))
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
            [tuple(relabel[v] for v in f) for f in facet_label_sets(x)])
        m = is_isomorphic_constrained(x, y)
        assert m is not None
        image = {frozenset(m[v] for v in f) for f in facet_label_sets(x)}
        assert image == set(facet_label_sets(y))


def _brute_isomorphic(x, y) -> bool:
    if len(x.vertices) != len(y.vertices):
        return False
    target = set(facet_label_sets(y))
    for perm in itertools.permutations(y.vertices):
        m = dict(zip(x.vertices, perm))
        if {frozenset(m[v] for v in f) for f in facet_label_sets(x)} == target:
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
            [[relabel[v] for v in f] for f in facet_label_sets(x)])
        subs = [_subdivided(x, e) for e in edge_masks(x)]
        for a, b in [(x, shuffled), (x, other), *itertools.combinations(subs, 2)]:
            m = is_isomorphic_constrained(a, b)
            assert (m is not None) == _brute_isomorphic(a, b)
            if m is not None:
                image = {frozenset(m[v] for v in f) for f in facet_label_sets(a)}
                assert image == set(facet_label_sets(b))
            elif iso_invariant(a) == iso_invariant(b):
                same_invariant_not_iso += 1
    assert same_invariant_not_iso > 0


def _flag_by_cliques(x) -> bool:
    """Flagness by definition: every nonempty vertex set whose pairs are
    all edges is a face, over the enumerated faces."""
    faces = set(face_masks(x))
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
    cases += [LabeledComplex.void(), LabeledComplex((), (0,))]
    cases += [LabeledComplex.from_facets(  # random small complexes
        [rng.sample(range(7), rng.randrange(1, 5)) for _ in range(rng.randrange(1, 9))])
        for _ in range(60)]
    while len(cases) < 180:
        x = build(random_descriptor(rng, names=("A2", "A3", "B3", "H3"), max_len=9))
        cases.append(x)
        edges = edge_masks(x)
        if edges:  # an edge subdivision is no word complex in general
            cases.append(_subdivided(x, edges[rng.randrange(len(edges))]))
    # the complex workload's sizes: 10 to 15 letters over A4, D4 and B4,
    # every other one a sphere (pi the Demazure product of the word)
    sized = []
    for k in range(40):
        d = random_descriptor(rng, names=("A4", "D4", "B4"), max_len=15, min_len=10)
        if k % 2:
            d = SubwordDescriptor(d.system, d.word, d.system.demazure_product(d.word))
        sized.append(build(d))
    assert max(len(x.vertices) for x in sized) >= 12
    cases += sized
    flags = [x.is_flag() for x in cases]
    assert flags == [_flag_by_cliques(x) for x in cases]
    assert flags[0] is False and all(flags[1:5])  # the triangle boundary only
    assert True in flags[9:] and False in flags[9:]
    assert True in flags[-40:] and False in flags[-40:]


def test_is_flag_search_is_bounded(monkeypatch):
    # the boundary of the 4-dimensional cross-polytope is flag, with 16
    # maximal cliques: a budget of 8 search nodes stops the search
    cross = LabeledComplex.from_facets(itertools.product(*((k, -k) for k in range(1, 5))))
    assert cross.is_flag()
    monkeypatch.setattr(simplicial, "MAX_FACES", 8)
    with pytest.raises(ValueError, match=re.escape(FACE_LIMIT_ERROR)):
        cross.is_flag()


import json
import random
import re

import pytest

from conftest import (braid_step, contains_reduced, random_pi, roots_match_float_orbit,
                      run_facets, subword_h_oracle, system)
from coxsub import cli, coxeter
from coxsub.braid import BraidContext
from coxsub.coxeter import (MAX_ROOTS, MAX_WORD_LETTERS, CoxeterMatrix, CoxeterSystem,
                            GroupElement)
from coxsub.subword import SubwordDescriptor


def group_order(sys_):
    seen = {sys_.identity}
    frontier = [sys_.identity]
    while frontier:
        nxt = []
        for g in frontier:
            for s in range(1, sys_.rank + 1):
                h = sys_.multiply(g, sys_.generator(s))
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return len(seen)


def test_named_matrices():
    assert CoxeterMatrix.named("A3").rows == ((1, 3, 2), (3, 1, 2), (2, 2, 1)) \
        or CoxeterMatrix.named("A3").m[0, 1] == 3
    m = CoxeterMatrix.named("B3").m
    assert m[1, 2] == 4 and m[0, 1] == 3 and m[0, 2] == 2
    assert CoxeterMatrix.named("I2:7").m[0, 1] == 7
    assert CoxeterMatrix.named("H3").m[0, 1] == 5
    with pytest.raises(ValueError):
        CoxeterMatrix.named("Z5")
    with pytest.raises(ValueError):
        CoxeterMatrix.named("E9")
    # I2 is named I2:m or I2(m) and nothing else
    for name in ("I2(7)", "i2:7", " I2(7) "):
        assert CoxeterMatrix.named(name).rows == ((1, 7), (7, 1)), name
    for name in ("I2(7", "I27)", "I2:5)", "I25", "I2:(5)", "I2", "I2:"):
        with pytest.raises(ValueError, match="unrecognized group name"):
            CoxeterMatrix.named(name)


def test_from_spec_forms():
    a = CoxeterMatrix.from_spec("A2")
    b = CoxeterMatrix.from_spec({"matrix": [[1, 3], [3, 1]]})
    c = CoxeterMatrix.from_spec('{"type": "A", "rank": 2}')
    assert a.rows == b.rows == c.rows
    assert CoxeterMatrix.from_spec({"type": "I2", "m": 5}).rows == ((1, 5), (5, 1))
    with pytest.raises(ValueError, match="unrecognized group name"):
        CoxeterMatrix.from_spec({"type": "I2xyz", "m": 5})


def test_group_spec_refuses_bools_and_names_a_rank_conflict():
    # JSON true is an int to Python, yet no order: [[true, 3], [3, true]]
    # would read as A2
    for spec in ('{"matrix": [[true, 3], [3, true]]}', {"matrix": [[1, False], [False, 1]]},
                 {"matrix": [[1, 3], [True, 1]]}):
        with pytest.raises(ValueError, match="list of rows of integers"):
            CoxeterMatrix.from_spec(spec)
    # a type that names its rank builds when "rank" agrees, and names the conflict if not
    a3 = CoxeterMatrix.named("A3").rows
    for spec in ({"type": "A3", "rank": 3}, '{"type": "A3", "rank": 3}', {"type": "A3"},
                 {"type": "A", "rank": 3}, {"type": "a3", "rank": "3"}):
        assert CoxeterMatrix.from_spec(spec).rows == a3
    assert CoxeterMatrix.from_spec({"type": "I2", "m": 5, "rank": 2}).rows == ((1, 5), (5, 1))
    for spec, msg in (({"type": "A3", "rank": 4}, "type A3 has rank 3, not 4"),
                      ({"type": "E8", "rank": 7}, "type E8 has rank 8, not 7"),
                      ({"type": "I2", "m": 5, "rank": 3}, "type I2 has rank 2, not 3")):
        with pytest.raises(ValueError, match=msg):
            CoxeterMatrix.from_spec(spec)


def test_rank_past_the_root_limit_refused_before_the_matrix(monkeypatch):
    # A_n, B_n and D_n have n(n+1)/2, n^2 and n(n-1) positive roots: past
    # MAX_ROOTS / 2 the name is refused before a row is made, and a matrix
    # of more than MAX_ROOTS / 2 rows before its dict of rank^2 entries
    monkeypatch.setattr(coxeter, "_root_system", None)
    for name in ("A32", "B23", "D23", "A99999999999", "D100000"):
        with pytest.raises(ValueError, match=f"limited to {MAX_ROOTS} roots"):
            CoxeterMatrix.named(name)
    with pytest.raises(ValueError, match=f"limited to {MAX_ROOTS} roots"):
        CoxeterMatrix([[2] * (MAX_ROOTS // 2 + 1)] * (MAX_ROOTS // 2 + 1))
    for name in ("A31", "B22", "D22"):  # 496, 484 and 462 positive roots pass the count
        with pytest.raises(TypeError):  # and reach the root system
            CoxeterMatrix.named(name)


def test_infinite_group_rejected(monkeypatch):
    # affine and hyperbolic: their root orbits never close, or hold a
    # label >= 6 in a piece of rank >= 3
    for rows in ([[1, 3, 3], [3, 1, 3], [3, 3, 1]],  # affine A2
                 [[1, 4, 2], [4, 1, 4], [2, 4, 1]],  # affine C2
                 [[1, 6, 3], [6, 1, 2], [3, 2, 1]],  # affine G2
                 [[1, 3, 2, 2], [3, 1, 5, 2], [2, 5, 1, 3], [2, 2, 3, 1]],  # 3-5-3 chain
                 [[1, 7, 11], [7, 1, 13], [11, 13, 1]]):  # triangle (7, 11, 13)
        with pytest.raises(ValueError, match="does not define a finite group"):
            CoxeterSystem(CoxeterMatrix(rows))
    # a label >= 6 in a piece of rank >= 3 is refused before any root is made
    monkeypatch.setattr(coxeter, "_cyclotomic", None)
    for rows in ([[1, 6, 3], [6, 1, 2], [3, 2, 1]], [[1, 7, 11], [7, 1, 13], [11, 13, 1]],
                 [[1, 3, 2, 2], [3, 1, 499, 2], [2, 499, 1, 3], [2, 2, 3, 1]]):
        with pytest.raises(ValueError, match="does not define a finite group"):
            CoxeterMatrix(rows)


def test_group_orders_and_longest():
    expected = {"A2": (6, 3), "B2": (8, 4), "A3": (24, 6), "I2:7": (14, 7),
                "B3": (48, 9), "H3": (120, 15)}
    for name, (order, l0) in expected.items():
        sys_ = system(name)
        w0 = sys_.longest_element()
        assert group_order(sys_) == order == len(sys_._elements)
        assert sys_.length(w0) == l0
        assert sys_.multiply(w0, w0) == sys_.identity
        # w0 maps every generator to a descent
        assert sys_.right_descents(w0) == frozenset(range(1, sys_.rank + 1))
        # the inverse kept per id is the fold of the reversed reduced word
        for g in list(sys_._elements):
            kept = sys_._inv(sys_._id(g))
            assert kept == sys_._id(sys_.inverse(g)), (name, g)
            assert sys_._elements[kept] == sys_.element_of(reversed(sys_.word_of(g)))
            assert sys_.multiply(g, sys_._elements[kept]) == sys_.identity


def test_element_basics():
    A3 = system("A3")
    s1 = A3.generator(1)
    assert A3.multiply(s1, s1) == A3.identity
    assert A3.element_of((1, 3)) == A3.element_of((3, 1))
    assert A3.element_of((1, 2, 1)) == A3.element_of((2, 1, 2))
    assert A3.element_of((1, 2)) != A3.element_of((2, 1))
    assert A3.inverse(A3.element_of((1, 2))) == A3.element_of((2, 1))
    assert A3.is_identity(A3.element_of((1, 1, 2, 2)))
    # an element is a value: equal and hashed by its roots, printed by them
    g = A3.element_of((1, 2))
    assert g == GroupElement(g.roots) and hash(g) == hash(GroupElement(g.roots))
    assert repr(A3.identity) == "GroupElement(roots=(0, 1, 2))"
    assert repr(CoxeterMatrix.named("A3")) == "CoxeterMatrix(A3)"
    assert repr(CoxeterMatrix([[1, 5], [5, 1]])) == "CoxeterMatrix([[1, 5], [5, 1]])"
    with pytest.raises(AttributeError):
        g.roots = ()


def test_length_descents_random():
    rng = random.Random(0)
    for _ in range(60):
        sys_ = system(rng.choice(("A3", "B3")))
        word = [rng.randrange(1, sys_.rank + 1) for _ in range(rng.randrange(0, 12))]
        g = sys_.element_of(word)
        w = sys_.word_of(g)
        assert sys_.is_reduced(w)
        assert len(w) == sys_.length(g)
        assert sys_.element_of(w) == g
        for s in range(1, sys_.rank + 1):
            shorter = sys_.length(sys_.multiply(g, sys_.generator(s))) < len(w)
            assert (s in sys_.right_descents(g)) == shorter


def test_is_reduced():
    A2 = system("A2")
    assert A2.is_reduced((1, 2, 1))
    assert not A2.is_reduced((1, 1))
    assert not A2.is_reduced((1, 2, 1, 2))  # m=3 folds this to length 2
    assert A2.is_reduced(())


def test_demazure_product():
    A2 = system("A2")
    w0 = A2.longest_element()
    assert A2.demazure_product((1, 2, 1, 2, 1)) == w0
    assert A2.demazure_product((1, 1, 2, 2, 1)) == w0
    assert A2.demazure_product(()) == A2.identity
    # on reduced words the demazure product is the group product
    rng = random.Random(2)
    B3 = system("B3")
    for _ in range(40):
        word = [rng.randrange(1, 4) for _ in range(rng.randrange(0, 9))]
        if B3.is_reduced(word):
            assert B3.demazure_product(word) == B3.element_of(word)
        # appending a descent letter never changes the demazure product
        g = B3.demazure_product(word)
        for s in B3.right_descents(g):
            assert B3.demazure_product(tuple(word) + (s,)) == g


def test_reduced_word_enumeration():
    assert system("A2").reduced_words(system("A2").longest_element()) == \
        ((1, 2, 1), (2, 1, 2))
    A3 = system("A3")
    words = A3.reduced_words(A3.longest_element())
    assert len(words) == 16
    assert words == tuple(sorted(words))
    assert all(A3.is_reduced(w) and A3.element_of(w) == A3.longest_element()
               for w in words)
    B3 = system("B3")
    assert len(B3.reduced_words(B3.longest_element(), cap=100)) == 42
    with pytest.raises(ValueError):
        B3.reduced_words(B3.longest_element(), cap=10)
    # the cap is the largest count returned
    assert len(B3.reduced_words(B3.longest_element(), cap=42)) == 42
    with pytest.raises(ValueError, match="more than 41"):
        B3.reduced_words(B3.longest_element(), cap=41)


def test_braid_moves():
    A3 = system("A3")
    w = (1, 2, 1, 3, 2, 1)
    positions = [move[0] for move in A3._braid_moves(w)]
    assert positions == sorted(positions)
    for pos in positions:
        w2 = braid_step(A3, w, pos)
        assert w2 != w
        assert A3.is_reduced(w2)
        assert A3.element_of(w2) == A3.element_of(w)
        assert braid_step(A3, w2, pos) == w
    B3 = system("B3")
    assert [move[0] for move in B3._braid_moves((2, 3, 2, 3, 1))] == [1, 4]
    assert braid_step(B3, (2, 3, 2, 3, 1), 1) == (3, 2, 3, 2, 1)


def test_reduced_subword_masks():
    A2 = system("A2")
    w0 = A2.longest_element()
    facets = run_facets(A2, (1, 2, 1, 2, 1), w0)
    # the five facets of the pentagon, whose complements are reduced words of w0
    assert len(facets) == 5
    assert sorted(facets) == sorted(set(int(f) for f in facets))
    for f in facets:
        kept = [(1, 2, 1, 2, 1)[p] for p in range(5) if not int(f) >> p & 1]
        assert A2.is_reduced(kept) and A2.element_of(kept) == w0
    assert contains_reduced(A2, (1, 2, 1, 2, 1), w0)
    assert not contains_reduced(A2, (1, 2), w0)


def test_word_length_guard():
    A2 = system("A2")
    long_word = (1, 2) * (MAX_WORD_LETTERS // 2 + 1)
    with pytest.raises(ValueError):
        SubwordDescriptor(A2, long_word, A2.identity)
    with pytest.raises(ValueError):
        BraidContext(A2, long_word[:30], long_word[:30], 1, 2, A2.identity)
    with pytest.raises(ValueError):
        A2.element_of((0,))
    with pytest.raises(ValueError):
        A2.element_of((3,))


def test_descriptor_and_context_are_values():
    # both check and normalize their words, equal and hash by their fields,
    # and take no assignment
    A3 = system("A3")
    w0 = A3.longest_element()
    d = SubwordDescriptor(A3, [1, 2, 1], w0)
    assert d.word == (1, 2, 1)
    assert d == SubwordDescriptor(A3, (1, 2, 1), w0) and d != SubwordDescriptor(A3, (1,), w0)
    assert hash(d) == hash(SubwordDescriptor(A3, (1, 2, 1), w0))
    ctx = BraidContext(A3, [3], [3], 1, 2, w0)
    assert (ctx.Q, ctx.Qp) == ((3,), (3,))
    assert ctx == BraidContext(A3, (3,), (3,), 1, 2, w0) != BraidContext(A3, (3,), (3,), 2, 1, w0)
    assert hash(ctx) == hash(BraidContext(A3, (3,), (3,), 1, 2, w0))
    for value in (d, ctx):
        for attr in ("pi", "extra"):
            with pytest.raises(AttributeError):
                setattr(value, attr, A3.identity)
    with pytest.raises(ValueError, match="window letters must differ"):
        BraidContext(A3, (), (), 2, 2, w0)


def test_tolerance_grid_is_stable():
    # H3 roots involve the golden ratio; w0 reached by a word and by the
    # ascent climb must be the same exact element
    H3 = system("H3")
    w0 = H3.longest_element()
    a = H3.element_of(H3.word_of(w0))
    b = H3.element_of((3, 2, 1) * 5)
    assert a == w0 == b and hash(a) == hash(w0) == hash(b)


def test_root_system_sizes():
    coxeter_number = {f"A{n}": n + 1 for n in range(1, 9)}
    coxeter_number.update({f"B{n}": 2 * n for n in range(2, 9)})
    coxeter_number.update({f"D{n}": 2 * n - 2 for n in range(4, 9)})
    coxeter_number.update({"E6": 12, "E7": 18, "E8": 30, "F4": 12, "H3": 10, "H4": 30})
    coxeter_number.update({f"I2:{m}": m for m in range(2, 13)})
    for name, h in coxeter_number.items():
        sys_ = CoxeterSystem(CoxeterMatrix.named(name))
        assert 2 * len(sys_.roots) == sys_.rank * h, name  # roots holds the positive half
        assert sys_.length(sys_.longest_element()) == sys_.rank * h // 2, name


def test_root_count_limit():
    assert 2 * len(CoxeterSystem(CoxeterMatrix.named(f"I2:{MAX_ROOTS // 2}")).roots) == MAX_ROOTS
    with pytest.raises(ValueError):
        CoxeterSystem(CoxeterMatrix.named(f"I2:{MAX_ROOTS // 2 + 1}"))


def test_large_dihedral_order_hits_the_root_limit():
    # I2(m) is finite for every m, but its 2m roots pass MAX_ROOTS from
    # m = 501 on; the matrix is refused before any root is made
    for spec in ("I2:40000", '{"matrix": [[1, 40000], [40000, 1]]}',
                 {"matrix": [[1, 2, 2], [2, 1, 40000], [2, 40000, 1]]}):
        with pytest.raises(ValueError, match=f"limited to {MAX_ROOTS} roots"):
            CoxeterMatrix.from_spec(spec)
    # an affine matrix with small entries is still not a finite group
    with pytest.raises(ValueError, match="not define a finite group"):
        CoxeterMatrix.from_spec('{"matrix": [[1, 3, 3], [3, 1, 3], [3, 3, 1]]}')


def test_contains_reduced_is_bruhat_below_demazure():
    rng = random.Random(7)
    names = ("A3", "B3", "H3", "A4", "D4")
    for k in range(1500):
        sys_ = system(names[k % len(names)])
        word = tuple(rng.randrange(1, sys_.rank + 1) for _ in range(rng.randrange(0, 13)))
        if rng.random() < 0.5:
            pi = random_pi(sys_, rng, word)  # below the Demazure product
        else:
            pi = sys_.element_of([rng.randrange(1, sys_.rank + 1)
                                  for _ in range(rng.randrange(0, 9))])
        # the length-pruned h recursion of the tests, not Bruhat order
        found = subword_h_oracle(sys_, word, pi) is not None
        assert contains_reduced(sys_, word, pi) == found, (sys_.name, word, pi)
        assert (len(run_facets(sys_, word, pi)) > 0) == found


def test_exact_roots_match_float_orbit_on_named_types():
    names = [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    names += [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8", "F4", "H3", "H4"]
    for name in names:
        assert roots_match_float_orbit(CoxeterMatrix.named(name)), name


def test_exact_roots_match_float_orbit_on_dihedral_groups():
    for m in [*range(2, 41), 97, 250, 499, 500]:
        cm = CoxeterMatrix.named(f"I2:{m}")
        assert 2 * len(cm.roots) == 2 * m and roots_match_float_orbit(cm), m


def _product(blocks, order) -> CoxeterMatrix:
    """The direct product of the named blocks, generator k of the product
    being generator order[k] of the blocks laid end to end."""
    rows = []
    for name in blocks:
        block = CoxeterMatrix.named(name).rows
        rows = [r + (2,) * len(block) for r in rows] + [(2,) * len(rows) + r for r in block]
    return CoxeterMatrix([[rows[i][j] for j in order] for i in order])


def test_exact_roots_match_float_orbit_on_random_products():
    rng = random.Random(23)
    names = ("A1", "A2", "A3", "A4", "B2", "B3", "D4", "F4", "H3", "I2:5", "I2:8", "I2:12")
    for _ in range(32):
        blocks = [rng.choice(names) for _ in range(rng.randrange(2, 5))]
        rank = sum(CoxeterMatrix.named(b).rank for b in blocks)
        order = rng.sample(range(rank), rank)
        assert roots_match_float_orbit(_product(blocks, order)), (blocks, order)
    # one lcm for the whole graph would hold each coordinate in 11,520
    # integers; a lcm per piece holds it in 6 to 16
    cm = _product(["I2:7", "I2:11", "I2:13", "I2:17"], [0, 2, 4, 6, 1, 3, 5, 7])
    assert 2 * len(cm.roots) == 96 and roots_match_float_orbit(cm)
    assert max(len(c) for r in cm.roots for c in r) == 16


# each refusal of a group spec: the spec, its message, and the row's id
SPEC_REFUSALS = [
    ({"matrix": [[1, 3], [3]]}, "Coxeter matrix must be square", "square"),
    ({"matrix": []}, "Coxeter matrix must have positive rank", "rank_0"),
    ({"matrix": [[2, 3], [3, 1]]}, "diagonal entries must be 1", "diagonal"),
    ({"matrix": [[1, 3], [4, 1]]}, "Coxeter matrix must be symmetric", "symmetric"),
    ({"matrix": [[1, 1], [1, 1]]}, "off-diagonal entries must be >= 2", "off_diagonal"),
    ("I2:1", "I2(m) needs m >= 2", "I2"),
    ("A0", "A_n needs n >= 1", "A"),
    ("B1", "B_n needs n >= 2", "B"),
    ("D3", "D_n needs n >= 4", "D"),
    ("E5", "E_n needs n in {6, 7, 8}", "E"),
    ("F3", "only F4 exists", "F"),
    ("H2", "H_n needs n in {3, 4}", "H"),
    ({"type": "I2"}, "type I2 needs its order m", "I2_without_m"),
    ({"type": "A"}, "named type needs a rank", "type_without_rank"),
    ({"family": "A3"}, "cannot interpret group spec", "unknown_keys"),
    ('{"matrix": ' + "[" * 5000 + "]" * 5000 + "}", "group spec nests too deeply", "nested"),
]


@pytest.mark.parametrize("spec, message", [row[:2] for row in SPEC_REFUSALS],
                         ids=[row[2] for row in SPEC_REFUSALS])
def test_group_spec_refusals(capsys, spec, message):
    # refused by the library, and by the command line with exit code 2 and
    # one error line
    with pytest.raises(ValueError, match=re.escape(message)):
        CoxeterMatrix.from_spec(spec)
    group = spec if isinstance(spec, str) else json.dumps(spec)
    assert cli.main(["complex", "--group", group, "--word", "1", "--pi", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: ") and message in err


def test_nested_spec_file_refused(capsys, tmp_path):
    # a group spec file nested 100,000 deep exits 2 with one error line
    path = tmp_path / "deep.json"
    path.write_text('{"matrix": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert cli.main(["complex", "--group", str(path), "--word", "1", "--pi", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: group spec nests too deeply\n"


@pytest.mark.parametrize("call, message", [
    (lambda: system("A2").check_word((1, "a")), "letters must be integers, got (1, 'a')"),
    (lambda: system("A3").length(system("A2").longest_element()), "is not an element of A3"),
], ids=["letters", "element"])
def test_word_and_element_refusals(call, message):
    # the command line parses words itself and makes its own elements, so
    # these two are reached through the library alone
    with pytest.raises(ValueError, match=re.escape(message)):
        call()

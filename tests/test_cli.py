import hashlib
import json

import pytest

from coxsub import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_complex_pentagon(capsys):
    code, out, _ = run(capsys, "complex", "--group", "A2",
                       "--word", "1,2,1,2,1", "--pi", "w0")
    assert code == 0
    assert "f-vector (5, 5)" in out
    assert "h-vector (1, 3, 1)" in out
    assert "gamma    (1, 1)" in out
    assert "spherical True" in out


def test_complex_json(capsys):
    code, out, _ = run(capsys, "complex", "--group", "A2",
                       "--word", "1 2 1 2 1", "--pi", "w0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["f_vector"] == [5, 5]
    assert doc["gamma"] == [1, 1]
    assert doc["flag"] is True
    assert len(doc["facets"]) == 5


def test_complex_past_the_face_limit(capsys):
    # a join of two boundaries of the 8-simplex: 81 facets of 16 vertices,
    # more submasks than the face enumeration allows; h, f and gamma come
    # from the vertex decomposition and flagness from the facets
    word = ",".join(["1,3"] * 9)
    code, out, err = run(capsys, "complex", "--group", "A3", "--word", word,
                         "--pi", "1,3", "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert len(doc["facets"]) == 81
    assert doc["h_vector"] == [1, 2, 3, 4, 5, 6, 7, 8, 9, 8, 7, 6, 5, 4, 3, 2, 1]
    assert doc["f_vector"][0] == 18 and doc["f_vector"][-1] == 81
    assert doc["flag"] is False and doc["spherical"] is True
    assert doc["gamma"][0] == 1


def test_complex_facet_count_past_the_limit(capsys, monkeypatch):
    # (1,2,3,4)^15 in B4 has 6,892,441,920 facets: refused from h, before
    # the kernel runs
    from coxsub import backend

    monkeypatch.setattr(backend.active, "reduced_subword_masks", None)
    code, out, err = run(capsys, "complex", "--group", "B4",
                         "--word", ",".join(["1,2,3,4"] * 15), "--pi", "w0")
    assert code == 2 and out == ""
    assert "face enumeration too large" in err


def test_complex_builds_once(capsys, monkeypatch):
    from coxsub import backend

    calls = []
    kernel = backend.active.reduced_subword_masks
    monkeypatch.setattr(backend.active, "reduced_subword_masks",
                        lambda *a, **k: calls.append(1) or kernel(*a, **k))
    for extra in ((), ("--json",)):
        calls.clear()
        code, _, _ = run(capsys, "complex", "--group", "A2", "--word", "1,2,1,2,1",
                         "--pi", "w0", *extra)
        assert code == 0 and len(calls) == 1


def test_complex_void(capsys):
    code, out, _ = run(capsys, "complex", "--group", "A2",
                       "--word", "1,2", "--pi", "w0")
    assert code == 0
    assert "none (void complex)" in out


def test_classify_text_and_json(capsys):
    args = ("classify", "--group", "I2:5", "--word", "1,2,1,2,1,2,1",
            "--pos", "3", "--pi", "w0")
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert "case 2" in out and "witness verified: True" in out
    code, out, _ = run(capsys, *args, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["case"] == 2 and doc["ok"] is True
    assert doc["conditions"]["B2"] is True and doc["conditions"]["A2"] is False
    assert doc["delta1"]["f_vector"] == [7, 7]
    assert doc["delta2"]["f_vector"] == [4, 4]
    assert doc["poly"]["delta_h"] == [[1, 1, -3]]


def test_chain_with_moves(capsys):
    code, out, _ = run(capsys, "chain", "--group", "A3",
                       "--word", "1,2,3,3,2,1,3,2,3", "--pi", "w0",
                       "--moves", "6,4,6,5,8,6,4,6", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert len(doc["words"]) == 9
    assert [s["case"] for s in doc["steps"]] == [1, 3, 1, 1, 1, 3, 3, 1]
    assert doc["rows"][-1]["f_vector"] == [9, 21, 14]


def test_chain_with_goal(capsys):
    code, out, _ = run(capsys, "chain", "--group", "A2", "--word", "1,2,1",
                       "--pi", "1,2,1", "--goal", "2,1,2")
    assert code == 0
    assert "sequence ok" in out


def test_poset_summary_and_artifacts(capsys, tmp_path):
    dot_path = tmp_path / "rho.dot"
    json_path = tmp_path / "rho.json"
    code, out, _ = run(capsys, "poset", "--group", "A3", "--Q", "1,2,3",
                       "--pi", "w0", "--dot", str(dot_path),
                       "--json", str(json_path))
    assert code == 0
    doc = json.loads(json_path.read_text())
    assert doc["word_count"] == 16 and doc["antisymmetric"] is True
    text = dot_path.read_text()
    assert text.startswith("digraph rho {") and text.count("->") == 18
    code, out, _ = run(capsys, "poset", "--group", "A3", "--Q", "1,2,3",
                       "--pi", "w0")
    assert code == 0
    assert "16 reduced words, 6 classes" in out
    assert "meet-semilattice: True   join-semilattice: True" in out


def test_poset_stdout_deterministic(capsys):
    argv = ("poset", "--group", "A3", "--Q", "1,2,3", "--pi", "w0", "--json", "-")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["word_count"] == 16


def test_poset_gap_not_checked(capsys):
    # B3 w0 has 42 reduced words, past the scan's limit
    code, out, _ = run(capsys, "poset", "--group", "B3", "--pi", "w0")
    assert code == 0
    assert "definition gap: not checked (42 reduced words; the scan runs up to 24)" in out
    code, out, _ = run(capsys, "poset", "--group", "B3", "--pi", "w0", "--json", "-")
    assert json.loads(out)["gap"] == {
        "checked": False, "truncated": False, "iso_pairs": [], "subdivision_pairs": []}


def test_demo_i2(capsys):
    code, out, _ = run(capsys, "demo", "i2", "--m", "5")
    assert code == 0
    assert "case 2" in out
    assert "f=(7, 7)" in out and "f=(4, 4)" in out
    assert "3*tau" in out
    assert "demo ok" in out


def test_demo_a3_chain(capsys):
    code, out, _ = run(capsys, "demo", "a3-chain")
    assert code == 0
    assert "gamma1 trajectory (0, 0, 1, 1, 1, 2, 3, 3)" in out
    assert "cases [1, 3, 1, 1, 1, 3, 3, 1]" in out
    assert "As^3" in out and "P^3" in out
    assert "demo ok" in out


def test_demo_deterministic(capsys):
    _, out1, _ = run(capsys, "demo", "a3-chain")
    _, out2, _ = run(capsys, "demo", "a3-chain")
    assert out1 == out2


def test_bad_input_exit_codes(capsys):
    code, _, err = run(capsys, "complex", "--group", "A2",
                       "--word", "1,7", "--pi", "w0")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "classify", "--group", "A2",
                       "--word", "1,1,2", "--pos", "1", "--pi", "w0")
    assert code == 2
    code, _, err = run(capsys, "chain", "--group", "A2", "--word", "1,2,1",
                       "--pi", "w0")
    assert code == 2 and "--moves or --goal" in err
    code, _, err = run(capsys, "complex", "--group", "Q9",
                       "--word", "1", "--pi", "w0")
    assert code == 2
    code, _, err = run(capsys, "poset", "--group", "A2", "--pi", "w0", "--cap", "0")
    assert code == 2 and "--cap" in err
    code, _, err = run(capsys, "complex", "--group", "I2:40000",
                       "--word", "1,2", "--pi", "1")
    assert code == 2 and "limited to 1000 roots" in err
    # a non-integral entry is refused, not truncated to A2
    code, _, err = run(capsys, "complex", "--group", '{"matrix": [[1, 3.9], [3.9, 1]]}',
                       "--word", "1,2,1", "--pi", "w0")
    assert code == 2 and "list of rows of integers" in err
    code, _, err = run(capsys, "complex", "--group", '{"type": "I2"}',
                       "--word", "1,2,1", "--pi", "w0")
    assert code == 2 and "order m" in err


def test_group_spec_file(capsys, tmp_path):
    spec = tmp_path / "group.json"
    spec.write_text('{"matrix": [[1, 5], [5, 1]]}')
    code, out, _ = run(capsys, "complex", "--group", str(spec),
                       "--word", "1,2,1,2,1,2,1", "--pi", "w0")
    assert code == 0
    assert "f-vector (7, 7)" in out


# SHA-256 of the standard output of the worked examples; a change to any
# printed byte, ordering or float formatting fails here
PINNED = [
    (("demo", "a3-chain"),
     "eb423c851c9208a850343309de6ee6e95eeafa62509737293f94b038a713bcce"),
    (("chain", "--group", "A3", "--word", "1,2,3,3,2,1,3,2,3", "--pi", "w0",
      "--moves", "6,4,6,5,8,6,4,6", "--json"),
     "6e2cf64a55bc695ba8f300e449cf33e3a753fba6a22d304c1501842a3afd3368"),
    (("poset", "--group", "A3", "--Q", "1,2,3", "--pi", "w0", "--json", "-"),
     "083e70c7bff891630297df078d2578b560eba3e8c39c93f2d44f7c29662ea4ec"),
    # one move of each of the cases 2, 3 and 4
    (("classify", "--group", "I2:5", "--word", "1,2,1,2,1,2,1", "--pos", "3",
      "--pi", "w0", "--json"),
     "22868b2f2fb63e8d263f4d2440894338967c54bc2ee7f03c033a46e181029865"),
    (("classify", "--group", "A3", "--word", "1,1,2,1,1,3,2,1", "--pos", "2",
      "--pi", "w0", "--json"),
     "6dd945b14236acf563909cca3c3c5ae73c818b82832967601a356914703a9bd5"),
    (("classify", "--group", "A3", "--word", "1,1,2,1", "--pos", "2", "--pi", "1",
      "--json"),
     "2c093fc14c021f5fc0bc971457f8536c34d888cb4dc7735f816b4de5051b25d5"),
    # an order whose gap scan finds subdivision pairs, as JSON and as DOT
    (("poset", "--group", "A3", "--Q", "1,2,3", "--Qprime", "3,3,2", "--pi", "w0",
      "--json", "-"),
     "a56083efbefe48259c771bedbb59dfa0c93e06a58edca45e750407a0aaec69d0"),
    (("poset", "--group", "A3", "--Q", "1,2,3", "--Qprime", "3,3,2", "--pi", "w0",
      "--dot", "-"),
     "f07f40697eb257dfbc016a83b5b557fa65232f455a64d3fe5af5661505fd8ec5"),
    (("complex", "--group", "A2", "--word", "1,2,1,2,1", "--pi", "w0", "--json"),
     "172869ea79525533e0f5c0e18e17f2e5c6ff287c25730d3b81a37d4e2855758b"),
]


@pytest.mark.parametrize("argv,digest", PINNED,
                         ids=["demo", "chain", "poset", "case2", "case3", "case4",
                              "gap_json", "gap_dot", "complex"])
def test_worked_examples_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest

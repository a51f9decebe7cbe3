import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time

import pytest

from conftest import no_face_listing, oracle_contexts
from coxsub import cli, rhoposet


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
    # more submasks than a listing of faces allows; h, f and gamma come
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


def test_complex_flag_past_the_face_limit(capsys):
    # the boundary of the 14-dimensional cross-polytope has 3^14 faces, more
    # than MAX_FACES, but only its 2^14 maximal cliques are searched
    code, out, err = run(capsys, "complex", *_cross_polytope(14), "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["flag"] is True and len(doc["facets"]) == 1 << 14
    assert doc["f_vector"][0] == 28 and doc["gamma"] == [1] + [0] * 7


def test_complex_facet_count_past_the_limit(capsys, monkeypatch):
    # (1,2,3,4)^15 in B4 has 6,892,441,920 facets: refused from h, before
    # the kernel runs
    from coxsub import backend

    monkeypatch.setattr(backend.active, "reduced_subword_masks", None)
    code, out, err = run(capsys, "complex", "--group", "B4",
                         "--word", ",".join(["1,2,3,4"] * 15), "--pi", "w0")
    assert code == 2 and out == ""
    assert "too many facets or flag-search nodes" in err


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


def test_complex_json_enumerates_no_faces(capsys, monkeypatch):
    # f from h and flagness from the facets: no submask is filled, even
    # for 1^40 in A1 with pi = s1, whose 2^40 - 1 faces exceed any limit
    from coxsub import backend

    monkeypatch.setattr(backend.active, "fill_submasks", None)
    argv, digest = PINNED[-1]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    code, out, err = run(capsys, "complex", "--group", "A1", "--word", ",".join("1" * 40),
                         "--pi", "1", "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert len(doc["facets"]) == 40 and doc["h_vector"] == [1] * 40
    assert doc["f_vector"][-1] == 40 and doc["spherical"] is True and doc["flag"] is False


def test_complex_text_facets_in_position_order(capsys):
    # past nine letters the names sort as numbers, not as strings
    code, out, _ = run(capsys, "complex", "--group", "A1", "--word", ",".join("1" * 12),
                       "--pi", "1")
    assert code == 0
    (line,) = [row for row in out.splitlines() if row.startswith("facets")]
    want = [",".join(str(q) for q in range(1, 13) if q != p) for p in range(12, 0, -1)]
    assert line.split() == ["facets"] + ["{" + f + "}" for f in want]


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
    # an m = 5 move whose length-3 conditions fail: no case, and exit 0
    code, out, _ = run(capsys, "classify", "--group", "I2:5", "--word", "1,2,1,2,1",
                       "--pos", "1", "--pi", "1")
    assert code == 0
    assert "case: unsupported (length-3 conditions fail on a long window)\n" in out


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


@pytest.mark.parametrize("word, goal, message", [
    (",".join(["1,2,3"] * 200), "3,2,3", "words are limited to 62 letters"),
    ("1,2,1", "9,9,9", "generator index 9 out of range 1..3"),
], ids=["long_word", "goal_letter"])
def test_chain_goal_checks_its_words(capsys, word, goal, message):
    # both words are checked before the move search starts
    code, out, err = run(capsys, "chain", "--group", "A3", "--word", word, "--pi", "w0",
                         "--goal", goal)
    assert code == 2 and out == "" and err == f"error: {message}\n"


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


def test_poset_json_only_for_json(capsys, monkeypatch):
    # the text summary and the DOT read the order itself; the PINNED text
    # cases hold their bytes
    monkeypatch.setattr(cli, "poset_json", None)
    for extra in ((), ("--dot", "-")):
        code, out, _ = run(capsys, "poset", "--group", "A3", "--Q", "1,3", "--Qprime", "1,2",
                           "--pi", "w0", *extra)
        assert code == 0 and out


def test_poset_json_streams(monkeypatch):
    # the order leaves in blocks as it is encoded, never as one whole string
    sizes = []

    class Recorder(io.StringIO):
        def write(self, s):
            sizes.append(len(s))
            return super().write(s)

    monkeypatch.setattr(sys, "stdout", Recorder())
    code = cli.main(["poset", "--group", "A4", "--Q", "1,2,3,4", "--pi", "w0", "--json", "-"])
    text = sys.stdout.getvalue()
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "72b6dd8d395a53a5e7f3f7983c62e93b62027e86be87d9a367b6014b0ba2ba4b")
    assert max(sizes) < len(text) / 8


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


@pytest.mark.parametrize("fail", [
    lambda rep: rep._replace(witness_ok=False),
    lambda rep: rep._replace(decomposition=rep.decomposition._replace(ok=False)),
    lambda rep: rep._replace(poly=rep.poly and rep.poly._replace(h_ok=False)),
], ids=["witness", "decomposition", "h_identity"])
def test_poset_failed_check_exits_3(capsys, monkeypatch, fail):
    # a failed witness leaves the edge unoriented, and a failed identity
    # leaves the witness standing; either is a failed check
    direct = rhoposet.classify
    monkeypatch.setattr(rhoposet, "classify", lambda ctx, memo=None: fail(direct(ctx, memo)))
    code, out, _ = run(capsys, "poset", "--group", "A3", "--Q", "1,2,3", "--pi", "w0")
    assert code == 3
    assert "16 reduced words" in out


def test_poset_cover_inside_one_class_reports_words(capsys, monkeypatch):
    # a move that claims a subdivision between two words of one class is a
    # failed antisymmetry: it is reported as that class's representative
    # word twice, so the JSON prints it, and the exit code stays 0
    direct, moved = rhoposet.classify, []

    def classify(ctx, memo=None):
        rep = direct(ctx, memo)
        if rep.m == 3 and rep.case == 1 and not moved:
            moved.append(rep)
            return rep._replace(case=2)
        return rep

    monkeypatch.setattr(rhoposet, "classify", classify)
    code, out, _ = run(capsys, "poset", "--group", "A4", "--pi", "w0", "--json", "-")
    assert code == 0 and moved
    doc = json.loads(out)
    assert doc["antisymmetric"] is False and any(a == b for a, b in doc["violations"])
    for pair in doc["violations"]:
        assert len(pair) == 2 and all(isinstance(w, list) and len(w) == 10 for w in pair)
    # the text summary prints the same pairs as word tuples
    moved.clear()
    code, out, _ = run(capsys, "poset", "--group", "A4", "--pi", "w0")
    pairs = [tuple(tuple(w) for w in pair) for pair in doc["violations"]]
    assert code == 0 and moved and "antisymmetric: False" in out
    assert f"violations: {tuple(pairs)}" in out


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
    # I2 is named I2:m or I2(m) and nothing else
    for name in ("I2(7", "I27)", "I2:5)", "I25"):
        code, _, err = run(capsys, "complex", "--group", name, "--word", "1,2", "--pi", "1")
        assert code == 2 and "unrecognized group name" in err, name
    # affine A2 and the hyperbolic 3-5-3 chain
    for rows in ([[1, 3, 3], [3, 1, 3], [3, 3, 1]],
                 [[1, 3, 2, 2], [3, 1, 5, 2], [2, 5, 1, 3], [2, 2, 3, 1]]):
        code, _, err = run(capsys, "complex", "--group", json.dumps({"matrix": rows}),
                           "--word", "1,2", "--pi", "1")
        assert code == 2 and "does not define a finite group" in err
    # a non-integral entry is refused, not truncated to A2
    code, _, err = run(capsys, "complex", "--group", '{"matrix": [[1, 3.9], [3.9, 1]]}',
                       "--word", "1,2,1", "--pi", "w0")
    assert code == 2 and "list of rows of integers" in err
    code, _, err = run(capsys, "complex", "--group", '{"type": "I2"}',
                       "--word", "1,2,1", "--pi", "w0")
    assert code == 2 and "order m" in err
    # a word that is not integers, and the dihedral demo below m = 3: one line
    for argv, message in ((("complex", "--group", "A2", "--word", "1,x", "--pi", "1"),
                           "cannot parse word '1,x': use 1-based letters"),
                          (("demo", "i2", "--m", "2"), "the dihedral demo needs m >= 3")):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_huge_named_groups_exit_2_at_once():
    # a named type is refused from its count of positive roots, before any
    # row of its matrix is made; the address space is capped, so a rank
    # that were built anyway would fail fast rather than fill the memory
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    for name in ("A99999999999", "A1000", "D100000"):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "coxsub.cli", "complex", "--group", name,
                               "--word", "1", "--pi", "1"], capture_output=True, text=True,
                              env=env, timeout=5, preexec_fn=cap)
        assert done.returncode == 2 and "limited to 1000 roots" in done.stderr, name
        assert time.perf_counter() - start < 0.5, name


def test_poset_unsupported_pairs(capsys):
    # H3 w0 inside 3,2 + w + 1,2,3: 286 words, 23 classes, 61 covers, and
    # four m = 5 moves whose length-3 conditions fail; the bytes CI pins
    code, out, _ = run(capsys, "poset", "--group", "H3", "--Q", "3,2", "--Qprime", "1,2,3",
                       "--pi", "w0", "--json", "-")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "e0ff784c97ab319e7fe080f5a506759dbe3960733239087e0ec240c4025ed373"
    doc = json.loads(out)
    assert (len(doc["words"]), len(doc["classes"]), len(doc["cover_edges"])) == (286, 23, 61)
    assert doc["unsupported_pairs"] == [
        {"a": [1, 2, 1, 3, 2, 1, 2, 3, 1, 2, 1, 2, 1, 3, 2],
         "b": [1, 2, 1, 3, 2, 1, 2, 3, 2, 1, 2, 1, 2, 3, 2], "pos": 9},
        {"a": [1, 2, 3, 1, 2, 1, 2, 1, 3, 2, 1, 2, 1, 3, 2],
         "b": [1, 2, 3, 2, 1, 2, 1, 2, 3, 2, 1, 2, 1, 3, 2], "pos": 4},
        {"a": [1, 2, 3, 1, 2, 1, 2, 1, 3, 2, 1, 2, 3, 1, 2],
         "b": [1, 2, 3, 2, 1, 2, 1, 2, 3, 2, 1, 2, 3, 1, 2], "pos": 4},
        {"a": [1, 2, 3, 1, 2, 1, 2, 3, 1, 2, 1, 2, 1, 3, 2],
         "b": [1, 2, 3, 1, 2, 1, 2, 3, 2, 1, 2, 1, 2, 3, 2], "pos": 9}]


def test_closed_stdout_exits_1():
    # a reader that leaves after one byte is not bad input: exit 1, no
    # message; the A4 order is far larger than a pipe's buffer
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "coxsub.cli", "poset", "--group", "A4",
                             "--Q", "1,2,3,4", "--pi", "w0", "--json", "-"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1 and err == b""


def test_cold_import_loads_neither_dataclasses_nor_argparse():
    # every one-shot run pays for the modules the package loads: argparse
    # waits for main, and no class is generated by dataclasses; -S keeps
    # site's own imports out of the count
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import coxsub.braid, coxsub.rhoposet, coxsub.subword, coxsub.cli; "
            "print(sorted({'dataclasses', 'argparse', 'coxsub.cli'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "['coxsub.cli']\n"  # the package loaded, and neither module


def test_group_spec_file(capsys, tmp_path):
    spec = tmp_path / "group.json"
    spec.write_text('{"matrix": [[1, 5], [5, 1]]}')
    code, out, _ = run(capsys, "complex", "--group", str(spec),
                       "--word", "1,2,1,2,1,2,1", "--pi", "w0")
    assert code == 0
    assert "f-vector (7, 7)" in out


def test_group_name_is_never_read_as_a_file(capsys, monkeypatch, tmp_path):
    # files named A2 and {x, each holding B2, in the working directory: a
    # name or JSON is never read as a file, and ./A2 reads the file
    monkeypatch.chdir(tmp_path)
    for name in ("A2", "{x"):
        (tmp_path / name).write_text("B2")
    argv = ("--word", "1,2,1,2", "--pi", "1,2,1")
    code, out, _ = run(capsys, "complex", "--group", "A2", *argv)
    assert code == 0 and "f-vector (2,)  spherical True" in out
    code, out, _ = run(capsys, "complex", "--group", "./A2", *argv)
    assert code == 0 and "f-vector (1,)  spherical False" in out
    code, out, err = run(capsys, "complex", "--group", "{x", *argv)
    assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


def _cross_polytope(n):
    """--group, --word and --pi of A1^n with word 1,1,2,2,..,n,n and pi = 1..n:
    the boundary of the n-dimensional cross-polytope, 2^n facets, 3^n faces."""
    matrix = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    return ("--group", json.dumps({"matrix": matrix}),
            "--word", ",".join(str(k) for k in range(1, n + 1) for _ in "ab"),
            "--pi", ",".join(str(k) for k in range(1, n + 1)))


def _a1_13_a2():
    """--group, --word, --pos and --pi of the A2 move 1,2,1 at pi = s1 joined
    with A1^13: word 1,1,2,2,..,13,13,14,15,14 with the window at 27 and
    pi = 1..14, 16,384 and 8,192 facets on the sides and 3^13 times more
    faces."""
    matrix = [[1 if i == j else 2 for j in range(15)] for i in range(15)]
    matrix[13][14] = matrix[14][13] = 3
    return ("--group", json.dumps({"matrix": matrix}),
            "--word", ",".join([str(k) for k in range(1, 14) for _ in "ab"] + ["14,15,14"]),
            "--pos", "27", "--pi", ",".join(str(k) for k in range(1, 15)))


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
    # an order with Q and Q' both non-empty and a clean gap, as JSON and as DOT
    (("poset", "--group", "A3", "--Q", "1,2,3", "--Qprime", "3,3,2", "--pi", "w0",
      "--json", "-"),
     "a56083efbefe48259c771bedbb59dfa0c93e06a58edca45e750407a0aaec69d0"),
    (("poset", "--group", "A3", "--Q", "1,2,3", "--Qprime", "3,3,2", "--pi", "w0",
      "--dot", "-"),
     "f07f40697eb257dfbc016a83b5b557fa65232f455a64d3fe5af5661505fd8ec5"),
    # an order whose gap scan finds 2 isomorphism and 9 subdivision pairs
    (("poset", "--group", "A3", "--Q", "1,3", "--Qprime", "1,2", "--pi", "w0",
      "--json", "-"),
     "2f3730d68f4e75709bbd3bc9d631f92abf1175fff5525919a417e311fc3c4cad"),
    # moves with Q and Q' both non-empty: m = 4 in case 2, m = 5 in case 3
    # (side 2 named f5 g2 g3 g4 f1) and m = 5 unsupported
    (("classify", "--group", "B3", "--word", "1,1,3,2,3,2,3,2", "--pos", "3",
      "--pi", "3,1,2,3,2", "--json"),
     "63bbc3a0fbe3fa4c84743d1b750950e5e458432715ba41c07e294f5f11481596"),
    (("classify", "--group", "H3", "--word", "1,2,2,1,2,1,2,2", "--pos", "3",
      "--pi", "1,2,1,2,1", "--json"),
     "22232913b122789b349a3a905b936328b492844c59d5890efde266fca57cb130"),
    (("classify", "--group", "H3", "--word", "2,3,2,2,1,2,1,2,1,2", "--pos", "4",
      "--pi", "3,1,2,1,2,1", "--json"),
     "f706c56eb1a8734aced6141cc7abdd8743d28426731d713d27cbeab4519b8848"),
    # the text mode of poset: both certificate lines with and without
    # extremal bounds, and the gap line checked and not checked
    (("poset", "--group", "A3", "--Q", "1,3", "--Qprime", "1,2", "--pi", "w0"),
     "c57992608be226be22d90a28db501d1236a6a0e372a9400cbab81883284d3e5f"),
    (("poset", "--group", "H3", "--Q", "1,2,3", "--pi", "w0"),
     "2de5c2c94c5884410f6b0e9a2b4d3f1045d74ac17fb5b68db37e90f563244328"),
    # the text modes of demo i2, complex, classify and chain
    (("demo", "i2"),
     "21c8599f7aa7500f448308acf341d4bdb6e54361fa7b04dd73760486c72d9671"),
    (("demo", "i2", "--m", "7"),
     "96f71e83d79864298fb090a393e3d897acb0f1c7bb024cb15697d5c8e76ed46e"),
    (("complex", "--group", "A2", "--word", "1,2,1,2,1", "--pi", "w0"),
     "6fd26caae18b8ad3038e22613f513cd8b8b6d0d3edb82878f79fd82c899a63eb"),
    (("classify", "--group", "I2:5", "--word", "1,2,1,2,1,2,1", "--pos", "3", "--pi", "w0"),
     "5633d041d39cd1a7bc3ad424cd43048665ce4d9ce8a0e1e666ff2670bcbf085d"),
    (("chain", "--group", "A3", "--word", "1,2,3,3,2,1,3,2,3", "--pi", "w0",
      "--moves", "6,4,6,5,8,6,4,6"),
     "c47aea9209f750f6e996ce515b6bff22e95ab4d76e1fd257d4ab8fec76a06007"),
    # flag and not: A1^9 (the boundary of the 9-dimensional cross-polytope),
    # 1^20 in A1 (the boundary of a simplex) and (1,3)^6 in A3
    (("complex", *_cross_polytope(9), "--json"),
     "37fae2daaf8b1262bca5ab25b4e8ce1ad25b85d0a610d44ec9b390798ebc0fb3"),
    (("complex", "--group", "A1", "--word", ",".join("1" * 20), "--pi", "1", "--json"),
     "5911e0c61662cdab75b06ea05570516bd569c71e9a04208154309e499fbad491"),
    (("complex", "--group", "A3", "--word", ",".join(["1,3"] * 6), "--pi", "1,3", "--json"),
     "8bf38546d0617e572ff8d8a318cfadce07bd57e8da15d237c501a0bb4a16bff6"),
    # the heaviest move of the seed-0 classify stream: 14,224 faces on its sides
    (("classify", "--group", "H3", "--word", "1,1,1,1,2,1,2,1,2,2,1,1,1", "--pos", "4",
      "--pi", "1,2,1", "--json"),
     "2b090ff88ee1c1903107635f3ab062b311efa36e573697ba686066d6c70ddfb8"),
    # a move whose sides have more faces than MAX_FACES, none of them listed
    (("classify", *_a1_13_a2(), "--json"),
     "64a66df3f7b5ae04fee4aed004889493eda832dad28284bd77027bfeae9fc1a1"),
    # the heaviest order of the seed-0 order stream: a depth-2 gap scan
    # finding 2 isomorphism and 9 subdivision pairs
    (("poset", "--group", "A3", "--Q", "2,1", "--Qprime", "1,3", "--pi", "w0",
      "--json", "-"),
     "32a66a652cef938fc67d88262ef94430c0306ea430838140677e2da2a1c3cbb7"),
    # last: test_complex_json_enumerates_no_faces reads it
    (("complex", "--group", "A2", "--word", "1,2,1,2,1", "--pi", "w0", "--json"),
     "172869ea79525533e0f5c0e18e17f2e5c6ff287c25730d3b81a37d4e2855758b"),
]


@pytest.mark.parametrize("argv,digest", PINNED,
                         ids=["demo", "chain", "poset", "case2", "case3", "case4",
                              "gap_json", "gap_dot", "gap_pairs_json", "m4_case2", "m5_case3",
                              "m5_unsupported", "text_a3", "text_h3", "text_demo_i2",
                              "text_demo_i2_m7", "text_complex", "text_classify",
                              "text_chain", "flag_a1_9", "simplex_a1_20", "a3_13_6",
                              "heavy_h3", "a1_13_a2", "heavy_order", "complex"])
def test_worked_examples_pinned(capsys, tmp_path, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if "-" in argv:
        # the same bytes written to a file in place of standard output
        path = tmp_path / "out"
        code, out, _ = run(capsys, *(str(path) if a == "-" else a for a in argv))
        assert code == 0 and out == ""
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_classify_past_the_face_limit(capsys):
    # the A2 move 1,2,1 at pi = s1, case 2, joined with A1^13: the same case
    # and conditions, read from the outer table with no face listed
    code, out, err = run(capsys, "classify", *_a1_13_a2(), "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["ok"] is True and doc["case"] == 2
    assert doc["conditions"] == {"A2": False, "B2": True, "A3": True, "B3": True}
    assert (len(doc["delta1"]["facets"]), len(doc["delta2"]["facets"])) == (16384, 8192)


def test_classify_long_window_past_the_part_limit(capsys):
    # a window of 40 letters at pi = s1 has about 2^40 window parts: refused
    # at the limit, which the message names, before any check runs
    from coxsub.simplicial import MAX_WINDOW_PARTS

    code, out, err = run(capsys, "classify", "--group", "I2:40", "--word",
                         ",".join(["1,2"] * 20), "--pos", "1", "--pi", "1", "--json")
    assert code == 2 and out == ""
    assert f"limit {MAX_WINDOW_PARTS} window parts" in err


def test_no_face_listed_on_a_passing_path(capsys, monkeypatch):
    # every listing of faces raises: the oracle moves classify and every
    # worked example prints its pinned bytes all the same, and so do a void
    # complex and a move whose sides are both void, whose f is read off h = ()
    from coxsub.braid import classify

    no_face_listing(monkeypatch)
    for ctx in oracle_contexts():
        rep = classify(ctx)
        assert rep.decomposition.ok and rep.witness_ok is not False
    for argv, digest in PINNED:
        code, out, _ = run(capsys, *argv)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
    void = [(("complex", "--group", "A2", "--word", "1", "--pi", "w0", "--json"),
             "c8168552fbeaaa93669965cc0c2636a481536004ce420676d1314329505ce148"),
            (("classify", "--group", "A3", "--word", "1,2,1", "--pos", "1", "--pi", "w0",
              "--json"),
             "0e0d4e946d28a9ee41ee1c6415ff724c97a80a3196997de8ed4ac9c19c0930d4")]
    for argv, digest in void:
        code, out, _ = run(capsys, *argv)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
    doc = json.loads(out)
    assert doc["case"] == 1 and doc["delta1"]["facets"] == doc["delta2"]["facets"] == []

"""Command line surface.

Subcommands: ``complex`` builds one subword complex, ``classify`` grades a
single braid move, ``chain`` replays a move sequence, ``poset`` builds the
reduced-word order, ``demo`` reruns the worked dihedral and rank-3 chain
examples with their frozen expectations.

Exit codes: 0 success, 1 standard output closed before all was written,
2 unusable input, 3 a verification check failed.
All output is deterministic for a fixed invocation.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import nullcontext
from itertools import islice

from .braid import apply_sequence, classify, find_move_path, move_context
from .coxeter import MAX_REDUCED_WORDS, CoxeterMatrix, CoxeterSystem
from .rhoposet import GAP_SCAN_WORDS, _cert_json, _word_text, build_rho, export_dot, poset_json
from .subword import SubwordDescriptor, complex_json, complex_summary


def parse_word(text: str) -> tuple[int, ...]:
    parts = text.replace(",", " ").split()
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"cannot parse word {text!r}: use 1-based letters")


def load_system(spec: str) -> CoxeterSystem:
    try:  # a group name or inline JSON is never read as a file: ./A2 reads one
        return CoxeterSystem(CoxeterMatrix.from_spec(spec))
    except ValueError:
        if spec.lstrip().startswith("{") or not os.path.isfile(spec):
            raise
    with open(spec) as fh:
        return CoxeterSystem(CoxeterMatrix.from_spec(fh.read().strip()))


def resolve_pi(system: CoxeterSystem, text: str):
    if text.strip().lower() in ("w0", "wo", "longest"):
        return system.longest_element()
    return system.element_of(parse_word(text))


def _mono_json(poly: dict) -> list:
    return [[a, t, c] for (a, t), c in sorted(poly.items())]


def _poly_json(poly) -> dict | None:
    if poly is None:
        return None
    return {
        "delta_h": _mono_json(poly.delta_h),
        "rhs_h": _mono_json(poly.rhs_h),
        "h_ok": poly.h_ok,
        "spherical": list(poly.spherical),
        "delta_gamma": poly.delta_gamma,
        "rhs_gamma": poly.rhs_gamma,
        "gamma_ok": poly.gamma_ok,
    }


def report_ok(rep) -> bool:
    """No claimed witness or identity failed (unsupported moves claim none,
    nor does an order's move of order 2, whose report is None)."""
    if rep is None:
        return True
    if rep.witness_ok is False or not rep.decomposition.ok:
        return False
    if rep.poly is not None and (not rep.poly.h_ok or rep.poly.gamma_ok is False):
        return False
    return True


def case_report_json(rep) -> dict:
    return {
        "m": rep.m,
        "window": [rep.ctx.i, rep.ctx.j],
        "case": rep.case,
        "case_name": rep.case_name,
        "supported": rep.supported,
        "conditions": {"A2": rep.A2, "B2": rep.B2, "A3": rep.A3, "B3": rep.B3},
        "delta1": complex_summary(rep.delta1, rep.names[0]),
        "delta2": complex_summary(rep.delta2, rep.names[1]),
        "witness": rep.witness,
        "witness_ok": rep.witness_ok,
        "decomposition": {
            "ok": rep.decomposition.ok,
            "chain_checked": rep.decomposition.chain_checked,
            "checks": [[name, good] for name, good in rep.decomposition.checks],
        },
        "poly": _poly_json(rep.poly),
        "ok": report_ok(rep),
    }


def _write(dest: str, out) -> None:
    """Write ``out`` to the path ``dest`` ("-" is stdout): text as it is, else sorted
    indented JSON and a newline, its chunks joined so an unbuffered stdout writes blocks."""
    with nullcontext(sys.stdout) if dest == "-" else open(dest, "w") as fh:
        if isinstance(out, str):
            fh.write(out)
            return
        chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(out)
        while block := "".join(islice(chunks, 4096)):
            fh.write(block)
        fh.write("\n")


# -- subcommands --------------------------------------------------------------


def cmd_complex(args) -> int:
    system = load_system(args.group)
    word = parse_word(args.word)
    pi = resolve_pi(system, args.pi)
    d = SubwordDescriptor(system, word, pi)
    out = complex_json(d)
    if args.json:
        _write("-", out)
        return 0
    print(f"word {_word_text(word)}  (rank {system.rank})")
    print(f"f-vector {tuple(out['f_vector'])}  spherical {out['spherical']}"
          f"  flag {out['flag']}")
    if out["h_vector"] is not None:
        print(f"h-vector {tuple(out['h_vector'])}")
    if out["gamma"] is not None:
        print(f"gamma    {tuple(out['gamma'])}")
    if not out["facets"]:
        print("facets   none (void complex)")
    else:
        names = out["vertices"]
        print("facets   " + " ".join("{" + ",".join(names[k] for k in f) + "}"
                                     for f in out["facets"]))
    return 0


def cmd_classify(args) -> int:
    system = load_system(args.group)
    word = parse_word(args.word)
    pi = resolve_pi(system, args.pi)
    ctx = move_context(system, word, args.pos, pi)
    rep = classify(ctx)
    if args.json:
        _write("-", case_report_json(rep))
    else:
        print(f"window ({ctx.i},{ctx.j}) of order {rep.m} at position {args.pos}")
        conds = f"A2={rep.A2} B2={rep.B2}"
        if rep.A3 is not None:
            conds += f" A3={rep.A3} B3={rep.B3}"
        print(f"conditions {conds}")
        if rep.case is None:
            print("case: unsupported (length-3 conditions fail on a long window)")
        else:
            print(f"case {rep.case} ({rep.case_name})")
            print(f"witness verified: {rep.witness_ok}")
        print(f"side 1 f-vector {rep.delta1.f_vector()}, side 2 f-vector {rep.delta2.f_vector()}")
        dec = rep.decomposition
        print(f"decomposition identities: {'ok' if dec.ok else 'FAILED'}"
              f" ({len(dec.checks)} checks, chain {'included' if dec.chain_checked else 'not applicable'})")
        if rep.poly is not None:
            print(f"h identity: {rep.poly.h_ok}   gamma identity: {rep.poly.gamma_ok}")
    return 0 if report_ok(rep) else 3


def cmd_chain(args) -> int:
    system = load_system(args.group)
    word = parse_word(args.word)
    pi = resolve_pi(system, args.pi)
    if args.moves:
        positions = [int(p) for p in args.moves.replace(",", " ").split()]
    elif args.goal:
        goal = parse_word(args.goal)
        positions = find_move_path(system, word, goal, cap=args.cap)
    else:
        raise ValueError("chain needs --moves or --goal")
    rep = apply_sequence(system, word, pi, positions)
    ok = all(report_ok(s.report) for s in rep.steps)
    if args.json:
        _write("-", {
            "words": [list(w) for w in rep.words],
            "moves": positions,
            "rows": [dict(r, vertices=[str(v) for v in r["vertices"]]) for r in rep.rows],
            "steps": [
                {"pos": s.pos, "case": s.report.case,
                 "case_name": s.report.case_name,
                 "witness_ok": s.report.witness_ok,
                 "ok": report_ok(s.report)}
                for s in rep.steps
            ],
            "ok": ok,
        })
        return 0 if ok else 3
    for k, row in enumerate(rep.rows):
        g = row["gamma"]
        print(f"{_word_text(row['word'])}  f={row['f_vector']}"
              f"  gamma={g if g is not None else '-'}")
        if k < len(rep.steps):
            s = rep.steps[k]
            print(f"  | move at {s.pos}: case {s.report.case or '-'}"
                  f" ({s.report.case_name}), verified {s.report.witness_ok}")
    print(f"sequence {'ok' if ok else 'FAILED'}")
    return 0 if ok else 3


def cmd_poset(args) -> int:
    system = load_system(args.group)
    Q = parse_word(args.Q)
    Qp = parse_word(args.Qprime)
    pi = resolve_pi(system, args.pi)
    p = build_rho(system, Q, Qp, pi, cap=args.cap)
    if args.dot:
        _write(args.dot, export_dot(p))
    if args.json:
        _write(args.json, poset_json(p))
    if not (args.dot or args.json):
        sl = p.semilattice
        print(f"{len(p.words)} reduced words, {len(p.classes)} classes,"
              f" {sum(e.lower is not None for e in p.edges)} cover moves,"
              f" {sum(e.case == 1 and e.verified for e in p.edges)} isomorphism moves")
        print(f"antisymmetric: {p.antisymmetric}")
        if p.violations:
            print(f"violations: {p.violations}")
        if sl.applicable:
            print(f"meet-semilattice: {sl.meet}   join-semilattice: {sl.join}")
            for kind in ("meet", "join"):
                cert = _cert_json(getattr(sl, f"{kind}_certificate"))
                if cert:
                    print(f"  {kind} fails at pair {cert['pair']},"
                          f" extremal bounds {cert['bounds']}")
        if p.gap.checked:
            print(f"definition gap: iso pairs {len(p.gap.iso_pairs)},"
                  f" subdivision pairs {len(p.gap.subdivision_pairs)}"
                  f"{' (scan truncated)' if p.gap.truncated else ''}")
        else:
            print(f"definition gap: not checked ({len(p.words)} reduced words;"
                  f" the scan runs up to {GAP_SCAN_WORDS})")
    ok = all(report_ok(e.report) for e in p.edges)
    return 0 if ok else 3


# -- demos with frozen expectations -------------------------------------------

CHAIN_START = (1, 2, 3, 3, 2, 1, 3, 2, 3)
CHAIN_MOVES = (6, 4, 6, 5, 8, 6, 4, 6)
CHAIN_ROWS = (0, 1, 2, 3, 5, 6, 7, 8)  # word 4 is a commutation midpoint
CHAIN_NAMES = ("I^3", "I^3", "I x As^2", "I x As^2", "I x As^2",
               "P^3", "As^3", "As^3")
CHAIN_F = ((6, 12, 8), (6, 12, 8), (7, 15, 10), (7, 15, 10), (7, 15, 10),
           (8, 18, 12), (9, 21, 14), (9, 21, 14))
CHAIN_G1 = (0, 0, 1, 1, 1, 2, 3, 3)
CHAIN_VERTS = ({1, 2, 3, 4, 7, 9}, {1, 2, 3, 4, 6, 9}, {1, 2, 3, 4, 5, 6, 9},
               {1, 2, 3, 4, 5, 8, 9}, {1, 2, 3, 4, 6, 8, 9},
               {1, 2, 3, 4, 6, 7, 8, 9}, set(range(1, 10)), set(range(1, 10)))


def demo_i2(args) -> int:
    m = args.m
    if m < 3:
        raise ValueError("the dihedral demo needs m >= 3")
    system = load_system(f"I2:{m}")
    w0 = system.longest_element()
    word = (1, 2) + tuple(1 if t % 2 == 0 else 2 for t in range(m))
    rep = classify(move_context(system, word, 3, w0))
    f1, f2 = rep.delta1.f_vector(), rep.delta2.f_vector()
    g1, g2 = rep.delta1.gamma(), rep.delta2.gamma()
    diff = g1[1] - g2[1]
    print(f"I2({m}): word {_word_text(word)}, window at 3, pi the longest element")
    print(f"case {rep.case} ({rep.case_name}), witness verified {rep.witness_ok}")
    print(f"side 1: boundary of the {m + 2}-gon, f={f1}, gamma={g1}")
    print(f"side 2: boundary of the square, f={f2}, gamma={g2}")
    print(f"gamma(side 1) - gamma(side 2) = {diff}*tau   (m - 2 = {m - 2})")
    print(f"h identity {rep.poly.h_ok}, gamma identity {rep.poly.gamma_ok}")
    good = (rep.case == 2 and rep.witness_ok and report_ok(rep)
            and f2 == (4, 4) and f1 == (m + 2, m + 2) and diff == m - 2)
    print("demo ok" if good else "demo FAILED")
    return 0 if good else 3


def demo_a3_chain(args) -> int:
    system = load_system("A3")
    w0 = system.longest_element()
    rep = apply_sequence(system, CHAIN_START, w0, CHAIN_MOVES)
    good = all(report_ok(s.report) and s.report.supported for s in rep.steps)
    shown = []
    for r, k in enumerate(CHAIN_ROWS):
        row = rep.rows[k]
        verts = {int(v) for v in row["vertices"]}
        line_ok = (row["f_vector"] == CHAIN_F[r]
                   and row["gamma1"] == CHAIN_G1[r]
                   and verts == CHAIN_VERTS[r])
        good = good and line_ok
        word = row["word"]
        marked = "".join(
            f"[{a}]" if p + 1 in verts else str(a) for p, a in enumerate(word))
        shown.append((marked, row, line_ok))
    w = max(len(s) for s, _, _ in shown)
    print("bracketed letters are the complex's vertices; the right column")
    print("names the dual polytope")
    for r, (marked, row, line_ok) in enumerate(shown):
        print(f"{marked:<{w}}  f={row['f_vector']!s:<12} gamma1={row['gamma1']}"
              f"  {CHAIN_NAMES[r]:<9}{'' if line_ok else '  MISMATCH'}")
    cases = [s.report.case for s in rep.steps]
    print(f"moves at {list(CHAIN_MOVES)} classify as cases {cases}")
    print(f"gamma1 trajectory {tuple(rep.rows[k]['gamma1'] for k in CHAIN_ROWS)}")
    print("demo ok" if good else "demo FAILED")
    return 0 if good else 3


def cmd_demo(args) -> int:
    if args.which == "i2":
        return demo_i2(args)
    return demo_a3_chain(args)


# -- parser --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    import argparse  # here, so that importing the package does not load it
    top = argparse.ArgumentParser(
        prog="coxsub",
        description="subword complexes of Coxeter systems and their braid moves")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, cap=False):
        p.add_argument("--group", required=True,
                       help="type name (A3, B4, H3, I2:7, ...), inline JSON, or a file")
        if cap:
            p.add_argument("--cap", type=int, default=MAX_REDUCED_WORDS,
                           help="enumeration size guard")

    p = sub.add_parser("complex", help="build one subword complex")
    common(p)
    p.add_argument("--word", required=True, help="letters, e.g. 1,2,1,2,1")
    p.add_argument("--pi", required=True, help="target element word, or w0")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_complex)

    p = sub.add_parser("classify", help="grade one braid move")
    common(p)
    p.add_argument("--word", required=True)
    p.add_argument("--pos", type=int, required=True,
                   help="1-based start of the alternating window")
    p.add_argument("--pi", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("chain", help="replay a sequence of braid moves")
    common(p, cap=True)
    p.add_argument("--word", required=True)
    p.add_argument("--pi", required=True)
    p.add_argument("--moves", help="positions, e.g. 6,4,6,5,8,6,4,6")
    p.add_argument("--goal", help="find a shortest move path to this word")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_chain)

    p = sub.add_parser("poset", help="order the reduced words of pi")
    common(p, cap=True)
    p.add_argument("--Q", default="", help="left factor word")
    p.add_argument("--Qprime", default="", help="right factor word")
    p.add_argument("--pi", required=True)
    p.add_argument("--dot", help="write the Hasse diagram here ('-' = stdout)")
    p.add_argument("--json", help="write the order summary here ('-' = stdout)")
    p.set_defaults(fn=cmd_poset)

    p = sub.add_parser("demo", help="replay a worked example and verify it")
    p.add_argument("which", choices=("i2", "a3-chain"))
    p.add_argument("--m", type=int, default=5, help="dihedral order for the i2 demo")
    p.set_defaults(fn=cmd_demo)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "cap", 1) < 1:
            raise ValueError("--cap must be at least 1")
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader left: drop what is still buffered, as ``signal``'s docs do
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

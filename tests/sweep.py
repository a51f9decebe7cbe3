"""Every braid move of every word of one length in one group, for every pi.

    PYTHONPATH=src python3 tests/sweep.py B3 6

classifies each braid move of each word of that length over the group's
generators, for each element pi of the group, with one build memo per
(word, pi); exits 1 if a report fails ``cli.report_ok`` or is a
chain-checked case 4, which the lemma in ``braid.classify`` rules out, and
prints the (m, case) histogram as JSON, an unsupported move's case as null.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from itertools import product

from coxsub.braid import BraidContext, classify
from coxsub.cli import report_ok
from coxsub.coxeter import CoxeterMatrix, CoxeterSystem


def elements(system: CoxeterSystem) -> list:
    """Every element of a finite group, by length, the identity first."""
    out = [system.element_of(())]
    seen = set(out)
    for g in out:
        for s in range(1, system.rank + 1):
            h = system.multiply(g, system.generator(s))
            if h not in seen:
                seen.add(h)
                out.append(h)
    return out


def sweep(system: CoxeterSystem, length: int, each=None) -> tuple[Counter, list]:
    """The (m, case) histogram of the braid moves of every word of
    ``length`` letters for every pi, and the contexts whose report fails
    ``report_ok`` or is a chain-checked case 4; ``each(ctx, report, memo)``
    sees every move."""
    hist: Counter = Counter()
    failed = []
    pis = elements(system)
    for word in product(range(1, system.rank + 1), repeat=length):
        moves = [(p, i, j, m) for p, i, j, m, _ in system._braid_moves(word)]
        if not moves:
            continue
        for pi in pis:
            memo: dict = {}
            for p, i, j, m in moves:
                ctx = BraidContext(system, word[:p - 1], word[p - 1 + m:], i, j, pi)
                rep = classify(ctx, memo)
                hist[rep.m, rep.case] += 1
                if not report_ok(rep) or rep.case == 4 and rep.decomposition.chain_checked:
                    failed.append(ctx)
                if each is not None:
                    each(ctx, rep, memo)
    return hist, failed


def main(argv: list[str]) -> int:
    name, length = argv[0], int(argv[1])
    hist, failed = sweep(CoxeterSystem(CoxeterMatrix.named(name)), length)
    rows = sorted(hist.items(), key=lambda row: (row[0][0], row[0][1] or 5))
    print(json.dumps([[m, case, n] for (m, case), n in rows]))
    for ctx in failed[:5]:
        print(f"fails: Q={ctx.Q} Q'={ctx.Qp} i={ctx.i} j={ctx.j} pi={ctx.pi}",
              file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Seeded inputs, operations and output checks of the benchmark workloads.

Each workload turns a seed into a stream of distinct inputs, in blocks that
hold every cell of the workload once; the runner draws a run's inputs before
it times the first operation.
``run_op`` performs one operation on one input and returns the canonical
text of its output: the JSON that ``coxsub ... --json`` prints, plus the DOT
text for the order.  ``check_op`` verifies the output outside the timing.

The package is called through its modules (``braid.classify``, not a
name imported from it), so that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

from coxsub import braid, cli, rhoposet, subword
from coxsub.braid import BraidContext
from coxsub.coxeter import CoxeterMatrix, CoxeterSystem
from coxsub.subword import SubwordDescriptor

CLASSIFY_GROUPS = ("A3", "B3", "H3", "A4", "D4")
COMPLEX_GROUPS = ("A3", "B3", "H3", "A4", "D4", "B4")
COMPLEX_LETTERS = range(10, 16)
# the order anchors, fixed for every seed: A4 w0 (768 reduced words) is
# kernel-bound and rebuilds each complex once per move it takes part in;
# H3 w0 (286 words) adds a non-simply-laced group
ORDER_ANCHORS = ("A4", "H3")
ORDER_GROUP = "A3"
# A3 pairs with two-letter Q and Q' cost 0.2 to 0.6 s each, so a 30 s run
# does all 81 and every run has the same mix; the stream ends after them.
# Pairs of three-letter words cost 0.4 to 21 s each: a run would hold only
# about twenty, and which ones the seed drew would decide its throughput.

CLASSIFY_CELLS = [(g, sph, side) for g in CLASSIFY_GROUPS for sph in (True, False)
                  for side in range(9)]
COMPLEX_CELLS = [(g, n, sph) for g in COMPLEX_GROUPS for n in COMPLEX_LETTERS
                 for sph in (True, False)]
_ORDER_WORDS = list(itertools.product(range(1, 4), repeat=2))  # A3 has rank 3
ORDER_PAIRS = [(q, qp) for q in _ORDER_WORDS for qp in _ORDER_WORDS]
# inputs per block: every cell once; the order block is its whole stream
BLOCK = {"classify": len(CLASSIFY_CELLS), "complex": len(COMPLEX_CELLS),
         "order": len(ORDER_ANCHORS) + len(ORDER_PAIRS)}

WORKLOAD_GROUPS = {
    "classify": CLASSIFY_GROUPS,
    "complex": COMPLEX_GROUPS,
    "order": tuple(dict.fromkeys(ORDER_ANCHORS + (ORDER_GROUP,))),
}


def make_systems(names) -> dict:
    """Name -> (CoxeterSystem, longest element)."""
    out = {}
    for name in names:
        system = CoxeterSystem(CoxeterMatrix.named(name))
        out[name] = (system, system.longest_element())
    return out


def _letters(rng: random.Random, rank: int, n: int) -> tuple[int, ...]:
    return tuple(rng.randrange(1, rank + 1) for _ in range(n))


def _pi(system: CoxeterSystem, rng: random.Random, word, spherical: bool):
    """Demazure product of the word (spherical complex) or of a random
    subword (a general element below it, so the complex is never void)."""
    if spherical:
        return system.demazure_product(word)
    return system.demazure_product([a for a in word if rng.random() < 0.6])


def _cells(rng: random.Random, keys):
    """Endless stream of cell keys; each block holds every key once, in a
    seed-shuffled order, so that every run sees the same mix of cells."""
    while True:
        block = list(keys)
        rng.shuffle(block)
        yield from block


def classify_inputs(systems: dict, seed: int):
    """Distinct braid-move contexts, cells (group, pi kind, letters in Q
    plus Q' from 0 to 8)."""
    rng = random.Random(f"classify/{seed}")
    seen = set()
    for name, spherical, side in _cells(rng, CLASSIFY_CELLS):
        system, _ = systems[name]
        i, j = rng.sample(range(1, system.rank + 1), 2)
        nq = rng.randrange(0, side + 1)
        Q = _letters(rng, system.rank, nq)
        Qp = _letters(rng, system.rank, side - nq)
        m = int(system.m[i - 1, j - 1])
        window = tuple(i if t % 2 == 0 else j for t in range(m))
        pi = _pi(system, rng, Q + window + Qp, spherical)
        key = (name, Q, Qp, i, j, pi)
        if key not in seen:
            seen.add(key)
            yield name, BraidContext(system, Q, Qp, i, j, pi)


def complex_inputs(systems: dict, seed: int):
    """Distinct (word, pi) pairs, cells (group, word length, pi kind).

    Words have 10 to 15 letters.  The cost of an operation doubles with
    each letter; 16 to 18 letters made single operations take seconds and
    the throughput of a run depend on how many of them the seed drew.
    """
    rng = random.Random(f"complex/{seed}")
    seen = set()
    for name, n, spherical in _cells(rng, COMPLEX_CELLS):
        system, _ = systems[name]
        word = _letters(rng, system.rank, n)
        pi = _pi(system, rng, word, spherical)
        key = (name, word, pi)
        if key not in seen:
            seen.add(key)
            yield name, SubwordDescriptor(system, word, pi)


def order_inputs(systems: dict, seed: int):
    """The two anchors, then A3 w0 inside Q + w + Q' for every pair of
    two-letter words Q and Q', in a seed-shuffled order.  No pair is left
    out: the twelve that fail today with the known TypeError stay in."""
    for name in ORDER_ANCHORS:
        system, w0 = systems[name]
        yield name, (system, (), (), w0)
    system, w0 = systems[ORDER_GROUP]
    pairs = list(ORDER_PAIRS)
    random.Random(f"order/{seed}").shuffle(pairs)
    for q, qp in pairs:
        yield ORDER_GROUP, (system, q, qp, w0)


INPUTS = {"classify": classify_inputs, "complex": complex_inputs, "order": order_inputs}


def dump(obj) -> str:
    """The layout ``coxsub ... --json`` prints."""
    return json.dumps(obj, indent=2, sort_keys=True)


def run_op(workload: str, item):
    """One operation: returns (canonical output text, result to check)."""
    if workload == "classify":
        rep = braid.classify(item)
        return dump(cli.case_report_json(rep)), rep
    if workload == "complex":
        out = subword.complex_json(item)
        return dump(out), out
    system, Q, Qp, pi = item
    p = rhoposet.build_rho(system, Q, Qp, pi)
    return dump(rhoposet.poset_json(p)) + "\n" + rhoposet.export_dot(p), p


def digest(text: str) -> str:
    """First 16 hex digits of the SHA-256 of the output text."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_op(workload: str, item, result) -> str | None:
    """None when the output verifies, else what failed."""
    if workload == "classify":
        return None if cli.report_ok(result) else "report_ok is false"
    if workload == "complex":
        return _check_complex(item, result)
    return _check_order(result)


def _check_complex(d: SubwordDescriptor, out: dict) -> str | None:
    """Every facet's complement is a reduced word of pi, checked with the
    word-level group operations rather than the enumeration kernel."""
    system = d.system
    positions = [int(v) for v in out["vertices"]]
    size = len(d.word) - system.length(d.pi)
    if not out["facets"]:
        return "void complex"
    seen = set()
    for facet in out["facets"]:
        drop = {positions[k] for k in facet}
        if len(drop) != size or frozenset(drop) in seen:
            return f"facet {facet} has the wrong size or repeats"
        seen.add(frozenset(drop))
        rest = [a for p, a in enumerate(d.word, start=1) if p not in drop]
        if not system.is_reduced(rest) or system.element_of(rest) != d.pi:
            return f"complement of facet {facet} is not a reduced word of pi"
    h = out["h_vector"]
    if sum(h) != len(out["facets"]):
        return "h-vector does not sum to the facet count"
    if out["spherical"] and h != h[::-1]:
        return "spherical complex with a non-palindromic h-vector"
    return None


def _check_order(p) -> str | None:
    """Every classified move carries a verified witness and identities."""
    for e in p.edges:
        if e.case is not None and not e.verified:
            return f"move {e.word_a} -> {e.word_b} has an unverified witness"
        if not cli.report_ok(e.report):
            return f"move {e.word_a} -> {e.word_b} fails its identities"
        if e.lower is not None and {e.lower, e.upper} != {e.word_a, e.word_b}:
            return f"move {e.word_a} -> {e.word_b} is oriented between other words"
    return None

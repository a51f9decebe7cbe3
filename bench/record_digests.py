"""Write digests.json: the output digest of each operation at the default seed.

    python3 bench/record_digests.py

The benchmark compares every operation it runs at the default seed, and the
order anchors at every seed, against these digests and counts a mismatch as
a failed operation.  Record them again only for a change that is meant to
alter the output bytes.
"""

from __future__ import annotations

import json
import sys
from itertools import islice

import run

# at least the operations of a timed run at --seconds 30 (2,700, 1,080 and 83)
DIGEST_OPS = {"classify": 3200, "complex": 1400, "order": 83}


def main() -> int:
    workloads = run.import_package()
    out = {}
    for workload, count in DIGEST_OPS.items():
        systems = workloads.make_systems(workloads.WORKLOAD_GROUPS[workload])
        stream = workloads.INPUTS[workload](systems, run.DEFAULT_SEED)
        ledger = run.Ledger(workload, [])
        for k, (_, item) in enumerate(islice(stream, count)):
            run.attempt(workloads, ledger, k, item)
        if ledger.wrong:
            print(f"{workload}: {ledger.wrong[:3]}", file=sys.stderr)
            return 1
        out[workload] = ledger.digests
        print(f"{workload}: {len(ledger.digests)} digests, exceptions {dict(ledger.errors)}")
    lines = [f"  {json.dumps(name)}: {json.dumps(digests)}" for name, digests in out.items()]
    run.DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

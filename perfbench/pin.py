"""Recompute the result digests the benchmark checks against.

    python3 perfbench/pin.py

Every result is computed cold (no shared SeriesCache), so a pin never
depends on cache behaviour.  Rerun only when the benchmark's inputs
change; a changed pin for unchanged inputs means the program's output
changed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from qhuff import vectors, verify  # noqa: E402

import workloads as wl  # noqa: E402

# The ladder is also pinned at the budget its self-test uses.
LADDER_BUDGETS = (wl.LADDER_BUDGET, 1000)


def main():
    pins = {"ladder": {}, "chains": {}, "requests": {}}
    for budget in LADDER_BUDGETS:
        suite = verify.theorem_suite(budget, alpha_t1=wl.ALPHA_T1, alpha_t2=wl.ALPHA_T2)
        pins["ladder"][str(budget)] = {r.claim.claim_id: wl.digest_claim(r)
                                       for r in suite.claims}
    for family, alpha in (("X", wl.X_ALPHA), ("Y", wl.Y_ALPHA)):
        for v in vectors.chain(family, alpha):
            pins["chains"][f"{v.family}{v.alpha}"] = wl.digest_vector(v)
    for key, request in wl.build_catalog().items():
        result = wl.serve(request, verify.SeriesCache())
        pins["requests"][key] = wl.digest_result(request[0], result)
    wl.PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.PINNED}")


if __name__ == "__main__":
    main()

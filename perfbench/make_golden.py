"""Record the reference outputs the benchmark checks against.

    python3 perfbench/make_golden.py

Writes perfbench/golden.json: the digest of the `padicforms slopes` JSON
for every configuration slopes-deep can draw, and the detail lines of
each acceptance criterion.  Run it only on a commit whose outputs are
trusted; the benchmark then holds every later commit to these bytes.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    pf = run.import_package()
    slopes = {}
    for cfg in workloads.all_slope_configs():
        key = workloads.slope_config_key(*cfg)
        try:
            slopes[key] = workloads.slope_report_digest(pf, workloads.run_slopes(pf, cfg))
        except pf.errors.PrecisionError as exc:
            slopes[key] = f"raised {type(exc).__name__}"
        print(key, slopes[key], flush=True)
    acceptance = {}
    for number in range(1, 11):
        # detail lines do not depend on the seed when a criterion passes
        results = [pf.acceptance.run_all(seed, [number])[0] for seed in (0, 1)]
        if not all(r.passed for r in results) or results[0].details != results[1].details:
            print(f"criterion {number} fails or depends on the seed", file=sys.stderr)
            return 1
        acceptance[str(number)] = results[0].details
    with open(workloads.GOLDEN_PATH, "w") as handle:
        json.dump({"slopes-deep": slopes, "acceptance": acceptance}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

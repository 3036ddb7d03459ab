"""Record the reference sha256 of every case in every workload's pool.

    python3 benchmarks/record_digests.py

Each output must pass its subcommand's invariant before it is recorded.  Run
this only at a commit whose outputs are known good: the digests are what
later commits must reproduce byte for byte.
"""

from __future__ import annotations

import json
import sys

from run import HERE, RESULTS, case_command, case_output, run_child
from cases import TINY, WORKLOADS
import checks


def main() -> int:
    RESULTS.mkdir(exist_ok=True)
    digests = {}
    for workload in [*WORKLOADS.values(), TINY]:
        for case in workload.all_cases():
            res = run_child(case_command(case), timeout=600)
            data = case_output(case, res.stdout)
            error = f"exit code {res.code}" if res.code else checks.invariant_error(case, data)
            if error:
                print(f"error: {case.key}: {error}", file=sys.stderr)
                return 1
            digests[case.key] = checks.digest(data)
            print(f"{res.seconds:8.3f} s  {case.key}", flush=True)
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the instance count of every suite check at the suite's defaults.

The ``suite`` workload requires each check's instance count to equal the
recorded one.  Re-record (``python3 bench/record_suite_counts.py``) only when
a change to the suite is meant to change its instances.
"""

from __future__ import annotations

import json

import worker
import workloads


def main() -> None:
    Q = worker.import_library()
    config = Q.oracle.SuiteConfig()
    report = Q.oracle.run_theorem_suite(config)
    if not report.passed:
        raise SystemExit(f"suite fails at seed {config.seed}; not recording")
    counts = {str(config.seed): {c.check: c.instances for c in report.checks}}
    print(f"seed {config.seed}: {sum(counts[str(config.seed)].values())} instances")
    workloads.SUITE_COUNTS.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

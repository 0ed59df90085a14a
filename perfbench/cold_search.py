"""One cold schedule search in a fresh interpreter (``search`` workload).

    python3 perfbench/cold_search.py '{"orders": {"f22": [...], "f44": [...]}, "tiny": false}'

*orders* lists, per tile family, the schedule labels in the order they
are passed as ``candidates=``.  Prints one JSON line: ``setup_s``
(imports and a fresh ``ExecutionContext``), ``peak_rss_mb`` and the
summary of :func:`workloads.cold_search`.  Run by ``run.py``, which sets
the environment.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    request = json.loads(sys.argv[1])
    import workloads

    ctx = workloads.search_context()
    setup_s = time.perf_counter() - T0
    summary, _results = workloads.cold_search(request["orders"], request["tiny"], ctx)
    summary.update(setup_s=setup_s, peak_rss_mb=workloads.peak_rss_mb())
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

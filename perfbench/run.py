"""Run one benchmark workload; print its metrics as one JSON line.

    python3 perfbench/run.py --workload {search,serve} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  ``--trace 0`` prints every end-to-end
metric of ``BENCHMARK.json``; ``--trace 1`` wraps each layer's public
entry points with spans, prints every per-layer metric and writes the
spans to ``perfbench/out/``.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; ``failed`` counts
operations whose output check failed, or that raised or were shed.
The exit code is 0 whenever a result was printed, and 2 when the
repository's source tree is missing.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Settings that would change what is measured: the simulation engine and
#: device, cache sizes, a warm on-disk simulation cache, the process pool.
_SCRUBBED_ENV = (
    "REPRO_SIM_CACHE_DIR", "REPRO_SIM_ENGINE", "REPRO_DEVICE",
    "REPRO_KERNEL_CACHE_SIZE", "REPRO_SIM_CACHE_SIZE", "REPRO_BENCH_WORKERS",
)


def _pin_environment() -> None:
    """Single process, no pool, one BLAS thread: steady on a 2-CPU host."""
    for var in _SCRUBBED_ENV:
        os.environ.pop(var, None)
    os.environ["REPRO_BENCH_PARALLEL"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("search", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every size (self-test only)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None, t0=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter() if t0 is None else t0
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _pin_environment()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from spans import SpanRecorder
    from workloads import WORKLOADS

    recorder = SpanRecorder() if args.trace else None
    try:
        outcome = WORKLOADS[args.workload](
            args.seed, args.seconds, args.tiny, recorder, t0
        )
    finally:
        if recorder is not None:
            recorder.uninstall()

    if args.trace:
        wanted = spec["per_layer"]
        values = {m["name"]: outcome.layer.get(m["name"], 0) for m in wanted}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        recorder.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        wanted = spec["end_to_end"]
        values = {m["name"]: outcome.e2e[m["name"]] for m in wanted}
    notes = " ".join(f"{k}={v}" for k, v in sorted(outcome.notes.items()))
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} {notes}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(t0=T0))

"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Runs every workload at ``--tiny`` size in both modes and checks that:

* the last output line has exactly the four result keys, and every
  metric ``BENCHMARK.json`` names for the mode is printed with its unit;
* each traced workload records the layers it exercises and none it
  should bypass;
* a corrupted program output (serve) or a corrupted baseline
  cycle count (search) is counted as failed;
* ``run.py`` exits non-zero, printing no result, when the checkout holds
  only ``BENCHMARK.json`` and the benchmark's own files.

Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per-layer metrics that must be non-zero / zero on each traced workload.
MOVES = {
    "search": ("sass.assemble.calls", "sass.lint.calls", "kernels.build.calls",
               "gpusim.decode.calls", "gpusim.sim.calls", "gpusim.sim.warp_insts",
               "gpusim.sim.cycles", "sched.evaluations", "sched.lint_gated"),
    "serve": ("convolution.dispatch.calls", "serving.batches", "serving.mean_batch",
              "serving.batch_exec_ms.p50", "serving.latency_tail_ms", "serving.sat_rps",
              "perfmodel.rank.calls", "runtime.session.compile_s", "runtime.arena.peak_bytes")
    + tuple(f"winograd.{layer}.{kind}" for layer in ("S1", "S2")
            for kind in ("self_s", "host_peak_bytes")),
}
STILL = {
    "search": ("convolution.dispatch.calls", "winograd.S1.self_s", "serving.batches"),
    "serve": ("sass.assemble.calls", "gpusim.sim.calls", "sched.evaluations"),
}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run_tiny(workload: str, trace: int) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace), "--tiny"])
    check(code == 0, f"{workload} trace={trace}: exit code 0")
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def check_result(workload: str, trace: int, result: dict) -> None:
    tag = f"{workload} trace={trace}"
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{tag}: correct, nothing failed")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    check([m["name"] for m in wanted] == list(metrics), f"{tag}: every metric named")
    check(all(metrics[m["name"]]["unit"] == m["unit"] for m in wanted), f"{tag}: units")
    check(all(isinstance(v["value"], (int, float)) for v in metrics.values()),
          f"{tag}: numeric values")
    if trace:
        check(all(metrics[name]["value"] > 0 for name in MOVES[workload]),
              f"{tag}: exercised layers recorded")
        check(all(metrics[name]["value"] == 0 for name in STILL[workload]),
              f"{tag}: bypassed layers untouched")
        check(metrics["sass.lint.errors"]["value"] == 0, f"{tag}: no lint errors")
    else:
        check(all(v["value"] > 0 for v in metrics.values()), f"{tag}: metrics non-zero")


@contextlib.contextmanager
def patched(owner, attr, value):
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def corrupted_session_run(original):
    def run_and_corrupt(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        result.outputs[-1] = result.outputs[-1] + 1.0
        return result
    return run_and_corrupt


def corrupted_baseline(original):
    def load():
        families = original()
        for family in families.values():
            family["metrics"] = {k: v + 1.0 for k, v in family["metrics"].items()}
        return families
    return load


def main() -> int:
    for workload in ("search", "serve"):
        for trace in (0, 1):
            check_result(workload, trace, run_tiny(workload, trace))

    import workloads
    from repro.runtime.session import InferenceSession

    with patched(InferenceSession, "run", corrupted_session_run(InferenceSession.run)):
        result = run_tiny("serve", 0)
        check(not result["correct"] and result["failed"] > 0,
              "serve: corrupted output counted as failed")
    with patched(workloads, "load_quick_baseline",
                 corrupted_baseline(workloads.load_quick_baseline)):
        result = run_tiny("search", 0)
        check(not result["correct"] and result["failed"] > 0,
              "search: corrupted baseline cycles counted as failed")

    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "bare checkout: non-zero exit, no result printed")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

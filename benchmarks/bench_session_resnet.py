"""End-to-end InferenceSession over the paper's ResNet layers (Table 1).

Plans and runs the four 3×3 ResNet layers through the unified runtime:
one ExecutionContext, one workspace arena shared by every layer, and a
JSON trace of the plan/build/layer spans.

    PYTHONPATH=src python benchmarks/bench_session_resnet.py            # N=32
    PYTHONPATH=src python benchmarks/bench_session_resnet.py --quick    # tiny N
    PYTHONPATH=src python benchmarks/bench_session_resnet.py \
        --trace results/session_resnet_trace.json
    PYTHONPATH=src python benchmarks/bench_session_resnet.py \
        --before old_results.txt     # adds a per-layer before/after table

``--quick`` shrinks the batch so the CI smoke job finishes in seconds;
the layer stack, selection mode and trace structure are identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from harness import RESULTS_DIR, emit, format_table

from repro.common.rng import make_rng, random_activation, random_filter
from repro.models import resnet_layer
from repro.runtime import ExecutionContext, InferenceSession

LAYERS = ("Conv2", "Conv3", "Conv4", "Conv5")


def run_session(batch: int, mode: str = "AUTO_HEURISTIC", pipeline: bool = False):
    """Run the four-layer stack; returns (result, plans, context)."""
    problems = [resnet_layer(name, batch) for name in LAYERS]
    ctx = ExecutionContext()
    session = InferenceSession(problems, mode=mode, context=ctx)
    rng = make_rng(0)
    inputs = [random_activation(p, rng) for p in problems]
    filters = [random_filter(p, rng) for p in problems]
    result = session.run(inputs, filters, pipeline=pipeline)
    return result, session.plans, ctx


def session_table(result, plans) -> str:
    rows = [
        (run.layer, run.algo, ",".join(plan.fallbacks) or "-",
         run.workspace_bytes / (1 << 20), run.seconds * 1e3)
        for run, plan in zip(result.layers, plans)
    ]
    a = result.arena
    table = format_table(
        ["layer", "algo", "fallbacks", "workspace MB", "ms"], rows,
        title="InferenceSession: ResNet 3x3 layers",
    )
    return (
        f"{table}\n"
        f"end-to-end: {result.total_seconds * 1e3:.3f} ms over "
        f"{len(result.layers)} layers"
        f"{' (pipelined)' if result.pipelined else ''}\n"
        f"arena: peak {a.peak_bytes / (1 << 20):.3f} MB, "
        f"{a.reserves} reserves, {a.reuses} reuses, {a.grows} grows"
    )


def read_layer_ms(path: str) -> dict[str, float]:
    """Per-layer ms from the session table of an earlier results file."""
    before: dict[str, float] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            cells = [cell.strip() for cell in line.split("|")]
            if len(cells) == 5 and cells[0] not in before:
                try:
                    before[cells[0]] = float(cells[4])
                except ValueError:  # header / separator rows
                    continue
    return before


def before_after_table(before: dict[str, float], result) -> str:
    rows = [
        (run.layer, before[run.layer], run.seconds * 1e3,
         before[run.layer] / (run.seconds * 1e3))
        for run in result.layers if run.layer in before
    ]
    total_before = sum(row[1] for row in rows)
    total_after = sum(row[2] for row in rows)
    rows.append(("total", total_before, total_after, total_before / total_after))
    return format_table(
        ["layer", "before ms", "after ms", "speedup"], rows,
        title="Per-layer host time, before vs after",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="tiny batch for CI smoke runs")
    parser.add_argument("--batch", type=int, default=None,
                        help="batch size N (default: 32, or 2 with --quick)")
    parser.add_argument("--mode", default="AUTO_HEURISTIC",
                        help="session mode (default: AUTO_HEURISTIC)")
    parser.add_argument("--pipeline", action="store_true",
                        help="fan layers out over the process pool")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="trace JSON path (default: "
                             "results/session_resnet_trace.json)")
    parser.add_argument("--before", metavar="PATH", default=None,
                        help="an earlier results file of this bench: adds a "
                             "per-layer before/after table")
    args = parser.parse_args(argv)
    batch = args.batch or (2 if args.quick else 32)
    # Read first: the earlier file may be the one this run overwrites.
    before = read_layer_ms(args.before) if args.before else None

    result, plans, ctx = run_session(batch, mode=args.mode,
                                     pipeline=args.pipeline)
    text = session_table(result, plans)
    if before:
        text += "\n\n" + before_after_table(before, result)
    emit(f"Session: ResNet layers N={batch}", text)

    trace_path = args.trace or os.path.join(
        RESULTS_DIR, "session_resnet_trace.json"
    )
    os.makedirs(os.path.dirname(trace_path) or ".", exist_ok=True)
    payload = {
        "batch": batch,
        "mode": args.mode,
        "session": result.to_dict(),
        "spans": ctx.export_trace(),
    }
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {trace_path} ({len(payload['spans'])} spans)")
    return 0


def test_session_resnet_quick(benchmark):
    result, plans, _ = benchmark.pedantic(
        lambda: run_session(2), rounds=1, iterations=1
    )
    assert len(result.layers) == len(LAYERS)
    assert result.arena.peak_bytes == max(p.workspace_bytes for p in plans)


if __name__ == "__main__":
    sys.exit(main())

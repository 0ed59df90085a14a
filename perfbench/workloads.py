"""The benchmark's two workloads.

Each ``run_<name>(seed, seconds, tiny, recorder, t0)`` builds its inputs
from *seed*, sets up, measures for about *seconds* seconds, checks every
output it measured and returns an :class:`Outcome`.  *recorder* is a
:class:`spans.SpanRecorder` in a traced run and ``None`` otherwise;
*t0* is ``time.perf_counter()`` at process start, so ``setup_s``
includes the imports.  ``tiny`` shrinks every size for the self-test.

* ``search`` — cold schedule searches on RTX2070 (f22 + f44) over four
  ``QUICK_SPACE`` schedules, repeated, each in a fresh interpreter: the
  tooling pipeline (sass, sass.analysis, kernels, gpusim, sched).
* ``serve`` — open-loop Poisson traffic into a ``ServingFrontend``: the
  serving pipeline (serving, runtime, perfmodel, convolution and the host
  Winograd executors) doing many small calls behind queueing and batching.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spans import covered_seconds, per_call_overhead_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEVICE = "RTX2070"
FAMILIES = ("f22", "f44")
#: The searched schedules: four of the twelve in ``QUICK_SPACE``, one
#: row each of a Latin square over yield strategy, LDG and STS
#: interleave, holding the quick profile's f22 and f44 winners.  Four
#: keep a real halving (rung 1 re-measures two) while a cold f22+f44
#: search stays short enough to repeat within a run: the whole space
#: takes 22-37 s, one sample per run, whose spread no bound could hold.
SEARCH_CANDIDATES = (
    "yield=natural/ldg8/sts6/db2",
    "yield=natural/ldg8/sts2/db2",
    "yield=nvcc8/ldg2/sts6/db2",
    "yield=cudnn7/ldg2/sts2/db2",
)
BASELINE = ROOT / "benchmarks" / "baselines" / "sched_rtx2070.json"
#: Setups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

SERVE_TENANT, SERVE_MODEL = "bench", "two-layer"
SERVE_MAX_BATCH = 16
SERVE_POOL = 32
#: Fixed-rate traffic: about a seventh of the frontend's capacity on a
#: shared 2-vCPU Xeon host (~140 req/s at batch 16), for 70% of the run.
#: Host speed on a shared machine drifts by ±25%, and nearer capacity
#: queueing amplifies that drift until the median swings between runs.
SERVE_FIXED_RPS = 20.0
SERVE_FIXED_SHARE = 0.7
#: Overload traffic: bursts at several times capacity, each small enough
#: that the queue stays under its 1024-request admission bound.
SERVE_OVERLOAD_RPS = 640.0
SERVE_OVERLOAD_REQUESTS = 1600
SERVE_BLOCKS = 8


@dataclasses.dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    e2e: dict = dataclasses.field(default_factory=dict)
    layer: dict = dataclasses.field(default_factory=dict)
    notes: dict = dataclasses.field(default_factory=dict)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def model_tflops(problems, device, algo: str) -> float:
    """Modeled device TFLOPS of *problems* run with *algo* (perfmodel)."""
    from repro.perfmodel.selection import predicted_time

    flops = sum(p.direct_flops for p in problems)
    return flops / sum(predicted_time(p, device, algo) for p in problems) / 1e12


def _span_totals(out: Outcome, recorder, first: int, wall: float) -> None:
    """Per-span call counts and self times, plus the tracing overhead.

    Counts and self times cover the whole traced run.  The overhead and
    attribution ratios cover ``spans[first:]``, the measured window of
    *wall* seconds: the overhead from the measured per-call cost of a
    wrapper times the spans recorded, the attribution as the share of
    the window that some span covers (on a serial workload, the share
    that the layers' self times add up to).
    """
    for name, (calls, self_s) in recorder.totals().items():
        out.layer[f"{name}.calls"] = calls
        out.layer[f"{name}.self_s"] = self_s
    # Sessions compile lazily inside run() too; the calls that planned
    # (ranked at least one layer) are the real compiles.
    planned = {parent for _, name, _, _, parent in recorder.spans
               if name == "perfmodel.rank"}
    compiles = [end - start for sid, name, start, end, _ in recorder.spans
                if name == "runtime.session.compile" and sid in planned]
    if compiles:
        out.layer["runtime.session.compile_s"] = statistics.median(compiles)
    window = recorder.spans[first:]
    traced_cost = len(window) * per_call_overhead_s()
    out.layer["trace.overhead_ratio"] = wall / max(wall - traced_cost, 1e-9)
    covered = covered_seconds((start, end) for _, _, start, end, _ in window)
    out.layer["trace.attributed_ratio"] = covered / wall


def tail(samples) -> float:
    """The highest percentile with ten samples beyond it (the maximum of
    fewer than eleven samples)."""
    ordered = sorted(samples)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def _within(out: np.ndarray, ref: np.ndarray, tol: float) -> bool:
    return out.shape == ref.shape and float(np.max(np.abs(out - ref))) <= tol


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------
def load_quick_baseline() -> dict:
    """The checked-in quick-profile families of the RTX2070 perf baseline."""
    return json.loads(BASELINE.read_text())["profiles"]["quick"]["families"]


def search_context():
    """A fresh ExecutionContext: empty build and simulation caches and lint gate."""
    from repro.gpusim.arch import DEVICES
    from repro.runtime import ExecutionContext

    return ExecutionContext(device=DEVICES[DEVICE])


def cold_search(orders: dict, tiny: bool, ctx) -> tuple[dict, dict]:
    """Search every tile family over *orders* on *ctx*, which must be fresh.

    Returns the summary (host seconds of the whole search and, per family,
    the winner, its simulated TFLOPS and every rung-0 ``cycles_per_iter``)
    and the :class:`SearchResult` of each family.
    """
    import repro.sched as sched

    by_label = {c.label(): c for c in sched.QUICK_SPACE.candidates()}
    budget = sched.SearchBudget(max_rungs=1 if tiny else 2)
    start = time.perf_counter()
    results = {
        tile: sched.successive_halving(
            device=ctx.device, budget=budget, context=ctx, tile=tile,
            candidates=[by_label[label] for label in orders[tile]],
        )
        for tile in FAMILIES
    }
    search_s = time.perf_counter() - start
    families = {
        tile: {
            "winner": result.best.schedule.label(),
            "tflops": result.best.tflops,
            "rung0": {s.schedule.label(): s.cycles_per_iter for s in result.rungs[0]},
        }
        for tile, result in results.items()
    }
    return {"search_s": search_s, "families": families}, results


def _child_search(orders: dict, tiny: bool) -> dict:
    """:func:`cold_search` in a fresh interpreter (``cold_search.py``)."""
    request = json.dumps({"orders": orders, "tiny": tiny})
    proc = subprocess.run(
        [sys.executable, str(HERE / "cold_search.py"), request],
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cold_search.py exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_search(out: Outcome, families: dict, baseline: dict, tiny: bool) -> None:
    """Simulated cycles are deterministic: every rung-0 score and (at full
    size) each winner must equal the checked-in quick baseline."""
    for tile, family in families.items():
        expected = baseline[tile]
        if not tiny:
            out.attempted += 1
            out.failed += family["winner"] != expected["winner"]
        for label, cycles in family["rung0"].items():
            out.attempted += 1
            want = expected["metrics"].get(label)
            out.failed += want is None or cycles != want


def run_search(seed: int, seconds: int, tiny: bool, recorder, t0: float) -> Outcome:
    import_s = time.perf_counter() - t0
    out = Outcome()
    counts = {"sass.lint.errors": 0, "gpusim.sim.warp_insts": 0, "gpusim.sim.cycles": 0}
    if recorder is not None:
        from repro.sass.analysis import count_by_severity

        def on_lint(diagnostics, _args, _seconds):
            counts["sass.lint.errors"] += count_by_severity(diagnostics)["error"]

        def on_sim(counters, _args, _seconds):
            counts["gpusim.sim.warp_insts"] += counters.instructions
            counts["gpusim.sim.cycles"] += counters.cycles

        recorder.on_result.update({"sass.lint": on_lint, "gpusim.sim": on_sim})
        recorder.install()

    baseline = load_quick_baseline()
    rng = np.random.default_rng(seed)
    labels = SEARCH_CANDIDATES[:2] if tiny else SEARCH_CANDIDATES
    first = len(recorder.spans) if recorder is not None else 0

    # Cold searches back to back while the next one, taking as long as
    # the mean so far, would end less than half a search past the run.
    # Untraced, each runs in a fresh interpreter, so that no memo of the
    # program outlives a search; traced, in this process.
    samples, walls = [], []
    loop_start = time.perf_counter()
    while (not samples or time.perf_counter() - loop_start
           + statistics.fmean(walls) / 2 <= seconds):
        orders = {
            tile: [labels[i] for i in rng.permutation(len(labels))]
            for tile in FAMILIES
        }
        start = time.perf_counter()
        if recorder is None:
            summary = _child_search(orders, tiny)
        else:
            ctx = search_context()
            setup_s = import_s + time.perf_counter() - start
            summary, results = cold_search(orders, tiny, ctx)
            summary.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb())
        walls.append(time.perf_counter() - start)
        _check_search(out, summary["families"], baseline, tiny)
        samples.append(summary)

    families = samples[0]["families"]
    for tile in FAMILIES:
        out.notes[f"winner.{tile}"] = families[tile]["winner"]
    search_times = [s["search_s"] for s in samples]
    out.notes["search_s"] = ",".join(f"{t:.2f}" for t in search_times)
    out.e2e.update({
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "peak_rss_mb": max(s["peak_rss_mb"] for s in samples),
        "latency_p50_ms": statistics.median(search_times) * 1e3,
        "model_tflops.f22": families["f22"]["tflops"],
        "model_tflops.f44": families["f44"]["tflops"],
    })

    if recorder is not None:
        from repro.kernels.cache import get_kernel_cache_stats, get_sim_cache_stats

        # Per search: every search does the same work.
        _span_totals(out, recorder, first, sum(search_times))
        for key in list(out.layer):
            if key.endswith((".calls", ".self_s")):
                out.layer[key] /= len(samples)
        out.layer.update({name: n / len(samples) for name, n in counts.items()})
        if counts["gpusim.sim.warp_insts"]:
            out.layer["gpusim.sim.ns_per_warp_inst"] = (
                out.layer["gpusim.sim.self_s"] * 1e9 / out.layer["gpusim.sim.warp_insts"]
            )
        out.layer["sched.evaluations"] = sum(r.evaluations for r in results.values())
        out.layer["sched.lint_gated"] = sum(r.lint_gated for r in results.values())
        out.layer["kernels.build_cache.hit_ratio"] = get_kernel_cache_stats(ctx).hit_rate
        out.layer["kernels.sim_cache.hit_ratio"] = get_sim_cache_stats(ctx).hit_rate
    return out


def _layer_host_peaks(out: Outcome, conv2d, layers, plans, inputs, filters) -> None:
    """tracemalloc peak of each layer's planned conv2d call, output included."""
    import tracemalloc

    tracemalloc.start()
    try:
        for layer, plan, x, f in zip(layers, plans, inputs, filters):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            y = conv2d(x, f, pad=plan.prob.pad, stride=plan.prob.stride, algo=plan.algo)
            out.layer[f"winograd.{layer}.host_peak_bytes"] = (
                tracemalloc.get_traced_memory()[1] - base
            )
            del y
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class Phase:
    """One kind of traffic, pooled over the run's blocks."""

    latencies: list = dataclasses.field(default_factory=list)
    late: list = dataclasses.field(default_factory=list)
    requests: int = 0
    failed: int = 0
    #: Summed over segments: first due time to last completion.
    busy_s: float = 0.0


def serve_problems():
    from repro.common import ConvProblem

    return (
        ConvProblem(n=1, c=16, h=28, w=28, k=16, r=3, s=3, pad=1, name="S1"),
        ConvProblem(n=1, c=32, h=14, w=14, k=32, r=3, s=3, pad=1, name="S2"),
    )


def poisson_offsets(rng, rate: float, count: int) -> np.ndarray:
    """Due times (seconds from segment start) of a Poisson arrival process."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


async def _open_loop(frontend, pool, refs, tols, offsets, picks, phase: Phase) -> None:
    """Send each request at its due time, whether or not earlier ones finished.

    Returns once every request of the segment has completed.
    """
    from repro.common.errors import ReproError

    loop = asyncio.get_running_loop()
    start = loop.time()
    last_done = start

    async def one(idx: int, due: float) -> None:
        nonlocal last_done
        try:
            outs = await frontend.submit(SERVE_TENANT, SERVE_MODEL, pool[idx])
        except ReproError:
            phase.failed += 1
            return
        now = loop.time()
        last_done = max(last_done, now)
        phase.latencies.append(now - due)
        if not all(_within(y, r, t) for y, r, t in zip(outs, refs[idx], tols)):
            phase.failed += 1

    tasks = []
    for offset, idx in zip(offsets, picks):
        due = start + float(offset)
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        phase.late.append(loop.time() - due)
        tasks.append(asyncio.ensure_future(one(int(idx), due)))
    await asyncio.gather(*tasks)
    phase.requests += len(offsets)
    phase.busy_s += last_done - start


async def _serve_main(seed, seconds, tiny, recorder, out: Outcome, import_s: float):
    from repro.common.rng import conv_tolerance, random_filter
    from repro.convolution import conv2d
    from repro.serving import ModelSpec, ServingConfig, ServingFrontend

    problems = serve_problems()
    rng = np.random.default_rng(seed)
    filters = tuple(random_filter(p, rng) for p in problems)
    pool = [
        [(rng.random((p.c, p.h, p.w), dtype=np.float32) * 2 - 1) for p in problems]
        for _ in range(SERVE_POOL)
    ]
    refs = [
        [conv2d(x[np.newaxis], f, pad=p.pad, algo="GEMM")[0]
         for p, x, f in zip(problems, image, filters)]
        for image in pool
    ]
    tols = [conv_tolerance(p) for p in problems]
    # Both kinds of traffic alternate in blocks, so that each statistic
    # samples the whole run rather than one stretch of it.
    blocks = 1 if tiny else SERVE_BLOCKS
    fixed_n = max(1, round(SERVE_FIXED_RPS * SERVE_FIXED_SHARE * seconds / blocks))
    over_n = max(1, min(SERVE_OVERLOAD_REQUESTS, 55 * seconds) // blocks)
    segments = [
        (poisson_offsets(rng, rate, n), rng.integers(0, SERVE_POOL, n), kind)
        for _ in range(blocks)
        for rate, n, kind in ((SERVE_FIXED_RPS, fixed_n, "fixed"),
                              (SERVE_OVERLOAD_RPS, over_n, "overload"))
    ]
    model = ModelSpec(name=SERVE_MODEL, problems=problems, filters=filters)
    config = ServingConfig(
        max_batch=4 if tiny else SERVE_MAX_BATCH,
        max_queue_delay_s=0.002, dispatch_workers=1,
    )

    batches: list[tuple[int, float]] = []
    sessions = {}
    if recorder is not None:
        def on_run(_result, args, seconds_):
            session, inputs = args[0], args[1]
            batches.append((inputs[0].shape[0], seconds_))
            sessions[inputs[0].shape[0]] = session

        recorder.on_result["runtime.session.run"] = on_run
        recorder.install()

    # Set-up: start a frontend, register the model and compile + warm one
    # session per batch size with a burst of that size.
    prep = []
    frontend = None
    for _ in range(SETUP_REPEATS):
        if frontend is not None:
            await frontend.close()
        start = time.perf_counter()
        frontend = ServingFrontend(config, device=DEVICE)
        frontend.register_model(SERVE_TENANT, model)
        for size in range(1, config.max_batch + 1):
            await asyncio.gather(*(
                frontend.submit(SERVE_TENANT, SERVE_MODEL, pool[i % SERVE_POOL])
                for i in range(size)
            ))
        prep.append(time.perf_counter() - start)

    try:
        before = frontend.metrics.snapshot()
        first = len(recorder.spans) if recorder is not None else 0
        batches.clear()
        steady, burst = Phase(), Phase()
        start = time.perf_counter()
        for offsets, picks, kind in segments:
            await _open_loop(frontend, pool, refs, tols, offsets, picks,
                             steady if kind == "fixed" else burst)
        wall = time.perf_counter() - start
        after = frontend.metrics.snapshot()
        stats = frontend.stats()
    finally:
        await frontend.close()

    out.attempted = steady.requests + burst.requests
    out.failed = steady.failed + burst.failed
    out.notes["fixed_requests"] = steady.requests
    out.notes["overload_requests"] = burst.requests
    out.e2e.update({
        "setup_s": import_s + statistics.median(prep),
        "peak_rss_mb": peak_rss_mb(),
        "latency_p50_ms": float(np.percentile(steady.latencies, 50)) * 1e3,
        "model_tflops.f22": model_tflops(
            [p.with_batch(config.max_batch) for p in problems], frontend.device, "WINOGRAD"),
        "model_tflops.f44": model_tflops(
            [p.with_batch(config.max_batch) for p in problems], frontend.device, "WINOGRAD_F44"),
    })

    if recorder is not None:
        _span_totals(out, recorder, first, wall)
        requests = steady.latencies + burst.latencies
        exec_weighted = sum(size * secs for size, secs in batches)
        n_batches = after.batches - before.batches
        out.layer.update({
            "serving.batches": n_batches,
            "serving.mean_batch": (after.batched_requests - before.batched_requests)
            / max(n_batches, 1),
            "serving.batch_exec_ms.p50": statistics.median(s for _, s in batches) * 1e3,
            "serving.wait_ms_per_req": (sum(requests) - exec_weighted)
            / max(len(requests), 1) * 1e3,
            "serving.deadline_overshoots": after.deadline_overshoots - before.deadline_overshoots,
            "serving.shed": after.requests_rejected - before.requests_rejected,
            "serving.latency_tail_ms": tail(steady.latencies) * 1e3,
            "serving.sat_rps": len(burst.latencies) / max(burst.busy_s, 1e-9),
            "loadgen.late_ms.p99": float(np.percentile(steady.late + burst.late, 99)) * 1e3,
        })
        tenant = stats["tenants"][SERVE_TENANT]
        dispatch = tenant["dispatch"]
        lookups = dispatch["cache_hits"] + dispatch["cache_misses"]
        out.layer["convolution.plan_cache.hit_ratio"] = (
            dispatch["cache_hits"] / lookups if lookups else 0.0
        )
        for key in ("peak_bytes", "reuses", "grows"):
            out.layer[f"runtime.arena.{key}"] = tenant["arena"][key]
        layers = [p.name for p in problems]
        _layer_self_times(out, recorder, first, layers)
        recorder.uninstall()
        # Host memory of each layer at the largest batch, next to the arena.
        size = max(sessions)
        images = [np.stack([pool[i % SERVE_POOL][layer] for i in range(size)])
                  for layer in range(len(problems))]
        _layer_host_peaks(out, conv2d, layers, sessions[size].plans, images, filters)


def _layer_self_times(out: Outcome, recorder, first: int, layers) -> None:
    """Median self time of each layer's conv2d call within a batch run."""
    spans = recorder.spans[first:]
    selfs = recorder.self_times()
    runs = {sid for sid, name, *_ in spans if name == "runtime.session.run"}
    children: dict[int, list[tuple[float, int]]] = {}
    for sid, name, start, _end, parent in spans:
        if name == "convolution.dispatch" and parent in runs:
            children.setdefault(parent, []).append((start, sid))
    per_layer: dict[str, list[float]] = {layer: [] for layer in layers}
    for convs in children.values():
        for layer, (_start, sid) in zip(layers, sorted(convs)):
            per_layer[layer].append(selfs[sid])
    for layer, samples in per_layer.items():
        out.layer[f"winograd.{layer}.self_s"] = statistics.median(samples)


def run_serve(seed: int, seconds: int, tiny: bool, recorder, t0: float) -> Outcome:
    import repro.serving  # noqa: F401 - counted in set-up

    import_s = time.perf_counter() - t0
    out = Outcome()
    asyncio.run(_serve_main(seed, seconds, tiny, recorder, out, import_s))
    return out


WORKLOADS = {"search": run_search, "serve": run_serve}

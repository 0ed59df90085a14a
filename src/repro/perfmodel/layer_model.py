"""Whole-layer performance of the generated kernels, from the simulator.

The one fused-layer cost model: the figures, Table 6 and the serving
fleet's placement bids all come from :func:`our_layer_performance`.

A full ResNet layer runs billions of lane-FFMAs — far too many to
simulate instruction by instruction in Python — so the layer model does
what one does on real hardware with a single-SM microbenchmark:

1. measure the **steady-state main-loop cycles per bc-iteration** on one
   simulated SM (differential measurement, see ``kernels.runner``);
2. measure the **per-block overhead** (prologue + first staging +
   output transform) by simulating the *full* kernel on a surrogate
   problem and subtracting the main-loop portion;
3. extrapolate: ``time = waves × (overhead + iters × cycles/iter) / clock``
   with ``waves = ⌈blocks / (SMs · occupancy)⌉`` — which also captures
   the small-batch tail effect behind the Conv4N32/Conv5N32 SOL dips in
   Figs. 10-11.

Per-block work is layer-independent at fixed (tile family, tunables) —
layers only change the iteration count (C/bc), the grid size and the
tail — so the two measurements are cached per (device, tile, tunables)
and reused for all 16 layers.  Both families are measured on the same
surrogate the schedule search scores candidates on, so costing a
searched winner reuses the search's rung-0 simulations.
"""

from __future__ import annotations

import dataclasses
import math

from ..common.errors import ModelError, SimLaunchError
from ..common.problem import ConvProblem
from ..gpusim.arch import DeviceSpec
from ..kernels.cache import build_fused_kernel, sim_cache_key, simulation_cache
from ..kernels.runner import (
    MainLoopMeasurement,
    _main_loop_arena,
    _simulate_main_loop,
    measure_main_loop,
)
from ..kernels.winograd_fused import (
    THREADS,
    Tunables,
    default_tunables,
    kernel_for_tile,
)
from ..winograd.tilespec import TileSpec, get_tile

_SURROGATE = ConvProblem(n=32, c=32, h=16, w=16, k=64, name="surrogate")

_cache: dict = {}


def prime_measurement_cache(
    device_name: str,
    tile: str,
    tunables: Tunables,
    main: MainLoopMeasurement,
    overhead: float,
    overhead_fma: float,
) -> None:
    """Seed the per-(device, tile, tunables) measurement memo.

    Used by the parallel benchmark harness to install measurements that
    were computed in worker processes, so the parent never re-simulates.
    """
    _cache[(device_name, tile, tunables)] = (main, overhead, overhead_fma)


@dataclasses.dataclass
class LayerPerformance:
    """Predicted whole-layer execution of the fused kernel."""

    prob: ConvProblem
    device_name: str
    blocks: int
    occupancy: int
    waves: int
    iters: int
    cycles_per_iter: float
    overhead_cycles: float
    time_s: float
    tflops_effective: float  # direct-conv flops / time (Fig. 12-13 basis)
    sol_main_loop: float
    sol_total: float


def _measurements(
    device: DeviceSpec, spec: TileSpec, tunables: Tunables
) -> tuple[MainLoopMeasurement, float, float]:
    """(main-loop measurement, overhead cycles, overhead fma-busy) cached."""
    key = (device.name, spec.name, tunables)
    if key in _cache:
        return _cache[key]
    surrogate = _SURROGATE
    if tunables.bk != spec.bk:  # f22 at bk=32
        surrogate = dataclasses.replace(surrogate, k=tunables.bk)
    main = measure_main_loop(surrogate, device, tunables, iters=3, tile=spec)
    # Full kernel (with OTF epilogue) at the same iteration count → the
    # difference is prologue + staging + epilogue ("overhead").
    full = _simulate_full_kernel(surrogate, device, tunables, 3, spec)
    main_only = _simulate_main_loop(surrogate, device, tunables, 3, None, tile=spec)
    overhead = max(
        0.0, full.counters.cycles - main_only.counters.cycles
    ) + (main_only.counters.cycles - 3 * main.cycles_per_iter)
    overhead_fma_busy = max(
        0, full.counters.fma_pipe_busy - main_only.counters.fma_pipe_busy
    )
    result = (main, overhead, float(overhead_fma_busy))
    _cache[key] = result
    return result


def _simulate_full_kernel(prob, device, tunables, iters, spec):
    """Resident-blocks run of the *full* kernel (with epilogue), memoized
    in the simulation cache and laid out in the same buffer image as the
    main-loop-only runs."""
    from ..gpusim.launch import LaunchResult, simulate_resident_blocks

    cache = simulation_cache()
    key = sim_cache_key(
        "layer_overhead_full",
        prob=prob, device=device, tunables=tunables, iters=iters,
        tile=spec.name,
    )
    payload = cache.get(key)
    if payload is not None:
        return LaunchResult.from_payload(payload)
    kernel_full = build_fused_kernel(
        prob, tunables, device.name, main_loop_only=False, iters=iters,
        tile=spec,
    )
    gmem, params = _main_loop_arena(prob, spec)
    result = simulate_resident_blocks(
        kernel_full, device, params=params, gmem=gmem,
        threads_per_block=THREADS,
    )
    cache.put(key, result.to_payload())
    return result


def our_layer_performance(
    prob: ConvProblem,
    device: DeviceSpec,
    tunables: Tunables | None = None,
    tile=None,
) -> LayerPerformance:
    """Predict the *tile* family's fused kernel over a full layer on *device*.

    Raises :class:`~repro.common.errors.ModelError` when the kernel's
    registers or shared memory leave no block resident on *device*.
    """
    spec = get_tile(tile)
    tunables = tunables or default_tunables(spec)
    gen = kernel_for_tile(prob, spec, tunables)
    blocks = gen.grid[0] * gen.grid[1]
    # The header metadata (registers, smem) is layer-independent and
    # known without assembling — identical to kernel.meta by construction.
    try:
        occupancy = device.occupancy(THREADS, gen.num_regs, gen.launch_smem_bytes)
    except SimLaunchError:
        occupancy = 0
    if occupancy < 1:
        raise ModelError(
            f"{spec.name} kernel ({gen.num_regs} registers, "
            f"{gen.launch_smem_bytes} B smem/block) cannot be resident "
            f"on {device.name}"
        )
    main, overhead, overhead_fma = _measurements(device, spec, tunables)
    iters = prob.c // spec.bc
    block_cycles = overhead + iters * main.cycles_per_iter
    waves = math.ceil(blocks / (device.num_sms * occupancy))
    time_s = waves * block_cycles / (device.clock_ghz * 1e9)
    tflops = prob.direct_flops / time_s / 1e12

    # SOL: fma-busy over issue capacity; the tail wave dilutes it by the
    # grid utilization (empty SMs issue nothing but the clock runs).
    util = blocks / (waves * device.num_sms * occupancy)
    main_busy = main.sol * device.schedulers_per_sm * main.cycles_per_iter * iters
    total_busy = main_busy + overhead_fma
    sol_total = total_busy / (block_cycles * device.schedulers_per_sm) * util
    return LayerPerformance(
        prob=prob,
        device_name=device.name,
        blocks=blocks,
        occupancy=occupancy,
        waves=waves,
        iters=iters,
        cycles_per_iter=main.cycles_per_iter,
        overhead_cycles=overhead,
        time_s=time_s,
        tflops_effective=tflops,
        sol_main_loop=main.sol * util,
        sol_total=sol_total,
    )


def clear_cache() -> None:
    _cache.clear()

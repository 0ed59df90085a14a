"""Cycle-level SM simulation: warp schedulers, pipes, scoreboards.

The model (per the Volta/Turing references the paper builds on):

* one SM = 4 scheduler partitions; each issues ≤1 instruction/cycle from
  its resident warps (warp *w* lives on partition ``w % 4``);
* each partition owns a 16-lane FP32 pipe and an INT pipe — a 32-thread
  warp instruction occupies its pipe for 2 cycles (+1 on a register-bank
  conflict, §5.2.2);
* the LSU (global) and MIO (shared/S2R/MUFU) pipes are shared per SM; a
  conflict-free ``LDS.128`` costs 4 MIO cycles (4 phases, §4.3), an
  n-way bank conflict adds n−1 cycles per phase;
* DRAM bandwidth is a per-SM fair share consumed in 32-byte sectors;
* the **yield flag** steers warp selection exactly as §5.1.4/§6.1
  describe: while the last-issued instruction's flag says "stay", the
  scheduler keeps issuing from the same warp; a switch (requested by the
  flag or forced by a stall) costs one extra issue cycle and clears the
  reuse cache;
* the six scoreboard barriers gate variable-latency results; stall
  counts delay the issuing warp.

Multiple thread blocks can be resident at once (the §7.1 occupancy
argument: V100 fits two 48 KB-smem blocks per SM, Turing only one) —
their warps interleave on the same schedulers but own separate shared
memory and CTA barriers.
"""

from __future__ import annotations

import dataclasses
import heapq
import os

import numpy as np

from ..common.errors import SimDeadlock
from ..sass.control import NO_BARRIER
from ..sass.instruction import Instruction
from .arch import DeviceSpec
from .counters import Counters
from .engine import ExecutionContext, execute
from .memory import SECTOR_BYTES, GlobalMemory, SharedMemory
from .warp import WarpState

MAX_CYCLES = 100_000_000


@dataclasses.dataclass
class BlockSpec:
    """One thread block to make resident on the simulated SM."""

    block_idx: int  # blockIdx.x
    num_warps: int
    const_bank: np.ndarray  # uint8, constant bank 0 image (params at 0x160)
    smem_bytes: int
    block_idx_y: int = 0
    block_idx_z: int = 0


class _Scheduler:
    __slots__ = ("warps", "preferred", "last_issued", "next_free", "rr", "charged")

    def __init__(self):
        self.warps: list[int] = []
        self.preferred: int | None = None
        self.last_issued: int | None = None
        self.next_free = 0
        self.rr = 0
        self.charged = False  # the one-cycle switch bubble was paid


class SMSimulator:
    """Runs a program's warps to completion and collects counters."""

    def __init__(
        self,
        device: DeviceSpec,
        program: list[Instruction],
        gmem: GlobalMemory,
    ):
        self.device = device
        self.program = program
        self.gmem = gmem
        self.counters = Counters()

    # ------------------------------------------------------------------
    def run(self, blocks: list[BlockSpec]) -> Counters:
        return self._run(blocks, timing_only=False)

    def _run(self, blocks: list[BlockSpec], timing_only: bool) -> Counters:
        """Run *blocks*; a timing study (``timing_only``, chosen by the
        launch API) leaves global memory contents unspecified."""
        if os.environ.get("REPRO_SIM_ENGINE", "fast") != "reference":
            from .fastsim import fast_run

            self.counters = fast_run(
                self.device, self.program, self.gmem, blocks,
                timing_only=timing_only,
            )
            return self.counters
        return self._run_reference(blocks)

    def _run_reference(self, blocks: list[BlockSpec]) -> Counters:
        """The original interleaved execute+schedule loop.

        Kept as the semantic oracle: the fast engine's timing loop is a
        port of this function, and the cycle-equivalence tests compare
        the two counter-for-counter (``REPRO_SIM_ENGINE=reference``
        selects it at runtime).
        """
        device = self.device
        program = self.program
        counters = self.counters

        warps: list[WarpState] = []
        contexts: list[ExecutionContext] = []
        block_of: list[int] = []
        bar_needed: list[int] = []
        for b_pos, block in enumerate(blocks):
            smem = SharedMemory(max(block.smem_bytes, 16))
            ctx = ExecutionContext(
                self.gmem, smem, block.const_bank, block.block_idx, device,
                block_idx_y=block.block_idx_y, block_idx_z=block.block_idx_z,
            )
            contexts.append(ctx)
            bar_needed.append(block.num_warps)
            for w in range(block.num_warps):
                warp = WarpState(w, block=b_pos)
                warps.append(warp)
                block_of.append(b_pos)

        schedulers = [_Scheduler() for _ in range(device.schedulers_per_sm)]
        for i in range(len(warps)):
            schedulers[i % len(schedulers)].warps.append(i)

        fma_busy = [0] * len(schedulers)
        alu_busy = [0] * len(schedulers)
        lsu_busy = 0
        mio_busy = 0
        dram_free = 0.0
        l2_free = 0.0
        sector_cost = SECTOR_BYTES / device.dram_bytes_per_cycle_per_sm
        l2_sector_cost = SECTOR_BYTES / (
            device.l2_gbps / device.clock_ghz / device.num_sms
        )

        events: list[tuple[int, int, int]] = []  # (time, warp idx, barrier)
        mshr: list[int] = []  # completion times of in-flight global accesses
        bar_count = [0] * len(blocks)
        now = 0
        live = len(warps)

        def eligible(widx: int) -> Instruction | None:
            w = warps[widx]
            if w.done or w.at_bar or w.ready_at > now:
                return None
            instr = program[w.pc]
            if not w.waits_satisfied(instr.control.wait_mask):
                return None
            return instr

        while live > 0:
            if now > MAX_CYCLES:
                raise SimDeadlock(f"no completion after {MAX_CYCLES} cycles")
            while events and events[0][0] <= now:
                _, widx, barrier = heapq.heappop(events)
                warps[widx].barrier_cnt[barrier] -= 1
            while mshr and mshr[0] <= now:
                heapq.heappop(mshr)

            issued_any = False
            mshr_full = len(mshr) >= device.lsu_queue_depth
            for s_idx, sched in enumerate(schedulers):
                if sched.next_free > now:
                    continue
                choice: int | None = None
                switched = False
                # "Stay" preference: while the last instruction's yield bit
                # said stay, keep issuing from the same warp.
                if sched.preferred is not None:
                    instr = eligible(sched.preferred)
                    if instr is not None and self._pipe_free(
                        instr, s_idx, fma_busy, alu_busy, lsu_busy, mio_busy,
                        now, mshr_full,
                    ):
                        choice = sched.preferred
                if choice is None:
                    n = len(sched.warps)
                    for step in range(n):
                        widx = sched.warps[(sched.rr + 1 + step) % n]
                        instr = eligible(widx)
                        if instr is None:
                            continue
                        if not self._pipe_free(
                            instr, s_idx, fma_busy, alu_busy, lsu_busy, mio_busy,
                            now, mshr_full,
                        ):
                            continue
                        choice = widx
                        # A yield-flagged instruction makes the next issue
                        # from this scheduler pay one extra cycle (§5.1.4);
                        # a switch forced by a stall or scoreboard wait is
                        # free (preferred stays set in that case).
                        switched = (
                            sched.preferred is None
                            and sched.last_issued is not None
                        )
                        break
                if choice is None:
                    counters.issue_idle_cycles += 1
                    continue
                if switched and not sched.charged:
                    # The yield-requested switch "takes one more clock
                    # cycle" (§5.1.4): a real bubble before the issue.
                    sched.charged = True
                    sched.next_free = now + 1
                    counters.warp_switches += 1
                    counters.switch_penalty_cycles += 1
                    continue
                sched.charged = False

                widx = choice
                warp = warps[widx]
                instr = program[warp.pc]
                if switched:
                    warps[sched.last_issued].clear_reuse()
                result = execute(instr, warp, contexts[block_of[widx]])

                # ---- timing bookkeeping ---------------------------------
                counters.instructions += 1
                warp.issued += 1
                if result.pipe == "fma":
                    fma_busy[s_idx] = now + result.pipe_cycles
                    counters.fma_pipe_busy += result.pipe_cycles
                    counters.fp32_instrs += 1
                    if instr.name == "FFMA":
                        counters.ffma_instrs += 1
                    elif instr.name == "HFMA2":
                        counters.hfma2_instrs += 1
                    elif instr.name in ("HADD2", "HMUL2"):
                        counters.half2_instrs += 1
                    if result.reg_bank_conflict:
                        counters.reg_bank_conflicts += 1
                elif result.pipe == "alu":
                    alu_busy[s_idx] = now + result.pipe_cycles
                    counters.alu_pipe_busy += result.pipe_cycles
                elif result.pipe == "lsu":
                    lsu_busy = now + result.pipe_cycles
                    counters.lsu_pipe_busy += result.pipe_cycles
                elif result.pipe == "mio":
                    mio_busy = now + result.pipe_cycles
                    counters.mio_pipe_busy += result.pipe_cycles
                    if result.smem_report is not None:
                        counters.smem_conflict_cycles += result.smem_report.conflicts
                counters.dram_sectors += result.dram_sectors
                counters.l2_sectors += result.l2_sectors

                # ---- scoreboard barriers --------------------------------
                delay = result.variable_latency
                if delay:
                    # An access can charge both buckets (a warp straddling
                    # the L2-resident boundary); it completes when its
                    # slowest bucket drains.
                    ready = float(now + delay)
                    if result.dram_sectors:
                        ready = max(
                            ready, dram_free + result.dram_sectors * sector_cost
                        )
                        dram_free = max(dram_free, float(now)) + (
                            result.dram_sectors * sector_cost
                        )
                    if result.l2_sectors:
                        ready = max(
                            ready, l2_free + result.l2_sectors * l2_sector_cost
                        )
                        l2_free = max(l2_free, float(now)) + (
                            result.l2_sectors * l2_sector_cost
                        )
                    delay = int(ready) - now
                    if result.pipe == "lsu":
                        heapq.heappush(mshr, now + delay)
                    for bar in (instr.control.write_bar, instr.control.read_bar):
                        if bar != NO_BARRIER:
                            warp.barrier_cnt[bar] += 1
                            heapq.heappush(events, (now + delay, widx, bar))

                # ---- control flow ---------------------------------------
                if result.exited:
                    warp.done = True
                    live -= 1
                    # Volta arrival semantics: an exited warp no longer
                    # counts toward its block's barrier.  If it was the
                    # last straggler, release the warps already waiting.
                    b = block_of[widx]
                    bar_needed[b] -= 1
                    if bar_count[b] and bar_count[b] >= bar_needed[b]:
                        bar_count[b] = 0
                        for other_idx, other in enumerate(warps):
                            if block_of[other_idx] == b:
                                other.at_bar = False
                elif result.barrier_sync:
                    b = block_of[widx]
                    bar_count[b] += 1
                    warp.at_bar = True
                    warp.pc += 1
                    if bar_count[b] >= bar_needed[b]:
                        bar_count[b] = 0
                        for other_idx, other in enumerate(warps):
                            if block_of[other_idx] == b:
                                other.at_bar = False
                elif result.branch_target is not None:
                    warp.pc = result.branch_target
                else:
                    warp.pc += 1

                warp.ready_at = now + max(instr.control.stall, 1)
                sched.rr = sched.warps.index(widx)
                # The switch's one-cycle cost was already paid by the
                # ``charged`` bubble above; the issue itself is normal.
                sched.next_free = now + 1
                sched.last_issued = widx
                if instr.control.yield_flag:
                    # Yield: prefer other warps next and forfeit the reuse
                    # cache (§6.1's two costs of the flag).
                    sched.preferred = None
                    warp.clear_reuse()
                else:
                    sched.preferred = widx
                issued_any = True

            # Count how many warps are blocked on scoreboards (diagnostics).
            if not issued_any:
                for w in warps:
                    if not w.done and not w.at_bar and w.ready_at <= now:
                        counters.barrier_wait_cycles += 1
            now += 1

        counters.cycles = now
        return counters

    # ------------------------------------------------------------------
    @staticmethod
    def _pipe_free(
        instr, s_idx, fma_busy, alu_busy, lsu_busy, mio_busy, now, mshr_full=False
    ) -> bool:
        pipe = instr.spec.pipe
        if pipe == "fma":
            return fma_busy[s_idx] <= now
        if pipe == "alu":
            return alu_busy[s_idx] <= now
        if pipe == "lsu":
            return lsu_busy <= now and not mshr_full
        if pipe == "mio":
            return mio_busy <= now
        return True

"""Timing studies replay only the address/control slice.

``simulate_resident_blocks`` runs the fast engine on the slice of the
program that addresses, active masks and branch guards depend on
(``DecodedProgram.timing_slice``).  Each kernel here is built so that a
slice that dropped the wrong instruction would change the counters; the
timing-only counters must equal both the full functional replay
(``run_grid``) and the per-cycle reference engine.
"""

import dataclasses

import numpy as np
import pytest

from repro.common.errors import SimMemoryFault
from repro.gpusim import GlobalMemory, RTX2070, run_grid, simulate_resident_blocks
from repro.gpusim.decode import decode_program
from repro.sass import assemble


def _three_ways(monkeypatch, kernel, setup=None):
    """Counters of (timing-only fast, functional fast, reference)."""

    def fresh():
        gmem = GlobalMemory(1 << 20)
        return gmem, (setup(gmem) if setup else {})

    gmem, p = fresh()
    timing = simulate_resident_blocks(
        kernel, RTX2070, params=p, gmem=gmem, threads_per_block=32,
        num_blocks=1,
    ).counters
    gmem, p = fresh()
    functional = run_grid(
        kernel, RTX2070, grid=1, threads_per_block=32, params=p,
        gmem=gmem,
    ).counters
    monkeypatch.setenv("REPRO_SIM_ENGINE", "reference")
    gmem, p = fresh()
    reference = simulate_resident_blocks(
        kernel, RTX2070, params=p, gmem=gmem, threads_per_block=32,
        num_blocks=1,
    ).counters
    monkeypatch.delenv("REPRO_SIM_ENGINE")
    return (
        dataclasses.asdict(timing),
        dataclasses.asdict(functional),
        dataclasses.asdict(reference),
    )


def _kept(kernel) -> dict[str, list[bool]]:
    """Instruction name -> slice membership of each occurrence."""
    dp = decode_program(kernel.instructions)
    kept: dict[str, list[bool]] = {}
    for name, keep in zip(dp.name, dp.timing_slice()):
        kept.setdefault(name, []).append(keep)
    return kept


def test_data_dependent_shared_address_keeps_the_stores(monkeypatch):
    """LDS reads back an address an STS wrote: the store data is in the
    slice.  Were the STS skipped, every lane would read address 0 and
    the 32-way bank conflict of the real addresses would vanish."""
    kernel = assemble("""
.kernel dependent_lds
.registers 16
.smem 4096
S2R R0, SR_TID.X;
SHF.L.U32 R1, R0, 0x2, RZ;
IMAD R2, R0, 0x80, RZ;
STS [R1], R2;
BAR.SYNC;
LDS R3, [R1];
LDS R4, [R3];
EXIT;
""", auto_schedule=True, strict=True)
    kept = _kept(kernel)
    assert kept["STS"] == [True] and kept["IMAD"] == [True]
    assert kept["LDS"] == [True, False]  # only the first feeds an address

    timing, functional, reference = _three_ways(monkeypatch, kernel)
    assert timing["smem_conflict_cycles"] > 0
    assert timing == functional == reference


def test_register_reused_as_fadd_temp_then_address_base(monkeypatch):
    """One register is first an FADD temporary (fed by global data,
    stored to shared memory) and then an address base: per-definition
    slicing keeps only the address-side write."""
    kernel = assemble("""
.kernel reused_temp
.registers 16
.smem 1024
.param 8 ptr
S2R R0, SR_TID.X;
MOV R2, param:ptr;
MOV R3, c[0x0][0x164];
SHF.L.U32 R1, R0, 0x2, RZ;
IADD3 R2, R2, R1, RZ;
LDG.E R4, [R2];
FADD R5, R4, R4;
STS [R1], R5;
BAR.SYNC;
IMAD R5, R0, 0x8, RZ;
LDS.64 R6, [R5];
EXIT;
""", auto_schedule=True, strict=True)
    kept = _kept(kernel)
    assert kept["FADD"] == [False]
    assert kept["LDG"] == [False] and kept["STS"] == [False]
    assert kept["IMAD"] == [True] and kept["IADD3"] == [True]

    def setup(gmem):
        return {"ptr": gmem.alloc_array(np.arange(32, dtype=np.float32))}

    timing, functional, reference = _three_ways(monkeypatch, kernel, setup=setup)
    assert timing["instructions"] == functional["instructions"] > 0
    assert timing == functional == reference


OOB_SHARED = """
.kernel oob_shared
.registers 16
.smem 1024
S2R R0, SR_TID.X;
SHF.L.U32 R1, R0, 0x8, RZ;
LDS R2, [R1];
EXIT;
"""

OOB_GLOBAL = """
.kernel oob_global
.registers 16
.param 8 ptr
S2R R0, SR_TID.X;
MOV R2, param:ptr;
MOV R3, c[0x0][0x164];
SHF.L.U32 R1, R0, 0x10, RZ;
IADD3 R2, R2, R1, RZ;
LDG.E R4, [R2];
EXIT;
"""


@pytest.mark.parametrize("src", [OOB_SHARED, OOB_GLOBAL], ids=["shared", "global"])
def test_out_of_bounds_address_through_the_slice_still_faults(src):
    """The faulting load is outside the slice (nothing reads its data),
    but its address is computed through the slice and still checked —
    every time, since a failed check leaves no footprint memo entry."""
    kernel = assemble(src, auto_schedule=True, strict=True)
    loads = [k for name, ks in _kept(kernel).items()
             if name in ("LDS", "LDG") for k in ks]
    assert loads == [False]
    for _ in range(2):
        gmem = GlobalMemory(1 << 16)
        params = {"ptr": gmem.alloc(256)} if "ptr" in src else {}
        with pytest.raises(SimMemoryFault):
            simulate_resident_blocks(
                kernel, RTX2070, params=params, gmem=gmem,
                threads_per_block=32, num_blocks=1,
            )

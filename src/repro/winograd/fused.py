"""The paper's fused Winograd convolution pipeline, tile-parameterized.

This is a faithful algorithm-level model of the SASS kernels (§3-§4),
vectorized with NumPy *inside* each simulated thread block but keeping
the exact decomposition of Algorithm 1:

* a separate **filter-transform kernel** (FTF) producing the CR'S'K
  workspace (§4.1) — the only global workspace the implementation needs;
* a grid of thread blocks, each owning ``bk × bn`` output tiles (Fig. 1);
* a **main loop** over channels in steps of ``bc`` that gathers and
  transforms ``bn×bc`` input tiles (ITF, implicit zero padding) and
  accumulates the alpha²-batched ``bk × bn × bc`` GEMM (EWMM, Eq. 9-10);
* an **output transform** (OTF) that turns the accumulators into m×m
  output tiles and scatters them (with crop) into the KHWN output.

The tile is an explicit :class:`~repro.winograd.tilespec.TileSpec`
parameter: ``TILE_F22`` reproduces the paper's F(2×2,3×3) kernel
(alpha² = 16 batched GEMMs), ``TILE_F44`` the §8.1 F(4×4,3×3) variant
(alpha² = 36) at the best feasible blocking from
``perfmodel.f44_study``.  Because every global address and mask is
computed the way the kernels compute them, this module doubles as the
functional specification for ``repro.kernels.winograd_fused`` and the
workload model for ``repro.perfmodel``.  Host convolutions run the
vectorized :mod:`repro.winograd.executor`; this block loop is its oracle.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..common.errors import ConvConfigError, LayoutError
from ..common.problem import ConvProblem
from .tilespec import TILE_F22, TileSpec, get_tile
from .tiling import tile_index_grid
from .transforms import (
    PAPER_ITF_FLOPS,
    PAPER_OTF_FLOPS,
    WinogradTransform,
)


@dataclasses.dataclass(frozen=True)
class BlockConfig:
    """Two-level cache blocking parameters (§3.2-§3.3, Table 7).

    The paper's F(2×2,3×3) configuration is ``bk=64, bn=32, bc=8`` with
    256 threads; cuDNN/Neon use ``bk=32``.  ``elements`` is the batched
    GEMM count alpha² (16 for f22, 36 for f44) — the per-iteration work
    and shared-memory footprints scale with it.
    """

    bk: int = 64
    bn: int = 32
    bc: int = 8
    threads: int = 256
    elements: int = 16

    def __post_init__(self) -> None:
        if self.bk <= 0 or self.bn <= 0 or self.bc <= 0:
            raise ConvConfigError("block sizes must be positive")
        if self.threads <= 0:
            raise ConvConfigError(
                f"threads must be a positive thread count, got {self.threads}"
            )
        if self.elements <= 0:
            raise ConvConfigError(
                f"elements must be a positive alpha², got {self.elements}"
            )
        work = self.elements * self.bk * self.bn * self.bc
        if work % self.threads:
            raise ConvConfigError(
                f"threads={self.threads} must evenly divide the per-iteration "
                f"FFMA work alpha²·bk·bn·bc = {work}"
            )

    @property
    def output_tiles_per_block(self) -> int:
        """bk·bn output tiles per thread block (2048 for the paper's config)."""
        return self.bk * self.bn

    @property
    def smem_filter_bytes(self) -> int:
        """(alpha², bc, bk) fp32 transformed-filter buffer (32 KB at f22/bk=64)."""
        return self.elements * self.bc * self.bk * 4

    @property
    def smem_input_bytes(self) -> int:
        """(alpha², bc, bn) fp32 transformed-input buffer (16 KB at f22)."""
        return self.elements * self.bc * self.bn * 4

    @property
    def smem_main_loop_bytes(self) -> int:
        return self.smem_filter_bytes + self.smem_input_bytes

    @property
    def ffma_per_thread_per_iter(self) -> int:
        """FFMAs per thread per bc-iteration (1024 in the paper, §4.2-§4.3)."""
        return self.output_tiles_per_block * self.elements * self.bc // self.threads

    def arithmetic_intensity(self) -> float:
        """Main-loop flops per global byte (8 at bk=32 → 10.67 at bk=64, §3.3).

        Per iteration a block loads (bn + bk)·bc tiles of alpha² floats
        and performs alpha²·bk·bn·bc FMA (2 flops each).
        """
        flops = 2 * self.elements * self.bk * self.bn * self.bc
        gmem = self.elements * (self.bk + self.bn) * self.bc * 4
        return flops / gmem


PAPER_CONFIG = BlockConfig(bk=64, bn=32, bc=8, threads=256)
CUDNN_CONFIG = BlockConfig(bk=32, bn=32, bc=8, threads=256)


def tile_block_config(tile: TileSpec) -> BlockConfig:
    """The default :class:`BlockConfig` for a tile family's blocking."""
    return BlockConfig(
        bk=tile.bk, bn=tile.bn, bc=tile.bc, threads=256, elements=tile.elements
    )


def _itf_fadds_per_tile(t: WinogradTransform) -> int:
    """ITF float adds per tile: the paper's §2.1 count for F(2,3), a
    structural two-pass bound (alpha² outputs × (alpha−1) adds × 2
    passes) for other tiles."""
    if (t.m, t.r) == (2, 3):
        return PAPER_ITF_FLOPS
    return 2 * t.alpha * t.alpha * (t.alpha - 1)


def _otf_fadds_per_tile(t: WinogradTransform) -> int:
    """OTF float adds per tile: §2.1's 24 for F(2,3), structural bound
    (column pass m·alpha + row pass m² outputs, (alpha−1) adds each)
    otherwise."""
    if (t.m, t.r) == (2, 3):
        return PAPER_OTF_FLOPS
    return (t.m * t.alpha + t.m * t.m) * (t.alpha - 1)


@dataclasses.dataclass
class FusedRunStats:
    """Work accounting for one fused-kernel invocation."""

    grid_blocks: int = 0
    main_loop_iters_per_block: int = 0
    ffma_total: int = 0
    itf_fadd_total: int = 0
    otf_fadd_total: int = 0
    gmem_load_bytes: int = 0
    gmem_store_bytes: int = 0
    effective_flops: int = 0

    @property
    def total_main_loop_iters(self) -> int:
        return self.grid_blocks * self.main_loop_iters_per_block


class FusedWinogradConv:
    """Fused F(m×m, r×r) Winograd convolution (the paper's kernel, modelled).

    Usage::

        conv = FusedWinogradConv()                     # F(2×2,3×3)
        conv = FusedWinogradConv(tile=TILE_F44)        # F(4×4,3×3)
        f_t = conv.transform_filters(f_crsk)           # separate FTF kernel
        y_khwn, stats = conv.run(x_chwn, f_t, prob)    # fused main kernel
        y_khwn = conv(x_chwn, f_crsk)                  # both steps

    Inputs are CHWN activations and CRSK filters; output is KHWN
    (Table 4's global-memory layouts).
    """

    def __init__(
        self,
        config: BlockConfig | None = None,
        transform: WinogradTransform | None = None,
        tile: TileSpec | str | None = None,
    ):
        self.tile = get_tile(tile)
        self.transform = transform or self.tile.transform(dtype=np.float32)
        if (self.transform.m, self.transform.r) != (self.tile.m, self.tile.r):
            raise ConvConfigError(
                f"transform F({self.transform.m},{self.transform.r}) does not "
                f"match tile {self.tile.label()}"
            )
        if config is None:
            config = (
                PAPER_CONFIG if self.tile == TILE_F22 else tile_block_config(self.tile)
            )
        if config.elements != self.tile.elements:
            raise ConvConfigError(
                f"config batches {config.elements} GEMMs but "
                f"{self.tile.label()} needs alpha² = {self.tile.elements}"
            )
        self.config = config

    # ------------------------------------------------------------------
    # FTF kernel (§4.1)
    # ------------------------------------------------------------------
    def transform_filters(self, f_crsk: np.ndarray) -> np.ndarray:
        """GFGᵀ for every (c, k): (C, r, r, K) → (C, alpha, alpha, K)."""
        r = self.transform.r
        if f_crsk.ndim != 4 or f_crsk.shape[1:3] != (r, r):
            raise LayoutError(
                f"expected CRSK {r}×{r} filters, got {f_crsk.shape}"
            )
        # Move K next to C so the transform's trailing dims are (r, r).
        f = np.transpose(f_crsk, (0, 3, 1, 2))  # (C, K, r, r)
        f_t = self.transform.transform_filter(f)  # (C, K, alpha, alpha)
        return np.ascontiguousarray(np.transpose(f_t, (0, 2, 3, 1)))

    # ------------------------------------------------------------------
    # Fused main kernel
    # ------------------------------------------------------------------
    def run(
        self,
        x_chwn: np.ndarray,
        f_transformed: np.ndarray,
        prob: ConvProblem | None = None,
    ) -> tuple[np.ndarray, FusedRunStats]:
        """Run the fused kernel given a pre-transformed filter workspace."""
        if x_chwn.ndim != 4:
            raise LayoutError(f"expected CHWN input, got {x_chwn.shape}")
        c, h, w, n = x_chwn.shape
        t = self.transform
        alpha = t.alpha
        if f_transformed.shape[:3] != (c, alpha, alpha):
            raise LayoutError(
                f"expected (C,{alpha},{alpha},K) transformed filters, "
                f"got {f_transformed.shape}"
            )
        k = f_transformed.shape[3]
        if prob is None:
            prob = ConvProblem(n=n, c=c, h=h, w=w, k=k)
        th, tw = prob.tiles_h(t.m), prob.tiles_w(t.m)
        tile_r, tile_c, tile_n = tile_index_grid(th, tw, n)
        bn = self.config.bn
        blocks = [
            (tile_r[g0 : g0 + bn], tile_c[g0 : g0 + bn], tile_n[g0 : g0 + bn])
            for g0 in range(0, tile_r.size, bn)
        ]
        y = np.zeros((k, prob.out_h, prob.out_w, n), dtype=np.float32)
        stats = self._block_loop(x_chwn, f_transformed, prob, blocks, y)
        return y, stats

    def _block_loop(self, x_chwn, f_transformed, prob, blocks, y) -> FusedRunStats:
        """Run the grid: every (tile block, K block) pair walks the
        channel main loop.  *blocks* lists each thread block's
        (tile-row, tile-col, batch) index arrays; *x_chwn* and the KHWN
        output *y* may be transposed views of other layouts."""
        c, h, w, _ = x_chwn.shape
        k = f_transformed.shape[3]
        t, cfg, pad = self.transform, self.config, prob.pad
        alpha, m = t.alpha, t.m
        elements = alpha * alpha
        itf_fadds = _itf_fadds_per_tile(t)
        otf_fadds = _otf_fadds_per_tile(t)
        n_blocks_k = math.ceil(k / cfg.bk)
        stats = FusedRunStats(
            grid_blocks=len(blocks) * n_blocks_k,
            main_loop_iters_per_block=math.ceil(c / cfg.bc),
        )

        arange_a = np.arange(alpha)
        for blk_r, blk_c, batch in blocks:
            bn_real = blk_r.size
            rows = blk_r[:, None] * m - pad + arange_a[None, :]  # (bn, a)
            cols = blk_c[:, None] * m - pad + arange_a[None, :]
            mask = ((rows >= 0) & (rows < h))[:, :, None] & (
                (cols >= 0) & (cols < w)
            )[:, None, :]  # (bn, a, a) — the precomputed predicate masks (§3.5)
            rows_cl = np.clip(rows, 0, h - 1)
            cols_cl = np.clip(cols, 0, w - 1)

            for kb in range(n_blocks_k):
                k0 = kb * cfg.bk
                k_hi = min(k0 + cfg.bk, k)
                bk_real = k_hi - k0
                acc = np.zeros((elements, bk_real, bn_real), dtype=np.float32)

                for c0 in range(0, c, cfg.bc):
                    c_hi = min(c0 + cfg.bc, c)
                    # --- gather bn×bc input tiles with implicit zero pad ---
                    tiles = x_chwn[
                        c0:c_hi,
                        rows_cl[:, :, None],
                        cols_cl[:, None, :],
                        batch[:, None, None],
                    ]  # (bc, bn, a, a)
                    tiles = np.where(mask[None], tiles, np.float32(0))
                    # --- ITF: per-tile BᵀIB adds (§4.2) ---
                    tiles_t = t.transform_input(tiles)  # (bc, bn, a, a)
                    i_smem = tiles_t.transpose(2, 3, 0, 1).reshape(
                        elements, c_hi - c0, bn_real
                    )  # the (alpha², bc, bn) shared buffer of Table 4
                    f_smem = f_transformed[c0:c_hi, :, :, k0:k_hi].transpose(
                        1, 2, 0, 3
                    ).reshape(elements, c_hi - c0, bk_real)  # (alpha², bc, bk)
                    # --- EWMM as alpha²-batched GEMM (Eq. 9) ---
                    acc += np.einsum(
                        "pck,pcn->pkn", f_smem, i_smem, optimize=True
                    ).astype(np.float32)
                    stats.gmem_load_bytes += (
                        tiles.size + f_smem.size
                    ) * 4
                    stats.ffma_total += elements * bk_real * bn_real * (c_hi - c0)
                    stats.itf_fadd_total += itf_fadds * (c_hi - c0) * bn_real
                # --- OTF: transpose via smem, transform, predicated store ---
                o_hat = acc.reshape(alpha, alpha, bk_real, bn_real).transpose(
                    2, 3, 0, 1
                )  # (bk, bn, a, a)
                o = t.transform_output(o_hat)  # (bk, bn, m, m)
                stats.otf_fadd_total += otf_fadds * bk_real * bn_real
                for j in range(bn_real):
                    r0 = blk_r[j] * m
                    c0w = blk_c[j] * m
                    rmax = min(m, prob.out_h - r0)
                    cmax = min(m, prob.out_w - c0w)
                    y[k0:k_hi, r0 : r0 + rmax, c0w : c0w + cmax, batch[j]] = o[
                        :, j, :rmax, :cmax
                    ]
                    stats.gmem_store_bytes += bk_real * rmax * cmax * 4

        stats.effective_flops = prob.direct_flops
        return stats

    def run_stats(self, prob: ConvProblem) -> FusedRunStats:
        """The :class:`FusedRunStats` :meth:`run` reports for *prob*, in
        closed form (no data): every sum over blocks, K blocks and
        channel steps telescopes to the full N·tiles, K and C extents."""
        t, cfg = self.transform, self.config
        a2 = t.alpha * t.alpha
        tiles = prob.total_tiles(t.m)
        k_blocks = math.ceil(prob.k / cfg.bk)
        tile_blocks = math.ceil(tiles / cfg.bn)
        return FusedRunStats(
            grid_blocks=tile_blocks * k_blocks,
            main_loop_iters_per_block=math.ceil(prob.c / cfg.bc),
            ffma_total=a2 * prob.k * prob.c * tiles,
            itf_fadd_total=_itf_fadds_per_tile(t) * prob.c * tiles * k_blocks,
            otf_fadd_total=_otf_fadds_per_tile(t) * prob.k * tiles,
            gmem_load_bytes=4 * a2 * prob.c * (tiles * k_blocks + prob.k * tile_blocks),
            gmem_store_bytes=4 * prob.k * prob.out_h * prob.out_w * prob.n,
            effective_flops=prob.direct_flops,
        )

    def __call__(self, x_chwn: np.ndarray, f_crsk: np.ndarray) -> np.ndarray:
        """FTF + fused kernel; returns the KHWN output only."""
        f_t = self.transform_filters(f_crsk)
        y, _ = self.run(x_chwn, f_t)
        return y

    # ------------------------------------------------------------------
    # Workload introspection for the perf model / kernel generator
    # ------------------------------------------------------------------
    def workload(self, prob: ConvProblem) -> dict:
        """Static per-launch work description (no data needed)."""
        cfg = self.config
        stats = self.run_stats(prob)
        return {
            "blocks": stats.grid_blocks,
            "iters_per_block": stats.main_loop_iters_per_block,
            "threads_per_block": cfg.threads,
            "warps_per_block": cfg.threads // 32,
            "ffma_per_thread_per_iter": cfg.ffma_per_thread_per_iter,
            "itf_fadd_per_thread_per_iter": _itf_fadds_per_tile(self.transform),
            "effective_flops": prob.direct_flops,
            "smem_bytes_per_block": cfg.smem_main_loop_bytes,
            "arithmetic_intensity": cfg.arithmetic_intensity(),
        }

"""NCHW-layout port of the fused pipeline (paper §8.4).

"The implementation in this work can be ported to NCHW layout with
little effort.  For example, each thread block can load and transform a
16×8 input tile (32 of 2×2 tiles) to make the global load fully
coalesced.  The offsets of global and shared memory accesses need to be
recomputed, while all other optimizations can be adopted."

The change versus :class:`~repro.winograd.fused.FusedWinogradConv` is
exactly the tile-to-block mapping: instead of a block's 32 tiles being
32 consecutive *batch* elements of one (h̃, w̃) position (CHWN: batch is
the fast axis), they form an 8×4 patch of tile positions inside one
image — a 16×8 pixel window whose rows are contiguous in NCHW, so a
warp's loads still coalesce.  Everything downstream of the gather (the
transforms, the 16-batched GEMM, the blocking arithmetic) is shared
with the CHWN pipeline, demonstrating §8.4's claim in code.

:func:`warp_load_sectors` quantifies the claim: it counts the 32-byte
sectors one warp's 32 tile-loads touch per tile element under each
layout/mapping combination — both chosen mappings hit the 4-sector
optimum; the naive mismatched pairings do not.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import LayoutError
from ..common.problem import ConvProblem
from .fused import PAPER_CONFIG, BlockConfig, FusedWinogradConv

TILE_PATCH_W = 4  # tiles per block along width  → 8-pixel window
TILE_PATCH_H = 8  # tiles per block along height → 16-pixel window


class FusedWinogradConvNCHW(FusedWinogradConv):
    """The fused pipeline reading NCHW activations directly."""

    def run_nchw(self, x_nchw: np.ndarray, f_transformed: np.ndarray,
                 prob: ConvProblem | None = None):
        """Like :meth:`run`, but the activations stay in NCHW.

        Internally the gather indexes the NCHW tensor with the §8.4
        spatial-patch mapping; the output is returned as NKHW (the
        layout NCHW frameworks expect back).
        """
        if x_nchw.ndim != 4:
            raise LayoutError(f"expected NCHW input, got {x_nchw.shape}")
        n, c, h, w = x_nchw.shape
        k = f_transformed.shape[3]
        prob = prob or ConvProblem(n=n, c=c, h=h, w=w, k=k)
        m = self.transform.m
        th, tw = prob.tiles_h(m), prob.tiles_w(m)

        # §8.4 block mapping: one image, an 8×4 patch of tile positions
        # (tiles past the output edge are dropped from the block).
        blocks = []
        for img in range(n):
            for ph in range(0, th, TILE_PATCH_H):
                for pw in range(0, tw, TILE_PATCH_W):
                    rr, cc = np.meshgrid(
                        np.arange(ph, min(ph + TILE_PATCH_H, th)),
                        np.arange(pw, min(pw + TILE_PATCH_W, tw)),
                        indexing="ij",
                    )
                    blocks.append((rr.ravel(), cc.ravel(), np.full(rr.size, img)))
        y = np.zeros((n, k, prob.out_h, prob.out_w), dtype=np.float32)
        # The same grid as the CHWN kernel, reading NCHW through a CHWN view.
        self._block_loop(
            x_nchw.transpose(1, 2, 3, 0), f_transformed, prob, blocks,
            y.transpose(1, 2, 3, 0),
        )
        return y


def warp_load_sectors(
    prob: ConvProblem, layout: str, mapping: str, element: tuple[int, int] = (1, 1)
) -> int:
    """32-byte sectors one warp touches loading tile element *element*.

    ``layout`` ∈ {"CHWN", "NCHW"}; ``mapping`` ∈ {"batch", "patch"} — the
    CHWN kernel's batch-fastest tile assignment vs. §8.4's 8×4 spatial
    patch.  The matched pairs (CHWN+batch, NCHW+patch) coalesce to 4
    sectors; the mismatched pairs scatter.
    """
    x, y = element
    n, h, w = prob.n, prob.h, prob.w
    if mapping == "batch":
        tile_r = np.zeros(32, dtype=np.int64) + 2  # one (h̃, w̃), 32 batches
        tile_c = np.zeros(32, dtype=np.int64) + 2
        batch = np.arange(32, dtype=np.int64)
    elif mapping == "patch":
        tile_r = 2 + np.repeat(np.arange(TILE_PATCH_H), TILE_PATCH_W)
        tile_c = 2 + np.tile(np.arange(TILE_PATCH_W), TILE_PATCH_H)
        batch = np.zeros(32, dtype=np.int64)
    else:
        raise LayoutError(f"unknown mapping {mapping!r}")
    rows = tile_r * 2 - prob.pad + x
    cols = tile_c * 2 - prob.pad + y
    if layout == "CHWN":
        addrs = 4 * (((0 * h + rows) * w + cols) * n + batch)
    elif layout == "NCHW":
        addrs = 4 * (((batch * 1 + 0) * h + rows) * w + cols)
    else:
        raise LayoutError(f"unknown layout {layout!r}")
    return int(np.unique(addrs // 32).size)

"""The host Winograd executor: one vectorized, memory-bounded pipeline.

Every host path that runs Winograd on data (``conv2d`` WINOGRAD /
WINOGRAD_F44 / WINOGRAD_NONFUSED and each WINOGRAD_DWM part) executes
here, as the paper's three steps with no per-tile Python loop: filters
are transformed once to ``U`` (alpha², K, C); the input is copied once
into a zero-padded CHWN buffer whose tile windows are strided views;
then per chunk of tiles ``V = BᵀdB``, one ``np.matmul`` over alpha²
(``M = U·V``, Eq. 9-10) and ``Y = AᵀMA`` written into the cropped KHWN
output.  Each 2-D transform ``X ↦ T X Tᵀ`` is one GEMM with ``T ⊗ T``
on the flattened tile, so ``V`` lands in the layout the GEMM consumes.

Chunks are blocks of the (tile-row, tile-col, batch) grid whose
temporaries fit :data:`CHUNK_BYTES`, so beyond the padded input and the
output the executor holds only ``U`` (the fused kernels' declared
workspace) and one chunk.  :class:`~repro.winograd.fused.FusedWinogradConv`
keeps the block-by-block model of the SASS kernel as the test oracle.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..common.errors import LayoutError
from .tilespec import TileSpec, get_tile

#: Bound, in bytes, on what one tile chunk allocates (windows, V, M, Y).
CHUNK_BYTES = 1 << 20


class WinogradExecutor:
    """F(m×m, r×r) convolution with implicit zero padding *pad*.

    Usage::

        ex = WinogradExecutor(TILE_F44, pad=1)
        y = ex.conv2d_nchw(x, f)                 # NCHW, KCRS -> new NKHW
        ex.conv2d_nchw(x, f, out=y, accumulate=True)   # add into y
    """

    def __init__(self, tile: TileSpec | str | None = None, pad: int = 1):
        self.tile = get_tile(tile)
        self.pad = pad
        t = self.tile.transform(dtype=np.float64)
        # T ⊗ T, since row-major vec(T X Tᵀ) = (T ⊗ T)·vec(X).
        self._g2, self._bt2, self._at2 = (
            np.kron(a, a).astype(np.float32) for a in (t.g, t.bt, t.at)
        )

    def transform_filters(self, f_kcrs: np.ndarray) -> np.ndarray:
        """``G F Gᵀ`` for every (k, c): (K, C, r, r) → (alpha², K, C)."""
        r = self.tile.r
        if f_kcrs.ndim != 4 or f_kcrs.shape[2:] != (r, r):
            raise LayoutError(f"expected KCRS {r}×{r} filters, got {f_kcrs.shape}")
        k, c = f_kcrs.shape[:2]
        f = np.asarray(f_kcrs, dtype=np.float32).reshape(k * c, r * r)
        return (self._g2 @ f.T).reshape(self.tile.elements, k, c)

    def conv2d_nchw(
        self,
        x: np.ndarray,
        f: np.ndarray,
        out: np.ndarray | None = None,
        accumulate: bool = False,
    ) -> np.ndarray:
        """Convolve NCHW *x* with KCRS *f* into NKHW *out*.

        *out* (allocated when not given) sets the output extent; input it
        reaches past the padded input reads as zero.  With ``accumulate``
        the result is added to *out*.  *x* and *out* may be strided views
        of other layouts: they are read and written through CHWN / KHWN
        views, so the padded input buffer is the only layout copy.
        """
        if x.ndim != 4:
            raise LayoutError(f"expected NCHW input, got {x.shape}")
        n, c, h, w = x.shape
        if f.ndim != 4 or f.shape[1] != c:
            raise LayoutError(f"expected KCRS filters with C={c}, got {f.shape}")
        u = self.transform_filters(f)
        a2, m, r, pad = self.tile.elements, self.tile.m, self.tile.r, self.pad
        k = u.shape[1]
        if out is None:
            grow = 2 * pad - r + 1
            out = np.empty((n, k, h + grow, w + grow), dtype=np.float32)
            accumulate = False
        if out.shape[:2] != (n, k):
            raise LayoutError(f"expected a ({n}, {k}, H', W') output, got {out.shape}")
        y = out.transpose(1, 2, 3, 0)  # KHWN view
        th, tw = self.tile.tiles_along(y.shape[1]), self.tile.tiles_along(y.shape[2])

        # The one input copy: CHWN, zero-padded to exactly th×tw tiles.
        xp = np.zeros((c, th * m + r - 1, tw * m + r - 1, n), dtype=np.float32)
        hi, wi = min(h, xp.shape[1] - pad), min(w, xp.shape[2] - pad)
        xp[:, pad : pad + hi, pad : pad + wi] = x.transpose(1, 2, 3, 0)[:, :hi, :wi]
        alpha = self.tile.alpha
        windows = sliding_window_view(xp, (alpha, alpha), axis=(1, 2))[:, ::m, ::m]

        # Tiles per chunk: the largest pair of live temporaries (windows and
        # V, V and M, M and Y, Y and its cropped block) fills at most 7/8 of
        # CHUNK_BYTES; the rest covers views and array headers.
        m2 = m * m
        live = 4 * max(2 * a2 * c, a2 * (c + k), (a2 + m2) * k, 2 * m2 * k)
        per = max(1, CHUNK_BYTES * 7 // 8 // live)
        bn = min(n, per)
        bj = min(tw, per // bn)
        bi = min(th, per // (bn * bj))
        for i0 in range(0, th, bi):
            for j0 in range(0, tw, bj):
                for n0 in range(0, n, bn):
                    d = windows[:, i0 : i0 + bi, j0 : j0 + bj, n0 : n0 + bn]
                    self._chunk(d, u, y, (i0 * m, j0 * m, n0), accumulate)
        return out

    def _chunk(self, d, u, y, origin, accumulate) -> None:
        """Transform, multiply and inverse-transform one (C, bi, bj, bn,
        alpha, alpha) block of tile windows; store it in KHWN *y* at
        *origin*."""
        c, bi, bj, bn = d.shape[:4]
        a2, m, k = self.tile.elements, self.tile.m, u.shape[1]
        v = self._bt2 @ np.ascontiguousarray(d.transpose(4, 5, 0, 1, 2, 3)).reshape(
            a2, -1
        )  # (alpha², C·tiles); the gathered windows are freed here
        mm = u @ v.reshape(a2, c, -1)  # alpha²-batched (K, C)·(C, tiles)
        del v
        o = (self._at2 @ mm.reshape(a2, -1)).reshape(m, m, k, bi, bj, bn)
        del mm
        r0, c0, n0 = origin
        rows, cols = min(bi * m, y.shape[1] - r0), min(bj * m, y.shape[2] - c0)
        blk = o.transpose(2, 3, 0, 4, 1, 5).reshape(k, bi * m, bj * m, bn)
        dst = y[:, r0 : r0 + rows, c0 : c0 + cols, n0 : n0 + bn]
        if accumulate:
            dst += blk[:, :rows, :cols]
        else:
            dst[...] = blk[:, :rows, :cols]

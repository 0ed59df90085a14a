"""Non-fused Winograd convolution (cuDNN's WINOGRAD_NONFUSED, §8/§9).

The non-fused strategy stores the *transformed* input and output in
global-memory workspace and runs the element-wise-multiply step as a
library batched GEMM.  It is easier to implement and can use the
F(4×4, 3×3) variant (4× multiplication reduction), but pays 2.25× input
inflation in DRAM traffic — the trade the paper's §8.1 break-even
analysis quantifies.

This class reports that workspace in closed form, so Figure 14 and the
break-even bench are generated from the same accounting the device
pipeline would allocate.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..common.errors import ConvConfigError, LayoutError
from ..common.problem import ConvProblem
from .executor import WinogradExecutor
from .tilespec import get_tile


@dataclasses.dataclass
class NonFusedRunStats:
    """Workspace and traffic accounting for one non-fused invocation."""

    workspace_bytes: int = 0
    transformed_input_bytes: int = 0
    transformed_filter_bytes: int = 0
    transformed_output_bytes: int = 0
    gemm_flops: int = 0


class NonFusedWinogradConv:
    """Scatter-transform → batched GEMM → gather-transform pipeline.

    Defaults to F(4×4, 3×3) like cuDNN's non-fused algorithm; ``m=2``
    selects F(2×2, 3×3).  On the host it runs the shared
    :class:`~repro.winograd.executor.WinogradExecutor`; the stats report
    the global workspace the non-fused device pipeline allocates.
    """

    def __init__(self, m: int = 4):
        self.tile = get_tile(f"f{m}{m}")
        self.m = m

    def run(
        self, x_chwn: np.ndarray, f_crsk: np.ndarray, prob: ConvProblem | None = None
    ) -> tuple[np.ndarray, NonFusedRunStats]:
        if x_chwn.ndim != 4:
            raise LayoutError(f"expected CHWN input, got {x_chwn.shape}")
        c, h, w, n = x_chwn.shape
        if f_crsk.ndim != 4 or f_crsk.shape[0] != c:
            raise LayoutError(f"expected CRSK filters with C={c}, got {f_crsk.shape}")
        if f_crsk.shape[1:3] != (3, 3):
            raise ConvConfigError("non-fused pipeline implements 3×3 filters")
        k = f_crsk.shape[3]
        if prob is None:
            prob = ConvProblem(n=n, c=c, h=h, w=w, k=k)
        y = np.empty((k, prob.out_h, prob.out_w, n), dtype=np.float32)
        WinogradExecutor(self.tile, pad=prob.pad).conv2d_nchw(
            x_chwn.transpose(3, 0, 1, 2), f_crsk.transpose(3, 0, 1, 2),
            out=y.transpose(3, 0, 1, 2),
        )

        a2, total = self.tile.elements, prob.total_tiles(self.m)
        return y, NonFusedRunStats(
            workspace_bytes=self.workspace_bytes(prob),
            transformed_input_bytes=4 * a2 * c * total,
            transformed_filter_bytes=4 * a2 * c * k,
            transformed_output_bytes=4 * a2 * k * total,
            gemm_flops=2 * a2 * k * c * total,
        )

    def __call__(self, x_chwn: np.ndarray, f_crsk: np.ndarray) -> np.ndarray:
        y, _ = self.run(x_chwn, f_crsk)
        return y

    def workspace_bytes(self, prob: ConvProblem) -> int:
        """Workspace this pipeline would allocate for *prob* (no data)."""
        a2, total = self.tile.elements, prob.total_tiles(self.m)
        return 4 * a2 * (prob.c * total + prob.c * prob.k + prob.k * total)

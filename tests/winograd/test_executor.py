"""The vectorized host executor vs the block-loop oracle and direct conv."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import (
    ConvProblem,
    conv_tolerance,
    kcrs_to_crsk,
    khwn_to_nkhw,
    make_rng,
    nchw_to_chwn,
    random_activation,
    random_filter,
)
from repro.convolution import conv2d, direct_conv2d
from repro.convolution.dwm import _part_input, _part_subfilter, dwm_plan
from repro.models import resnet_layer
from repro.perfmodel.workspace import DISPATCH_WORKSPACE
from repro.runtime.session import TILE_FOR_ALGO
from repro.winograd import FusedWinogradConv, get_tile
from repro.winograd import executor as executor_mod
from repro.winograd.executor import CHUNK_BYTES, WinogradExecutor

#: conv_tolerance multiple per tile family (the fused model's own bars).
TOL = {"f22": 4, "f44": 16}


def _oracle(x, f, tile, pad):
    """FusedWinogradConv's block loop on the same NCHW problem."""
    n, c, h, w = x.shape
    prob = ConvProblem(n=n, c=c, h=h, w=w, k=f.shape[0], pad=pad)
    conv = FusedWinogradConv(tile=tile)
    y, _ = conv.run(nchw_to_chwn(x), conv.transform_filters(kcrs_to_crsk(f)), prob)
    return khwn_to_nkhw(y)


def _check(prob, tile, seed=0):
    rng = make_rng(seed)
    x = random_activation(prob, rng)
    f = random_filter(prob, rng)
    y = WinogradExecutor(tile, pad=prob.pad).conv2d_nchw(x, f)
    atol = conv_tolerance(prob) * TOL[tile]
    assert y.shape == (prob.n, prob.k, prob.out_h, prob.out_w)
    np.testing.assert_allclose(y, _oracle(x, f, tile, prob.pad), atol=atol)
    np.testing.assert_allclose(y, direct_conv2d(x, f, prob.pad), atol=atol)


EDGE_SHAPES = {
    "c_off_bc": ConvProblem(n=2, c=13, h=9, w=9, k=8),
    "k_off_bk": ConvProblem(n=2, c=8, h=9, w=9, k=70),
    "hw_below_alpha": ConvProblem(n=3, c=4, h=2, w=3, k=5),
    "out_1x1": ConvProblem(n=2, c=6, h=1, w=1, k=7),
    "n1": ConvProblem(n=1, c=5, h=7, w=11, k=6),
    "n16": ConvProblem(n=16, c=4, h=6, w=5, k=9),
    "S1": ConvProblem(n=1, c=16, h=28, w=28, k=16, name="S1"),
    "S2": ConvProblem(n=1, c=32, h=14, w=14, k=32, name="S2"),
    "S2_n16": ConvProblem(n=16, c=32, h=14, w=14, k=32, name="S2"),
}


@pytest.mark.parametrize("tile", ["f22", "f44"])
@pytest.mark.parametrize("shape", sorted(EDGE_SHAPES))
def test_matches_oracle_and_direct(shape, tile):
    _check(EDGE_SHAPES[shape], tile)


@pytest.mark.parametrize("tile", ["f22", "f44"])
def test_matches_oracle_pad0(tile):
    _check(ConvProblem(n=2, c=5, h=8, w=11, k=6, pad=0), tile)


def test_many_chunks_match_one_chunk(monkeypatch):
    """Chunking is a memory decision only: a tiny CHUNK_BYTES (one tile
    per chunk) gives the same output up to fp32 GEMM reassociation."""
    prob = ConvProblem(n=3, c=5, h=9, w=7, k=4)
    rng = make_rng(3)
    x, f = random_activation(prob, rng), random_filter(prob, rng)
    whole = WinogradExecutor("f44").conv2d_nchw(x, f)
    monkeypatch.setattr(executor_mod, "CHUNK_BYTES", 1)
    np.testing.assert_allclose(
        WinogradExecutor("f44").conv2d_nchw(x, f), whole, atol=conv_tolerance(prob)
    )


@pytest.mark.parametrize("tile", ["f22", "f44"])
@pytest.mark.parametrize("r,pad,stride", [(5, 2, 1), (3, 1, 2), (7, 3, 2)])
def test_dwm_parts_match_oracle(r, pad, stride, tile):
    """Every pad-0 DWM part: the executor reads the (possibly short)
    phase window with implicit zero extension; the oracle gets the
    window explicitly zero-extended to (out_h + 2, out_w + 2)."""
    prob = ConvProblem(n=2, c=3, h=11, w=10, k=4, r=r, s=r, pad=pad, stride=stride)
    rng = make_rng(5)
    x, f = random_activation(prob, rng), random_filter(prob, rng)
    plan = dwm_plan(r, r, pad, stride)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ex = WinogradExecutor(tile, pad=0)
    sub = ConvProblem(n=2, c=3, h=prob.out_h + 2, w=prob.out_w + 2, k=4, pad=0)
    for part in plan.parts:
        g = _part_subfilter(f, plan, part)
        win = _part_input(xp, plan, part)
        y = np.zeros((2, 4, prob.out_h, prob.out_w), dtype=np.float32)
        ex.conv2d_nchw(win, g, out=y, accumulate=True)
        full = np.zeros((2, 3, sub.h, sub.w), dtype=np.float32)
        hh, ww = min(sub.h, win.shape[2]), min(sub.w, win.shape[3])
        full[:, :, :hh, :ww] = win[:, :, :hh, :ww]
        atol = conv_tolerance(sub) * TOL[tile]
        np.testing.assert_allclose(y, _oracle(full, g, tile, 0), atol=atol)
        np.testing.assert_allclose(y, direct_conv2d(full, g, 0), atol=atol)


# ---------------------------------------------------------------------------
# Closed-form FusedRunStats
# ---------------------------------------------------------------------------
@given(
    n=st.integers(1, 3),
    c=st.integers(1, 20),
    k=st.integers(1, 70),
    h=st.integers(3, 11),
    w=st.integers(3, 11),
    pad=st.integers(0, 1),
    tile=st.sampled_from(["f22", "f44"]),
)
@settings(max_examples=30, deadline=None)
def test_run_stats_closed_form_equals_block_loop(n, c, k, h, w, pad, tile):
    prob = ConvProblem(n=n, c=c, h=h, w=w, k=k, pad=pad)
    conv = FusedWinogradConv(tile=tile)
    alpha = conv.tile.alpha
    x = np.zeros((c, h, w, n), dtype=np.float32)
    f_t = np.zeros((c, alpha, alpha, k), dtype=np.float32)
    _, stats = conv.run(x, f_t, prob)
    assert conv.run_stats(prob) == stats


# ---------------------------------------------------------------------------
# Declared resources: the tile table and the workspace closed forms
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("algo", sorted(TILE_FOR_ALGO))
def test_tile_for_algo_is_the_executed_tile(algo, monkeypatch):
    used = []
    conv = WinogradExecutor.conv2d_nchw

    def spy(self, *args, **kwargs):
        used.append(self.tile.name)
        return conv(self, *args, **kwargs)

    monkeypatch.setattr(WinogradExecutor, "conv2d_nchw", spy)
    prob = ConvProblem(n=1, c=2, h=6, w=6, k=3)
    rng = make_rng(0)
    conv2d(random_activation(prob, rng), random_filter(prob, rng), algo=algo)
    assert used and set(used) == {TILE_FOR_ALGO[algo]}


def _excess_peak(prob, tile):
    """Peak traced bytes of one executor convolution, minus the output
    and the padded CHWN input copy (the executor's one layout copy)."""
    rng = make_rng(0)
    x, f = random_activation(prob, rng), random_filter(prob, rng)
    y = np.empty((prob.n, prob.k, prob.out_h, prob.out_w), dtype=np.float32)
    spec = get_tile(tile)
    th, tw = spec.tiles_along(prob.out_h), spec.tiles_along(prob.out_w)
    padded = 4 * prob.c * (th * spec.m + spec.r - 1) * (tw * spec.m + spec.r - 1) * prob.n
    tracemalloc.start()
    try:
        WinogradExecutor(spec, pad=prob.pad).conv2d_nchw(x, f, out=y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - padded


MEMORY_LAYERS = ["Conv2", "Conv5"]
HOST_ALGOS = sorted(a for a in TILE_FOR_ALGO if a != "WINOGRAD_DWM")


@pytest.mark.parametrize("algo", HOST_ALGOS)
@pytest.mark.parametrize("layer", MEMORY_LAYERS)
def test_peak_within_declared_workspace_plus_chunk(layer, algo):
    prob = resnet_layer(layer, 2)
    excess = _excess_peak(prob, TILE_FOR_ALGO[algo])
    assert excess <= DISPATCH_WORKSPACE[algo](prob) + CHUNK_BYTES


@pytest.mark.parametrize("algo", ["WINOGRAD", "WINOGRAD_F44"])
@pytest.mark.parametrize("layer", MEMORY_LAYERS)
def test_unchunked_executor_breaks_the_bound(layer, algo, monkeypatch):
    """The bound above has teeth: one chunk holding every tile exceeds it."""
    prob = resnet_layer(layer, 2)
    monkeypatch.setattr(executor_mod, "CHUNK_BYTES", 1 << 40)
    excess = _excess_peak(prob, TILE_FOR_ALGO[algo])
    assert excess > DISPATCH_WORKSPACE[algo](prob) + CHUNK_BYTES

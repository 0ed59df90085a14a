"""Top-level workers for the benchmark harness's process-pool fan-out.

The pool itself is :func:`repro.runtime.parallel.parallel_map`; its
workers must live at module top level so they pickle by reference, and
these two are the benchmark-specific ones.  Each (device, tunables)
measurement is an independent, pure computation.  See
``docs/simulation_performance.md``.
"""

from __future__ import annotations


def main_loop_worker(args):
    """Compute one (device, tunables) main-loop measurement."""
    device_name, tunables = args
    from repro.gpusim import DEVICES
    from repro.kernels import measure_main_loop
    from repro.perfmodel.layer_model import _SURROGATE

    return measure_main_loop(
        _SURROGATE, device=DEVICES[device_name], tunables=tunables
    )


def layer_measurements_worker(args):
    """Compute one (device, tile, tunables) (main, overhead, overhead_fma) triple."""
    device_name, tile, tunables = args
    from repro.gpusim import DEVICES
    from repro.perfmodel.layer_model import _measurements
    from repro.winograd.tilespec import get_tile

    return _measurements(DEVICES[device_name], get_tile(tile), tunables)

"""The benchmark's workloads: FlowConfig keyword sets generated from a seed.

Seed 0 gives the pinned configurations exactly.  Other seeds draw the class
parameter b0 from a narrow band around 10 (canonical, coupled) or move the
snapshot times (selfsimilar, whose Kahler class is fixed by its oracle), so
every seed exercises the same code paths at nearly the same cost.  The
program under test only ever sees the resulting FlowConfig.

Pure standard library: the parent process imports this without numpy.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("canonical", "selfsimilar", "coupled")

# b0 band for the parabola families; narrow, so run cost barely moves with
# the seed, and wide enough apart from 3 that coupled's phi_cut = 50 is
# crossed (at tau = log(47 / (b0 - 3)) in [1.89, 1.92]) well before stop_tau.
B0_BAND = (9.9, 10.1)


def _tau_of_t(t):
    """Dilated time of unscaled time t for T = 1."""
    return -math.log(1.0 - t)


def make_config(name, seed, tiny=False):
    """FlowConfig keywords of workload `name` for `seed`.

    tiny=True shrinks every workload to grid_n = 128 and a short run, for
    the benchmark's self-test; it keeps each workload's code paths.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{name}:{seed}")
    if name == "canonical":
        b0 = 10.0 if seed == 0 else round(rng.uniform(*B0_BAND), 6)
        stop = 0.01 if tiny else 0.05
        return dict(a0=1.0, b0=b0, initial_kind="parabola",
                    grid_n=128 if tiny else 2048, record_every=25,
                    stop_tau=stop, snap_taus=(0.5 * stop, stop))
    if name == "selfsimilar":
        stop = _tau_of_t(0.01 if tiny else 0.05)
        if seed == 0:
            snaps = tuple(_tau_of_t(t) for t in ((0.003, 0.006, 0.01) if tiny
                                                 else (0.015, 0.03, 0.05)))
        else:
            snaps = tuple(sorted(rng.uniform(0.1 * stop, stop) for _ in range(3)))
        return dict(a0=1.0, b0=3.0, initial_kind="cao_koiso",
                    grid_n=128 if tiny else 1024, cfl=0.5, record_every=100,
                    stop_tau=stop + 1e-9, snap_taus=snaps)
    b0 = 10.0 if seed == 0 else round(rng.uniform(*B0_BAND), 6)
    return dict(a0=1.0, b0=b0, initial_kind="parabola", engine="both",
                grid_n=128 if tiny else 256, record_every=25, phi_cut=50.0,
                stop_tau=2.5 if tiny else 2.1)

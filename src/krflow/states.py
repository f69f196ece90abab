"""Shared state and record types for the flow engines and post-processing."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import RadialProfile

__all__ = ["FlowState", "DilatedState", "SeriesRecord", "AnchorSample"]


@dataclass(frozen=True)
class FlowState:
    """Unscaled flow state: profile on [a(t), b(t)] and the time t, before
    the singular time T."""
    profile: RadialProfile
    t: float
    T: float


@dataclass(frozen=True)
class DilatedState:
    """Parabolic blow-up view y(phi, tau) on [1, Phi_max] (or a truncation).

    truncated=True marks a profile cut at finite phi before the true outer
    boundary; its last node then carries a Dirichlet value instead of 0.
    """
    tau: float
    phi: np.ndarray
    y: np.ndarray
    truncated: bool = False

    def __post_init__(self):
        object.__setattr__(self, "phi", np.asarray(self.phi, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))

    @property
    def phi_max(self) -> float:
        return float(self.phi[-1])


@dataclass(frozen=True)
class SeriesRecord:
    """One diagnostics row; field order matches the series CSV header."""
    step: int
    t: float
    tau: float
    a: float
    b: float
    R_sigma0: float
    lambda2_sigma0: float
    sup_err_c0: float
    sup_err_c1: float
    max_F: float
    min_yphi: float
    max_yphi: float
    gauge_C: float
    max_rm: float
    dt: float


@dataclass(frozen=True)
class AnchorSample:
    """Anchor-chart reconstruction data recorded alongside the series."""
    step: int
    t: float
    tau: float
    anchor_f: float
    anchor_r: float
    rho2: float      # rho-coordinate of the point where the dilated potential is 2
    log_fw: float    # log of the inner expansion coefficient f_w(0, t)

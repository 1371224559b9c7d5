"""Spatial weighting kernels and per-location weight matrices.

Six kernels are supported:

* ``unity``        -- every observation gets weight 1 (global model)
* ``step``         -- 1 within the threshold distance, 0 beyond
* ``exponential``  -- exp(-d/b)
* ``gaussian``     -- exp(-(d/b)^2)
* ``bisquare``     -- (1-(d/b)^2)^2 for d < b, else 0
* ``graph_exp``    -- 1 for d <= 1 (adjacent or same unit), exp(-d/b) beyond

Weights are raw kernel values in [0, 1]; they are never renormalized.
An unreachable distance (infinity) maps to weight 0 under every kernel.
"""

from dataclasses import dataclass

import numpy as np

KERNELS = ("unity", "step", "exponential", "gaussian", "bisquare", "graph_exp")


@dataclass(frozen=True)
class WeightScheme:
    """Kernel identifier plus bandwidth (threshold for the step kernel)."""

    kernel: str
    bandwidth: float = None

    def __post_init__(self):
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}; choose from {KERNELS}")
        if self.kernel != "unity":
            if self.bandwidth is None:
                raise ValueError(f"kernel {self.kernel!r} requires a bandwidth")
            if self.kernel == "step":
                if not self.bandwidth >= 0:
                    raise ValueError("step threshold must be nonnegative")
            elif not self.bandwidth > 0:
                raise ValueError("bandwidth must be positive")


@dataclass(frozen=True)
class WeightMatrix:
    """Per-observation weights for one target location."""

    location: str
    weights: np.ndarray


def log_kernel_weight(scheme, distance):
    """Log kernel weight at one or many distances; the one place each kernel
    formula is written (``kernel_weight`` is its exp).

    exp(-d/b) underflows to exactly 0 for d/b beyond ~745, which would make a
    structurally positive weight look like a dropped observation; likelihood
    code must therefore work from log weights.  Structural zeros (step and
    bisquare cutoffs, unreachable pairs) map to -inf: an infinite distance
    does so through each formula at a finite bandwidth, and is mapped
    explicitly for unity and for an infinite or NaN bandwidth.
    """
    d = np.asarray(distance, dtype=float)
    if (d < 0).any():
        raise ValueError("negative distance")
    b = scheme.bandwidth
    k = scheme.kernel
    if k == "unity":
        lw = np.zeros_like(d)
    elif k == "step":
        lw = np.where(d <= b, 0.0, -np.inf)
    elif k == "exponential":
        lw = d / -b
    elif k == "gaussian":
        lw = -((d / b) ** 2)
    elif k == "bisquare":
        r2 = np.minimum(d / b, 1.0) ** 2
        with np.errstate(divide="ignore"):
            lw = np.where(d < b, 2.0 * np.log1p(-r2), -np.inf)
    else:  # graph_exp
        lw = np.where(d <= 1.0, 0.0, d / -b)
    if k == "unity" or not b < np.inf:
        lw = np.where(np.isinf(d), -np.inf, lw)
    if d.ndim == 0:
        return float(lw)
    return lw


def kernel_weight(scheme, distance):
    """Evaluate the kernel at one or many distances: exp of ``log_kernel_weight``.

    Accepts scalars or arrays; unreachable (infinite) distances give 0.
    """
    w = np.exp(log_kernel_weight(scheme, distance))
    if np.ndim(distance) == 0:
        return float(w)
    return w


def weight_matrix(scheme, d, target, obs_locations):
    """Diagonal weights for estimating at ``target``.

    ``obs_locations`` gives the areal unit of each observation; co-located
    observations share a weight (distance 0 maps to weight 1).
    """
    t = d.index(target)
    idx = np.array([d.index(loc) for loc in obs_locations])
    w = kernel_weight(scheme, d.values[t, idx])
    return WeightMatrix(location=target, weights=np.asarray(w, dtype=float))

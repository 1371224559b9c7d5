"""Classical frequentist GWR: weighted least squares at every location,
SSE-grid bandwidth selection, and the effective number of parameters.

Every location is fitted at once from the block statistics the sampler also
uses (``suffstats.block_stats``).  With K[s, l] the kernel weight between
locations s and l, the normal equations at s read
(sum_l K[s, l] X_l'X_l) beta_s = sum_l K[s, l] X_l'y_l; one product of the
``suffstats.packed_stats`` rows with K forms them for all s, and one batched
``np.linalg.solve`` solves them.  A zero weight (kernel cutoff, unreachable
pair, exp underflow) drops location l's rows from the system at s, exactly as
a dropped row of the weighted design would.
"""

from dataclasses import dataclass

import numpy as np

from .suffstats import block_stats, location_index, packed_stats, unpack
from .weighting import WeightScheme, kernel_weight
# unused here; kept as a module attribute for the benchmark's tracer bindings
from .weighting import weight_matrix  # noqa: F401


class SingularSystemError(np.linalg.LinAlgError):
    """Weighted design is rank deficient at some location."""

    def __init__(self, location, rcond=None):
        self.location = location
        self.rcond = rcond
        msg = f"singular weighted system at location {location!r}"
        if rcond is not None:
            msg += f" (reciprocal condition number {rcond:.3e})"
        super().__init__(msg)


# on X'WX: smallest over largest eigenvalue, i.e. the squared singular-value
# ratio of sqrt(W)X
RCOND_MIN = 1e-12


@dataclass
class FreqFit:
    """Per-location WLS coefficients with bookkeeping."""

    locations: tuple
    beta_hat: np.ndarray  # (L, p)
    sse: float
    effective_params: float


def _solve(locations, M, rhs, n_pos, p):
    """Solve M[s] x = rhs[s] for every s after one batched singularity test.

    Location s is singular when fewer than p rows carry positive weight
    (``n_pos[s] < p``) or when rcond(M[s]) < RCOND_MIN; the first singular
    location in ``locations`` order is named in the SingularSystemError.
    """
    lam = np.linalg.eigvalsh(M)
    rcond = lam[:, 0] / np.maximum(lam[:, -1], np.finfo(float).tiny)
    short = n_pos < p
    bad = short | (rcond < RCOND_MIN)
    if bad.any():
        k = int(np.argmax(bad))
        raise SingularSystemError(locations[k], None if short[k] else float(rcond[k]))
    return np.linalg.solve(M, rhs)


def _prepare(data, d):
    """The bandwidth-free part of a fit: location order, each row's location
    index, the Gram blocks and row counts, the packed statistics and the
    location-by-location distances."""
    locs = data.unique_locations()
    G, h, q, counts = block_stats(data, locs)
    return (locs, location_index(data.locations, locs), G, counts, packed_stats(G, h, q),
            d.submatrix(locs))


def _fit(data, scheme, prepared):
    """Coefficients (L, p), SSE and hat-matrix trace under one scheme."""
    locs, own, G, counts, packed, dsub = prepared
    K = kernel_weight(scheme, dsub)
    M, V, _ = unpack(packed @ K.T, data.p)
    # the right-hand side X'W(s)y, then X_s'X_s for the trace
    rhs = np.concatenate([V[:, :, None], G], axis=2)
    sol = _solve(locs, M, rhs, (K > 0) @ counts, data.p)
    beta = sol[:, :, 0]
    resid = data.y - np.einsum("ij,ij->i", data.X, beta[own])
    # own-location rows have weight 1 (distance zero), so the hat-matrix
    # diagonal over location s's rows sums to tr(M_s^-1 X_s'X_s)
    trace = float(np.einsum("sii->", sol[:, :, 1:]))
    return beta, float(resid @ resid), trace


def wls_fit(data, w):
    """Exact weighted-least-squares minimizer at one location.

    Solves X'WX beta = X'Wy over the positive-weight rows, with the
    singularity test of the all-locations fit: SingularSystemError when
    fewer than p rows have positive weight or rcond(X'WX) < RCOND_MIN.
    """
    wt = np.asarray(w.weights, dtype=float)
    mask = wt > 0
    X = data.X[mask]
    XtW = X.T * wt[mask]
    sol = _solve((w.location,), (XtW @ X)[None], (XtW @ data.y[mask])[None, :, None],
                 np.array([mask.sum()]), data.p)
    return sol[0, :, 0]


def fit_all_locations(data, scheme, d):
    """WLS fit at every distinct data location.

    SSE sums each observation's squared residual under its own location's
    coefficients.
    """
    prepared = _prepare(data, d)
    beta, sse, trace = _fit(data, scheme, prepared)
    return FreqFit(locations=prepared[0], beta_hat=beta, sse=sse, effective_params=trace)


def effective_params_freq(data, scheme, d):
    """Trace of the GWR hat matrix.

    Row i of the hat matrix is x_i' (X'W(l_i)X)^{-1} X'W(l_i) with l_i the
    location of observation i; only the diagonal is accumulated.
    """
    return _fit(data, scheme, _prepare(data, d))[2]


def select_bandwidth_grid(data, kernel, d, grid):
    """Pick the bandwidth minimizing total SSE over a grid.

    ``kernel`` is a kernel name.  Returns (best bandwidth, list of
    (bandwidth, sse) rows).  Grid points where some location is singular
    get SSE NaN; ties break toward the smaller bandwidth.
    """
    grid = sorted(float(b) for b in grid)
    if not grid:
        raise ValueError("empty bandwidth grid")
    if any(b <= 0 for b in grid):
        raise ValueError("bandwidths must be positive")
    prepared = _prepare(data, d)
    table = []
    for b in grid:
        try:
            table.append((b, _fit(data, WeightScheme(kernel, b), prepared)[1]))
        except SingularSystemError:
            table.append((b, float("nan")))
    finite = [(sse, b) for b, sse in table if np.isfinite(sse)]
    if not finite:
        raise SingularSystemError("all grid points")
    best = min(finite)[1]
    return best, table


def default_bandwidth_grid(d, num=40):
    """Log-spaced grid on [0.1*d_max, 10*d_max], d_max the largest finite
    distance."""
    finite = d.values[np.isfinite(d.values)]
    d_max = float(finite.max())
    if d_max <= 0:
        d_max = 1.0
    return list(np.geomspace(0.1 * d_max, 10.0 * d_max, num))

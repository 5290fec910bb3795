"""Scalar kernels (Dirichlet, sinc, omega) and the kernel-gap bound scan."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functions import sinc_ratio, _maybe_scalar

_RATIO_CUTOFF = 1e-8
_OMEGA_CUTOFF = 0.1
# Most grid points kernel_gap_scan may take, given or widened: 2^22 float64
# points are 32 MiB per array, and the kernel evaluation holds about ten.
MAX_SCAN_POINTS = 2 ** 22


def n_terms(sigma: float, tau: float) -> int:
    """N = floor(sigma * tau / pi), nudged when the product lands within
    1e-12 of the next integer so exact-integer intents survive rounding."""
    x = sigma * tau / math.pi
    if not math.isfinite(x):
        raise ValueError(f"sigma * tau must be finite (sigma={sigma:g}, "
                         f"tau={tau:g})")
    n = math.floor(x)
    if x - n > 1.0 - 1e-12:
        n += 1
    return int(n)


def dirichlet(N: int, xi):
    """D_N(xi) = sum_{k=-N}^{N} e^{i k xi} = sin((N+1/2)xi)/sin(xi/2).

    The closed form is used except where |sin(xi/2)| < 1e-8, where the
    direct cosine sum avoids the ill-conditioned ratio.  Real-valued and
    2*pi-periodic; equals 2N+1 at multiples of 2*pi.
    """
    if N < 0:
        raise ValueError("N must be a nonnegative integer")
    flat = np.atleast_1d(np.asarray(xi, dtype=float)).ravel()
    s = np.sin(0.5 * flat)
    near = np.abs(s) < _RATIO_CUTOFF
    safe = np.where(near, 1.0, s)
    out = np.sin((N + 0.5) * flat) / safe
    if near.any():
        if N == 0:
            out[near] = 1.0
        else:
            k = np.arange(1, N + 1)
            out[near] = 1.0 + 2.0 * np.cos(flat[near, None] * k).sum(axis=1)
    out = out.reshape(np.shape(xi))
    return _maybe_scalar(out, xi)


def sinc_kernel(sigma: float, v):
    """sin(sigma v) / (pi v), value sigma/pi at v = 0."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    v = np.asarray(v, dtype=float)
    return _maybe_scalar(sigma / math.pi * sinc_ratio(sigma * v), v)


def omega(t: float) -> float:
    """omega(t) = 1/t - cot(t) on (-pi, pi); odd, increasing, omega(0) = 0.

    Below |t| = 0.1 the direct difference cancels catastrophically, so the
    series t/3 + t^3/45 + 2 t^5/945 is used instead.
    """
    if abs(t) >= math.pi:
        raise ValueError("omega requires |t| < pi")
    if abs(t) < _OMEGA_CUTOFF:
        return t / 3.0 + t ** 3 / 45.0 + 2.0 * t ** 5 / 945.0
    return 1.0 / t - math.cos(t) / math.sin(t)


def kernel_gap(sigma: float, tau: float, v):
    """sin(sigma v)/(pi v) - D_N(pi v / tau)/(2 tau) with N = floor(sigma tau/pi)."""
    if sigma <= 0 or tau <= 0:
        raise ValueError("sigma and tau must be positive")
    N = n_terms(sigma, tau)
    v_arr = np.asarray(v, dtype=float)
    gap = (np.asarray(sinc_kernel(sigma, v_arr))
           - np.asarray(dirichlet(N, math.pi * v_arr / tau)) / (2.0 * tau))
    return _maybe_scalar(gap, v)


def kernel_gap_bound(sigma: float, tau: float, delta: float) -> float:
    """(3 + omega(pi (1 + delta) / 2)) / (2 tau); independent of sigma."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    if not 0 <= delta < 1:
        raise ValueError("delta must lie in [0, 1)")
    return (3.0 + omega(0.5 * math.pi * (1.0 + delta))) / (2.0 * tau)


@dataclass(frozen=True)
class KernelGapReport:
    sigma: float
    tau: float
    delta: float
    n_points: int
    observed_max: float
    argmax: float
    bound: float

    @property
    def ratio(self) -> float:
        return self.observed_max / self.bound


def _golden_max(h, a, b, iters: int = 70):
    """Golden-section maximization of h on the brackets [a[i], b[i]].

    All brackets advance in lockstep, so h is called once per step on the
    array of new points; each bracket follows exactly the iterates of a
    scalar search on its own.  Returns the arrays (argmax, max).
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    hc = h(c)
    hd = h(d)
    for _ in range(iters):
        up = hc < hd
        a = np.where(up, c, a)
        b = np.where(up, b, d)
        x = np.where(up, a + invphi * (b - a), b - invphi * (b - a))
        hx = h(x)
        c, d = np.where(up, d, x), np.where(up, x, c)
        hc, hd = np.where(up, hd, hx), np.where(up, hx, hc)
    keep_c = hc >= hd
    return np.where(keep_c, c, d), np.where(keep_c, hc, hd)


def kernel_gap_scan(sigma: float, tau: float, delta: float,
                    n_points: int = 1000) -> KernelGapReport:
    """Scan |kernel_gap| over [-(1+delta) tau, (1+delta) tau].

    The grid is widened if needed so the fastest oscillation is sampled at
    least 16 times per period (at most ``MAX_SCAN_POINTS`` points), then the
    top 5 grid maxima are sharpened by one golden-section search that
    refines their five brackets in lockstep.
    """
    if sigma <= 0 or tau <= 0:
        raise ValueError("sigma and tau must be positive")
    if not 0 <= delta < 1:
        raise ValueError("delta must lie in [0, 1)")
    if not 1000 <= n_points <= MAX_SCAN_POINTS:
        raise ValueError(f"n_points must lie in [1000, {MAX_SCAN_POINTS}]")
    N = n_terms(sigma, tau)
    needed = (16.0 * (1.0 + delta) * tau
              * max(sigma, math.pi * N / tau + 1.0) / math.pi)
    if needed > MAX_SCAN_POINTS:
        raise ValueError(
            f"the grid for sigma={sigma:g}, tau={tau:g} needs {needed:.3g} "
            f"points, more than {MAX_SCAN_POINTS}")
    n = max(n_points, math.ceil(needed))
    half_span = (1.0 + delta) * tau
    v = np.linspace(-half_span, half_span, n)
    vals = np.abs(kernel_gap(sigma, tau, v))

    order = np.argsort(vals)
    best = float(vals[order[-1]])
    arg = float(v[order[-1]])

    def h(x):
        return np.abs(kernel_gap(sigma, tau, x))

    top = order[-5:]
    xs, ys = _golden_max(h, v[np.maximum(top - 1, 0)],
                         v[np.minimum(top + 1, n - 1)])
    for x, y in zip(xs, ys):
        if y > best:
            best, arg = float(y), float(x)

    return KernelGapReport(sigma=float(sigma), tau=float(tau),
                           delta=float(delta), n_points=int(n),
                           observed_max=best, argmax=arg,
                           bound=kernel_gap_bound(sigma, tau, delta))

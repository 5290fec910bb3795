"""Scalar kernels (Dirichlet, sinc, omega) and the kernel-gap bound scan."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functions import sinc_ratio, _maybe_scalar

_RATIO_CUTOFF = 1e-8
_OMEGA_CUTOFF = 0.1


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


def _golden_max(h, a: float, b: float, iters: int = 70):
    """Golden-section maximization of h on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    hc = h(c)
    hd = h(d)
    for _ in range(iters):
        if hc < hd:
            a, c, hc = c, d, hd
            d = a + invphi * (b - a)
            hd = h(d)
        else:
            b, d, hd = d, c, hc
            c = b - invphi * (b - a)
            hc = h(c)
    if hc >= hd:
        return c, hc
    return d, hd


def kernel_gap_scan(sigma: float, tau: float, delta: float,
                    n_points: int = 1000) -> KernelGapReport:
    """Scan |kernel_gap| over [-(1+delta) tau, (1+delta) tau].

    The grid is widened if needed so the fastest oscillation is sampled at
    least 16 times per period, then the top 5 grid maxima are sharpened by
    golden-section refinement.
    """
    if sigma <= 0 or tau <= 0:
        raise ValueError("sigma and tau must be positive")
    if not 0 <= delta < 1:
        raise ValueError("delta must lie in [0, 1)")
    if n_points < 1000:
        raise ValueError("n_points must be at least 1000")
    N = n_terms(sigma, tau)
    needed = math.ceil(16.0 * (1.0 + delta) * tau
                       * max(sigma, math.pi * N / tau + 1.0) / math.pi)
    n = max(n_points, needed)
    half_span = (1.0 + delta) * tau
    v = np.linspace(-half_span, half_span, n)
    vals = np.abs(kernel_gap(sigma, tau, v))

    order = np.argsort(vals)
    best = float(vals[order[-1]])
    arg = float(v[order[-1]])

    def h(x):
        return abs(kernel_gap(sigma, tau, float(x)))

    for i in order[-5:]:
        lo = float(v[max(i - 1, 0)])
        hi = float(v[min(i + 1, n - 1)])
        x, y = _golden_max(h, lo, hi)
        if y > best:
            best, arg = float(y), float(x)

    return KernelGapReport(sigma=float(sigma), tau=float(tau),
                           delta=float(delta), n_points=int(n),
                           observed_max=best, argmax=arg,
                           bound=kernel_gap_bound(sigma, tau, delta))

"""Scalar kernels (Dirichlet, sinc, omega) and the kernel-gap bound scan."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .functions import sinc_ratio, _maybe_scalar

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
    """D_N(xi) = sum_{k=-N}^{N} e^{i k xi} = sin((N+1/2) d) / sin(d/2).

    d = xi - 2 pi round(xi / 2 pi) is xi reduced to [-pi, pi]; D_N is
    2 pi-periodic, and on d both sines keep full relative accuracy, also
    next to the poles of the ratio at xi = 2 pi m.  Where sin(d/2) is 0
    the limit 2N + 1 is taken.  Real-valued (Zygmund, *Trigonometric
    Series*, 1959, ch. II).
    """
    if N < 0:
        raise ValueError("N must be a nonnegative integer")
    return _maybe_scalar(_dirichlet(N, np.asarray(xi, dtype=float)), xi)


def _dirichlet(N, xi):
    """D_N at the points xi; N is a nonnegative integer or an integer
    array that broadcasts with xi, one term count per point."""
    d = xi - 2.0 * math.pi * np.round(xi / (2.0 * math.pi))
    s = np.sin(0.5 * d)
    zero = s == 0.0
    ratio = np.sin((N + 0.5) * d) / np.where(zero, 1.0, s)
    return np.where(zero, 2 * N + 1.0, ratio)


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
    """sin(sigma v)/(pi v) - D_N(pi v / tau)/(2 tau), N = floor(sigma tau/pi).

    Value sigma/pi - (2N+1)/(2 tau) at v = 0."""
    if sigma <= 0 or tau <= 0:
        raise ValueError("sigma and tau must be positive")
    N = n_terms(sigma, tau)
    return _maybe_scalar(_gap(sigma, tau, N, np.asarray(v, dtype=float)), v)


def _gap(sigma, tau, N, v):
    """kernel_gap at the points v; sigma, tau and N are scalars or arrays
    that broadcast with v, one cell per point.  Every element takes the
    same float operations whichever form it comes in."""
    return (sigma / math.pi * sinc_ratio(sigma * v)
            - _dirichlet(N, math.pi * v / tau) / (2.0 * tau))


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


def _scan_size(sigma: float, tau: float, delta: float,
               n_points: int) -> tuple[int, int]:
    """Check one scan cell; returns N and the (possibly widened) grid size."""
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
    return N, max(n_points, math.ceil(needed))


def kernel_gap_scans(cells: Sequence[tuple[float, float, float]],
                     n_points: int = 1000) -> list[KernelGapReport]:
    """Scan |kernel_gap| over [-(1+delta) tau, (1+delta) tau] for each
    (sigma, tau, delta) in ``cells``; one report per cell, in order.

    Every cell is checked before any grid is built.  Each grid is widened
    if needed so the fastest oscillation is sampled at least 16 times per
    period (at most ``MAX_SCAN_POINTS`` points).  The top 5 grid maxima of
    every cell are then sharpened by one golden-section search that refines
    all their brackets in lockstep, so each step is one gap evaluation over
    5 points per cell; each bracket follows exactly the iterates of its own
    scalar search.
    """
    sizes = [_scan_size(s, t, d, n_points) for s, t, d in cells]
    grid_best = []
    lo = np.empty((len(cells), 5))
    hi = np.empty((len(cells), 5))
    for i, ((sigma, tau, delta), (N, n)) in enumerate(zip(cells, sizes)):
        half_span = (1.0 + delta) * tau
        v = np.linspace(-half_span, half_span, n)
        vals = np.abs(_gap(sigma, tau, N, v))
        order = np.argsort(vals)
        grid_best.append((float(vals[order[-1]]), float(v[order[-1]])))
        top = order[-5:]
        lo[i] = v[np.maximum(top - 1, 0)]
        hi[i] = v[np.minimum(top + 1, n - 1)]

    sig = np.repeat(np.array([s for s, _, _ in cells], dtype=float), 5)
    taus = np.repeat(np.array([t for _, t, _ in cells], dtype=float), 5)
    Ns = np.repeat([N for N, _ in sizes], 5)
    xs, ys = _golden_max(lambda x: np.abs(_gap(sig, taus, Ns, x)),
                         lo.ravel(), hi.ravel())

    reports = []
    for (sigma, tau, delta), (_, n), (best, arg), x5, y5 in zip(
            cells, sizes, grid_best, xs.reshape(-1, 5), ys.reshape(-1, 5)):
        for x, y in zip(x5, y5):
            if y > best:
                best, arg = float(y), float(x)
        reports.append(KernelGapReport(
            sigma=float(sigma), tau=float(tau), delta=float(delta),
            n_points=int(n), observed_max=best, argmax=arg,
            bound=kernel_gap_bound(sigma, tau, delta)))
    return reports


def kernel_gap_scan(sigma: float, tau: float, delta: float,
                    n_points: int = 1000) -> KernelGapReport:
    """The :func:`kernel_gap_scans` report of one cell (sigma, tau, delta)."""
    return kernel_gap_scans([(sigma, tau, delta)], n_points)[0]

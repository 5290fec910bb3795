"""Kernels (Dirichlet, sinc, omega) and the certified kernel-gap scan."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .functions import sinc_ratio, _maybe_scalar
from .quadrature import (MAX_NODES, ORDER, _check_nodes, _count_panels,
                         _sampled_sups)

_OMEGA_CUTOFF = 0.1
# Largest n_points of kernel_gap_scan: the largest multiple of ORDER
# within the node limit, since n_points is rounded up to whole panels.  The
# scan holds a few arrays of one value per sampled panel (1.1 MiB each
# here) and the temporaries of one pass of quadrature._sampled_sups.
MAX_SCAN_POINTS = ORDER * (MAX_NODES // ORDER)


def n_terms(sigma: float, tau: float) -> int:
    """N = floor(sigma * tau / pi), nudged when the product lands within
    1e-12 of the next integer so exact-integer intents survive rounding."""
    x = sigma * tau / math.pi
    if not math.isfinite(x):
        raise ValueError(f"sigma * tau must be finite (sigma={sigma:g}, "
                         f"tau={tau:g})")
    return int(_nudged_floor(x))


def _nudged_floor(x):
    """floor(x), plus 1 where x lies within 1e-12 below the next integer,
    as floats; x a float or an array of them."""
    n = np.floor(x)
    return n + (x - n > 1.0 - 1e-12)


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
    if not zero.any():
        return np.sin((N + 0.5) * d) / s
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
    certified_max: float
    bound: float

    @property
    def ratio(self) -> float:
        return self.certified_max / self.bound


def _scan_size(sigma: float, tau: float, delta: float,
               n_points: int) -> tuple[int, int]:
    """Check one scan cell; returns N and its panel count."""
    if sigma <= 0 or tau <= 0:
        raise ValueError("sigma and tau must be positive")
    if not 0 <= delta < 1:
        raise ValueError("delta must lie in [0, 1)")
    if not 1000 <= n_points <= MAX_SCAN_POINTS:
        raise ValueError(f"n_points must lie in [1000, {MAX_SCAN_POINTS}]")
    N = n_terms(sigma, tau)
    what = f"the grid for sigma={sigma:g}, tau={tau:g} needs"
    panels = max(_count_panels((1.0 + delta) * tau,
                               2.0 / max(sigma, math.pi * N / tau),
                               ORDER, what), -(-n_points // ORDER))
    _check_nodes(panels * ORDER, what)
    return N, panels


def kernel_gap_scans(cells: Sequence[tuple[float, float, float]],
                     n_points: int = 1000) -> list[KernelGapReport]:
    """Certified sup of |kernel_gap| over [-(1+delta) tau, (1+delta) tau]
    for each (sigma, tau, delta) in ``cells``, in order; every cell is
    checked first.

    A cell's grid is the :func:`quadrature._sampled_sups` tiling of its
    P equal panels of width at most 2 / max(sigma, pi N / tau), at least
    ``n_points`` nodes in all, and ``n_points`` reports its P
    ``quadrature.ORDER`` nodes.  The gap is even in v (both kernels are),
    so only the panels j >= P // 2 are sampled, and ``argmax``, the first
    node of the largest |gap| among them, lies at or right of -X / P.  The
    certificate takes |d^k/dv^k sin(sigma v)/(pi v)| <= sigma^k sigma / pi
    and |d^k/dv^k D_N(pi v / tau)/(2 tau)| <= (pi N / tau)^k (2N + 1) /
    (2 tau).  A cell whose certificate is not finite, as when |gap| passes
    about 1e154 and its squares overflow, raises ValueError.
    """
    sizes = [_scan_size(s, t, d, n_points) for s, t, d in cells]
    if not sizes:
        return []
    sigma, tau, delta = np.array(cells, dtype=float).T
    N, panels = np.array(sizes).T
    derivs = [((s, s / math.pi), (math.pi * n / t, (2 * n + 1) / (2.0 * t)))
              for (s, t, _), (n, _) in zip(cells, sizes)]
    sups = _sampled_sups(lambda c, v: _gap(sigma[c], tau[c], N[c], v),
                         (1.0 + delta) * tau, panels, derivs, even=True)
    reports = [KernelGapReport(
        sigma=float(s), tau=float(t), delta=float(d), n_points=P * ORDER,
        observed_max=cert.grid_max, argmax=a,
        certified_max=cert.certified_bound, bound=kernel_gap_bound(s, t, d))
        for (s, t, d), (_, P), (cert, a) in zip(cells, sizes, sups)]
    for r in reports:
        if not math.isfinite(r.certified_max):
            raise ValueError(f"the certified sup of the kernel gap at "
                             f"sigma={r.sigma:g}, tau={r.tau:g}, "
                             f"delta={r.delta:g} is not finite")
    return reports


def kernel_gap_scan(sigma: float, tau: float, delta: float,
                    n_points: int = 1000) -> KernelGapReport:
    """The :func:`kernel_gap_scans` report of one cell (sigma, tau, delta)."""
    return kernel_gap_scans([(sigma, tau, delta)], n_points)[0]

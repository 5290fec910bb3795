"""Adaptive Gauss-Legendre quadrature with explicit error accounting.

The engine integrates scalar real or complex integrands over a finite
interval.  Each panel is estimated twice (one Gauss rule over the
whole panel, and the same rule over its two halves); the difference drives
both refinement and the reported error bound.  Panels that fail to converge
within ``max_depth`` bisections raise :class:`QuadratureNonConvergence`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Most integrand points one ``integrate`` call may evaluate, summed over its
# passes (each pass costs 3 * panel_order points per open panel).  The
# largest call in the test suite and the benchmark workloads takes about
# 1.15M points, so 2^24 leaves a wide margin while stopping a refinement
# whose panel count keeps doubling before it exhausts memory.
MAX_INTEGRAND_POINTS = 2 ** 24


class QuadratureNonConvergence(RuntimeError):
    """A panel could not meet its tolerance within the allowed depth, or
    the call would exceed ``MAX_INTEGRAND_POINTS``."""

    def __init__(self, message: str, midpoint: float | None = None):
        super().__init__(message)
        self.midpoint = midpoint


@dataclass(frozen=True)
class QuadratureSpec:
    """Configuration for the adaptive engine.

    ``panel_order`` is the number of Gauss-Legendre nodes per panel, so a
    single panel is exact on polynomials of degree ``2 * panel_order - 1``.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_depth: int = 40
    panel_order: int = 15

    def __post_init__(self):
        if not (math.isfinite(self.abs_tol) and math.isfinite(self.rel_tol)):
            raise ValueError("tolerances must be finite")
        if self.abs_tol < 1e-14 or self.rel_tol < 1e-14:
            raise ValueError("tolerances below 1e-14 are not supported")
        if not 1 <= self.max_depth <= 60:
            raise ValueError("max_depth must lie in [1, 60]")
        if self.panel_order < 2:
            raise ValueError("panel_order must be at least 2")


@lru_cache(maxsize=None)
def _nodes(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def gauss_panel(g, a: float, b: float, order: int = 15):
    """Non-adaptive fixed-order Gauss rule on a single panel [a, b]."""
    x, w = _nodes(order)
    mid = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    y = np.asarray(g(mid + hw * x))
    return hw * np.tensordot(w, y, axes=(0, 0))


def integrate(g, a: float, b: float, spec: QuadratureSpec | None = None, *,
              max_panel_width: float | None = None):
    """Adaptively integrate ``g`` over [a, b].

    ``g`` receives a 1-D numpy array of abscissae and must return a real or
    complex array of the same shape.  Returns ``(value, err)`` where ``err``
    bounds the accumulated panel-estimate differences.  A pass that would
    take the call above ``MAX_INTEGRAND_POINTS`` raises
    :class:`QuadratureNonConvergence` before its abscissae are built.
    """
    spec = spec or QuadratureSpec()
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError("integration interval must be finite with a < b")

    n0 = 1
    if max_panel_width is not None:
        if max_panel_width <= 0:
            raise ValueError("max_panel_width must be positive")
        n0 = max(1, math.ceil((b - a) / max_panel_width))
    per_panel = 3 * spec.panel_order
    if n0 * per_panel > MAX_INTEGRAND_POINTS:
        raise _over_budget(a, b, n0 * per_panel)
    edges = np.linspace(a, b, n0 + 1)
    lefts = edges[:-1].copy()
    rights = edges[1:].copy()
    depths = np.zeros(n0, dtype=np.int64)

    xg, wg = _nodes(spec.panel_order)
    total_width = b - a
    value = 0.0
    err = 0.0
    scale = None
    points = 0

    while lefts.size:
        points += per_panel * lefts.size
        if points > MAX_INTEGRAND_POINTS:
            raise _over_budget(a, b, points)
        coarse, fine = _panel_estimates(g, lefts, rights, xg, wg)
        if scale is None:
            scale = float(np.abs(coarse).sum())
        diff = np.abs(coarse - fine)
        widths = rights - lefts
        tol = max(spec.abs_tol, spec.rel_tol * scale) * widths / total_width
        ok = diff <= tol

        if ok.any():
            value = value + fine[ok].sum()
            err = err + float(diff[ok].sum())

        bad = ~ok
        stuck = bad & (depths >= spec.max_depth)
        if stuck.any():
            i = int(np.argmax(np.where(stuck, diff, -np.inf)))
            mid = 0.5 * (lefts[i] + rights[i])
            raise QuadratureNonConvergence(
                f"quadrature did not converge near x={mid:.6g} "
                f"(panel error {diff[i]:.3g} > tol {tol[i]:.3g})",
                midpoint=mid)

        l, r, d = lefts[bad], rights[bad], depths[bad]
        mids = 0.5 * (l + r)
        lefts = np.concatenate([l, mids])
        rights = np.concatenate([mids, r])
        depths = np.concatenate([d + 1, d + 1])

    return value, err


def _over_budget(a: float, b: float, points: int):
    return QuadratureNonConvergence(
        f"quadrature over [{a:.6g}, {b:.6g}] needs {points} integrand "
        f"points, more than the budget of {MAX_INTEGRAND_POINTS}")


def _panel_estimates(g, lefts, rights, xg, wg):
    """Per-panel (coarse, fine) estimates: one Gauss rule over each panel
    and the same rule over its two halves."""
    order = xg.size
    mids = 0.5 * (lefts + rights)
    hw = 0.5 * (rights - lefts)

    xc = mids[:, None] + hw[:, None] * xg
    xl = 0.5 * (lefts + mids)[:, None] + 0.5 * hw[:, None] * xg
    xr = 0.5 * (mids + rights)[:, None] + 0.5 * hw[:, None] * xg
    x_all = np.concatenate([xc, xl, xr], axis=1)

    y = np.asarray(g(x_all.ravel())).reshape(lefts.size, 3 * order)
    coarse = (y[:, :order] * wg).sum(axis=1) * hw
    fine = ((y[:, order:2 * order] + y[:, 2 * order:]) * wg).sum(axis=1) \
        * (0.5 * hw)
    return coarse, fine

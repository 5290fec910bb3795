"""Trigonometric approximant f_tau: coefficients, evaluation, truncation,
and the Lewitan periodization sum."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .functions import TestFunction, sinc_ratio, _maybe_scalar
from .kernels import dirichlet, n_terms
from .quadrature import (QuadratureNonConvergence, QuadratureSpec, _nodes,
                         integrate)

_LEWITAN_TAIL_TARGET = 1e-8
# Largest Lewitan cutoff K, given or automatic: the sum takes 2K + 1 terms
# and holds a few float64 arrays of that length (about 1 GB at the limit).
MAX_LEWITAN_K = 10 ** 7
# Most integrand samples (panels x panel_order) one level of the panel rule
# in fourier_coefficients may take: 2^22 complex samples are 64 MiB, and the
# FFT and the level it is compared against hold a few more copies.
MAX_COEFF_NODES = 2 ** 22


@dataclass(frozen=True)
class TrigApproximant:
    """Coefficient vector c_{-N}..c_N of the 2*tau-periodic sum
    sum_k c_k e^{i pi k x / tau} with N = floor(sigma tau / pi)."""

    tau: float
    sigma: float
    N: int
    coefficients: np.ndarray
    coeff_error: float

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=complex)
        if coeffs.shape != (2 * self.N + 1,):
            raise ValueError("coefficient vector must have length 2N+1")
        object.__setattr__(self, "coefficients", coeffs)

    def coefficient(self, k: int) -> complex:
        if abs(k) > self.N:
            raise IndexError(f"|k| must not exceed N={self.N}")
        return complex(self.coefficients[k + self.N])

    def evaluate(self, x):
        """Evaluate the sum at the abscissae ``x`` (scalar or array).

        With z = e^{i pi x / tau}, B = isqrt(N) and A = ceil(N / B), each
        power z^k, 1 <= k <= N, is split as z^{aB} * z^{b+1} with k - 1 =
        aB + b, so one point costs A + B exponentials and the inner sums
        are one (M x B) @ (B x 2A) product.  The k and -k terms share both
        factors and combine as S+ + conj(S-), which keeps the result
        numerically real for conjugate-symmetric coefficients.
        """
        theta = np.atleast_1d(np.asarray(x, dtype=float)).ravel() \
            * (math.pi / self.tau)
        out = np.full(theta.shape, self.coefficients[self.N], dtype=complex)
        if self.N > 0:
            B = math.isqrt(self.N)
            A = -(-self.N // B)
            blocks = np.zeros((2, A * B), dtype=complex)
            blocks[0, :self.N] = self.coefficients[self.N + 1:]
            blocks[1, :self.N] = np.conj(self.coefficients[self.N - 1::-1])
            # blocks[s, a*B + b] -> table[b, s*A + a]
            table = blocks.reshape(2, A, B).transpose(2, 0, 1).reshape(B, 2 * A)
            inner = np.exp(1j * theta[:, None] * np.arange(1, B + 1))
            outer = np.exp(1j * theta[:, None] * (B * np.arange(A)))
            sums = (inner @ table).reshape(-1, 2, A)
            pos = (sums[:, 0] * outer).sum(axis=1)
            neg = (sums[:, 1] * outer).sum(axis=1)
            out = out + (pos + np.conj(neg))
        out = out.reshape(np.shape(x))
        return _maybe_scalar(out, x)

    def truncated(self, x):
        """f_tau * indicator of the closed interval [-tau, tau]."""
        inside = np.abs(np.asarray(x, dtype=float)) <= self.tau
        vals = np.where(inside, np.asarray(self.evaluate(x)), 0.0 + 0.0j)
        return _maybe_scalar(vals, x)

    def to_json_dict(self) -> dict:
        return {
            "tau": self.tau,
            "sigma": self.sigma,
            "N": self.N,
            "coefficients": [[float(c.real), float(c.imag)]
                             for c in self.coefficients],
            "coeff_error": self.coeff_error,
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "TrigApproximant":
        coeffs = np.array([complex(re, im) for re, im in doc["coefficients"]])
        return TrigApproximant(tau=float(doc["tau"]), sigma=float(doc["sigma"]),
                               N=int(doc["N"]), coefficients=coeffs,
                               coeff_error=float(doc["coeff_error"]))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    @staticmethod
    def load(path) -> "TrigApproximant":
        with open(path, encoding="utf-8") as fh:
            return TrigApproximant.from_json_dict(json.load(fh))


def fourier_coefficients(f: TestFunction, tau: float,
                         quad: Optional[QuadratureSpec] = None) -> TrigApproximant:
    """c_k = (1/2 tau) * integral_{-tau}^{tau} f(t) e^{-i pi k t / tau} dt
    for |k| <= N, each to absolute accuracy quad.abs_tol.

    Method: a composite Gauss-Legendre rule of order ``quad.panel_order``
    on P equal panels, with all coefficients taken from one FFT of the
    samples along the panel axis (the FFT Fourier integral of Numerical
    Recipes 13.9).  P starts at ceil(2 tau / width), where the initial
    panel width resolves the fastest integrand oscillation, so P > 2N and
    the FFT does not alias.

    Error contract: P doubles until the largest difference between the
    coefficients on P and on 2P panels is at most ``quad.abs_tol``; the
    2P values are returned.  After ``quad.max_depth`` doublings, or when
    the next level would need more than ``MAX_COEFF_NODES`` samples,
    :class:`QuadratureNonConvergence` is raised.  A ValueError is raised
    before any sampling when the first two levels do not fit that limit.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    quad = quad or QuadratureSpec()
    N = n_terms(f.sigma, tau)
    width = min(1.0, tau / (2.0 * (N + 1)))
    xq, wq = _nodes(quad.panel_order)
    span = 2.0 * tau / width  # may overflow to inf for huge N
    if span > MAX_COEFF_NODES or 2 * math.ceil(span) * xq.size > MAX_COEFF_NODES:
        raise ValueError(
            f"coefficients for tau={tau:g} (N={float(N):.6g}) need "
            f"{2.0 * span * xq.size:.3g} quadrature nodes, above the limit "
            f"of {MAX_COEFF_NODES}")
    panels = math.ceil(span)
    k = np.arange(-N, N + 1)

    prev = _panel_fft_coefficients(f, tau, panels, k, xq, wq)
    for _ in range(quad.max_depth):
        panels *= 2
        coeffs = _panel_fft_coefficients(f, tau, panels, k, xq, wq)
        gap = float(np.max(np.abs(coeffs - prev)))
        if gap <= quad.abs_tol:
            return TrigApproximant(tau=float(tau), sigma=f.sigma, N=N,
                                   coefficients=coeffs,
                                   coeff_error=(2 * N + 1) * quad.abs_tol)
        if 2 * panels * xq.size > MAX_COEFF_NODES:
            break
        prev = coeffs
    raise QuadratureNonConvergence(
        f"coefficient quadrature for tau={tau:g} did not converge: the "
        f"coefficients on {panels // 2} and {panels} panels differ by "
        f"{gap:.3g} > abs_tol {quad.abs_tol:.3g}")


def _panel_fft_coefficients(f: TestFunction, tau: float, panels: int, k,
                            xq, wq):
    """Composite Gauss estimate of c_k on ``panels`` equal panels.

    With half-width hw = tau / P and midpoints m_j = -tau + (2j + 1) hw,
    e^{-i pi k m_j / tau} = (-1)^k e^{-i pi k / P} e^{-2 pi i j k / P}, so
    the sum over panels is entry k mod P of the FFT along the panel axis.
    """
    hw = tau / panels
    mids = -tau + hw * (2.0 * np.arange(panels) + 1.0)
    samples = np.asarray(f.eval_real((mids[:, None] + hw * xq).ravel()))
    spectrum = np.fft.fft(samples.reshape(panels, xq.size), axis=0)[k % panels]
    node_phase = np.exp((-1j * math.pi / panels) * np.outer(k, xq))
    shift = np.where(k % 2 == 0, 1.0, -1.0) * np.exp(-1j * math.pi * k / panels)
    return (hw / (2.0 * tau)) * shift * ((spectrum * node_phase) @ wq)


def evaluate_convolution(f: TestFunction, tau: float, x: float,
                         quad: Optional[QuadratureSpec] = None):
    """(1/2 tau) * integral_{-tau}^{tau} f(t) D_N(pi (x - t)/tau) dt.

    Independent cross-check path for TrigApproximant.evaluate.  Returns
    ``(value, err_bound)``.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    quad = quad or QuadratureSpec()
    N = n_terms(f.sigma, tau)
    width = min(1.0, tau / (2.0 * (N + 1)))

    def integrand(t):
        return (np.asarray(f.eval_real(t))
                * np.asarray(dirichlet(N, math.pi * (x - t) / tau))
                / (2.0 * tau))

    value, err = integrate(integrand, -tau, tau, quad, max_panel_width=width)
    return complex(value), float(err)


def lewitan(f: TestFunction, tau: float, x: float, K: int = 0,
            normalization: str = "verbatim"):
    """Symmetric partial sum of sum_k f(x + k tau) * w(x/tau + k).

    In 'verbatim' mode the weight is sin^2(u)/u^2; 'classical' uses the
    partition-of-unity weight sin^2(pi u)/(pi u)^2.  ``K = 0`` picks the
    cutoff from the decay envelope so the returned tail bound is below
    1e-8.  K is at most ``MAX_LEWITAN_K``.  Returns ``(value, tail_bound)``.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if not 0 <= K <= MAX_LEWITAN_K:
        raise ValueError(f"K must lie in [0, {MAX_LEWITAN_K}] (0 = auto)")
    if normalization not in ("verbatim", "classical"):
        raise ValueError("normalization must be 'verbatim' or 'classical'")
    scale = math.pi if normalization == "classical" else 1.0
    beta = abs(x) / tau
    if not beta < MAX_LEWITAN_K - 2:
        raise ValueError(f"|x| / tau must stay below {MAX_LEWITAN_K - 2}")
    env = f.decay

    if K == 0:
        K = _auto_cutoff(env, tau, beta, scale)
    if K <= beta + 1:
        K = math.ceil(beta) + 2

    k = np.arange(-K, K + 1)
    u = x / tau + k
    weights = sinc_ratio(scale * u) ** 2
    samples = np.asarray(f.eval_real(x + k * tau))
    value = np.sum(samples * weights)
    tail = _tail_bound(env, tau, beta, scale, K)
    if np.iscomplexobj(value):
        return complex(value), tail
    return float(value), tail


def _tail_bound(env, tau: float, beta: float, scale: float, K: int) -> float:
    """Bound on the discarded |k| > K terms via the decay envelope and the
    1/u^2 weight decay; requires K > beta."""
    gap = K - beta
    if gap <= 0:
        return math.inf
    if env.alpha == 0:
        return 2.0 * env.C / (scale ** 2 * gap)
    return (2.0 * env.C
            / (scale ** 2 * tau ** env.alpha * (env.alpha + 1.0)
               * gap ** (env.alpha + 1.0)))


def _auto_cutoff(env, tau: float, beta: float, scale: float) -> int:
    target = _LEWITAN_TAIL_TARGET
    if env.alpha == 0:
        reach = beta + 2.0 * env.C / (scale ** 2 * target)
    else:
        gap = (2.0 * env.C
               / (scale ** 2 * tau ** env.alpha * (env.alpha + 1.0)
                  * target)) ** (1.0 / (env.alpha + 1.0))
        reach = beta + gap
    if not reach <= MAX_LEWITAN_K:
        raise ValueError(
            "decay envelope too weak for the automatic Lewitan cutoff; "
            "pass K explicitly")
    return max(math.ceil(reach), math.ceil(beta) + 2)

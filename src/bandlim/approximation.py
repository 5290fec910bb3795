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
from . import quadrature
from .quadrature import (ORDER, QuadratureNonConvergence, QuadratureSpec,
                         _check_nodes, _gauss_bound, _nodes, _panel_nodes,
                         integrate)

_LEWITAN_TAIL_TARGET = 1e-8
# Largest Lewitan cutoff K, given or automatic.  The sum takes its 2K + 1
# terms in chunks within the node limit, so K bounds the run time only.
MAX_LEWITAN_K = 10 ** 7
# Values a chunk of the Lewitan sum holds per term, counted generously: the
# offsets, the arguments and temporaries of the weight, the abscissae, the
# samples with those of a catalog eval_real, and the products.
_LEWITAN_VALUES_PER_TERM = 16


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
        """Evaluate the sum at the abscissae ``x`` (scalar or array) by
        :func:`_trig_sums` at theta = pi x / tau."""
        theta = np.atleast_1d(np.asarray(x, dtype=float)).ravel() \
            * (math.pi / self.tau)
        out = _trig_sums(self.coefficients, theta)
        out = out.reshape(np.shape(x))
        return _maybe_scalar(out, x)

    def on_panels(self, panels: int, xq):
        """f_tau at m_j + hw x_q on ``panels`` equal panels of [-tau, tau],
        hw = tau / P and m_j = -tau + (2j + 1) hw, for reference nodes
        ``xq`` in [-1, 1], as a (P, Q) array: real when the coefficients
        are exactly conjugate-symmetric, as those of every real f are, and
        complex otherwise.

        The transpose of the panel FFT in :func:`fourier_coefficients`, by
        :func:`_on_panels` from the tables of :func:`_panel_tables`, which
        raises ValueError unless P > 2N.  O(Q (N + P log P)) time and O(PQ)
        memory, in one inverse real FFT of P points per node, two for
        coefficients that are not conjugate-symmetric.
        """
        xq = np.atleast_1d(np.asarray(xq, dtype=float))
        return _on_panels(self.coefficients, panels,
                          _panel_tables(self.N, panels, xq))

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


def _trig_sums(coefficients, theta):
    """sum_{|k| <= N} c[N + k] e^{i k theta[j]} for the 2N + 1
    ``coefficients`` and the M angles ``theta``, as M complex values.

    With z = e^{i theta}, B = isqrt(N) and A = ceil(N / B), each power
    z^k, 1 <= k <= N, is split as z^{aB} * z^{b+1} with k - 1 = aB + b, so
    one angle costs A + B exponentials and the inner sums are one
    (M x B) @ (B x 2A) product.  The k and -k terms share both factors and
    combine as S+ + conj(S-), which keeps the result numerically real for
    conjugate-symmetric coefficients.  The angles go through in chunks of
    at most ``quadrature.MAX_NODES`` / (6 A) (at least one): per angle a
    chunk holds B + A exponentials, 2A inner sums and two products of A
    values, at most 6A as B <= A, so that its temporaries together hold at
    most ``quadrature.MAX_NODES`` values.
    """
    N = len(coefficients) // 2
    out = np.full(len(theta), coefficients[N], dtype=complex)
    if N == 0:
        return out
    B = math.isqrt(N)
    A = -(-N // B)
    blocks = np.zeros((2, A * B), dtype=complex)
    blocks[0, :N] = coefficients[N + 1:]
    blocks[1, :N] = np.conj(coefficients[N - 1::-1])
    # blocks[s, a*B + b] -> table[b, s*A + a]
    table = blocks.reshape(2, A, B).transpose(2, 0, 1).reshape(B, 2 * A)
    step = max(1, quadrature.MAX_NODES // (6 * A))
    for j in range(0, len(theta), step):
        t = theta[j:j + step, None]
        inner = np.exp(1j * t * np.arange(1, B + 1))
        outer = np.exp(1j * t * (B * np.arange(A)))
        sums = (inner @ table).reshape(-1, 2, A)
        pos = (sums[:, 0] * outer).sum(axis=-1)
        neg = (sums[:, 1] * outer).sum(axis=-1)
        out[j:j + step] += pos + np.conj(neg)
    return out


def fourier_coefficients(f: TestFunction, tau: float,
                         quad: Optional[QuadratureSpec] = None) -> TrigApproximant:
    """c_k = (1/2 tau) * integral_{-tau}^{tau} f(t) e^{-i pi k t / tau} dt
    for |k| <= N, each within ``coeff_error`` / (2N + 1), which is at most
    quad.abs_tol: e + r on the first level, the nominal quad.abs_tol where
    P doubles (the error contract below).

    Method: the composite Gauss-Legendre rule of :func:`_panel_nodes`
    on P equal panels, with all coefficients taken from one real FFT of
    the samples along the panel axis, two for complex f (the FFT Fourier
    integral of Numerical Recipes 13.9; :func:`_panel_fft_coefficients`).
    P starts at the first level of :func:`_first_level`, whose panels are
    at most pi / (2 sigma) wide and whose count exceeds 2N, so the FFT does
    not alias; every level is 5-smooth.

    Error contract: the P0 values are returned when the proved Gauss bound
    e of each c_k plus r, a stated rounding term that grows with
    ``f.decay.C``, is at most ``quad.abs_tol`` and no sample exceeds
    ``f.decay.C``; each c_k then errs by at most e + r, and
    ``coeff_error`` is (2N + 1) (e + r) (README, "Not every error column
    is a bound").  Otherwise P doubles until the largest difference
    between the coefficients on P and on 2P panels is at most
    ``quad.abs_tol``; the 2P values are returned, with the nominal
    (2N + 1) ``quad.abs_tol``.  After ``quad.max_depth`` doublings, or when
    the next level would need more than ``quadrature.MAX_NODES`` samples,
    :class:`QuadratureNonConvergence` is raised, its message naming which
    of the two stopped the doubling.  A ValueError is raised
    before any sampling when the first two levels do not fit that limit.
    """
    return _coefficient_ladder(f, tau, quad)[0]


def _coefficient_ladder(f: TestFunction, tau: float,
                        quad: Optional[QuadratureSpec] = None):
    """(:func:`fourier_coefficients`, level): the approximant, and one
    :func:`_level` of f: that of P0 panels where P0 is accepted (e + r <=
    abs_tol, r = parts C eps (4 ceil(log2 P0) + ORDER + 4), parts 2 for
    complex samples, and no sample above C), and where P doubles, that of
    the coarser count P of the pair that agreed.  The interior rule of
    ``analysis`` takes it as its one level instead of sampling f and
    building the tables again.  Each level's tables serve both its forward
    FFT and the inverse one."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    quad = quad or QuadratureSpec()
    N = n_terms(f.sigma, tau)
    panels = _first_level(f.sigma, tau, f"coefficients for tau={tau:g} "
                          f"(N={float(N):.6g}) need")
    level = _level(f.eval_real, tau, N, panels)
    prev = _panel_fft_coefficients(tau, level)
    bound = _gauss_bound(f.decay.C, f.sigma + math.pi * N / tau, 1.0,
                         tau / panels, 0.5)
    parts = 2 if np.iscomplexobj(level[0]) else 1
    rounding = (parts * f.decay.C * math.ulp(1.0)
                * (4 * (panels - 1).bit_length() + ORDER + 4))
    if (bound + rounding <= quad.abs_tol
            and np.abs(level[0]).max() <= f.decay.C):
        return (TrigApproximant(tau=float(tau), sigma=f.sigma, N=N,
                                coefficients=prev,
                                coeff_error=(2 * N + 1) * (bound + rounding)),
                level)
    for _ in range(quad.max_depth):
        panels *= 2
        prev_level, level = level, _level(f.eval_real, tau, N, panels)
        coeffs = _panel_fft_coefficients(tau, level)
        gap = float(np.max(np.abs(coeffs - prev)))
        if gap <= quad.abs_tol:
            return (TrigApproximant(tau=float(tau), sigma=f.sigma, N=N,
                                    coefficients=coeffs,
                                    coeff_error=(2 * N + 1) * quad.abs_tol),
                    prev_level)
        try:
            _check_nodes(2 * panels * ORDER, "the next level needs")
        except ValueError as exc:
            cause = str(exc)
            break
        prev = coeffs
    else:
        cause = f"all max_depth={quad.max_depth} doublings are used up"
    raise QuadratureNonConvergence(
        f"coefficient quadrature for tau={tau:g} did not converge: the "
        f"coefficients on {panels // 2} and {panels} panels differ by "
        f"{gap:.3g} > abs_tol {quad.abs_tol:.3g}, and {cause}")


def _first_level(sigma: float, tau: float, what: str) -> int:
    """P0, the first panel count on [-tau, tau] for type ``sigma`` of both
    the coefficient ladder and the interior rule: the smallest 5-smooth
    integer >= ceil(4 sigma tau / pi), after :func:`_check_nodes` of the
    level of 2 P0 panels that the first doubling compares it with.

    Panels are then at most pi / (2 sigma) wide.  On them the Gauss rule
    of ``ORDER`` nodes errs far below rounding for an integrand entire of
    type 2 sigma, as f(t) e^{-i pi k t / tau} is (:func:`_gauss_bound`).
    P0 >= 4 sigma tau / pi >= 4N > 2N, so the panel FFT does not alias.
    P0 and its doubles are 5-smooth, so numpy's FFT never takes its
    Bluestein path.
    """
    # a Python float, so that the counts below overflow to inf quietly
    count = float(np.ceil(4.0 * sigma * tau / math.pi))
    _check_nodes(2 * ORDER * count, what)
    panels = _five_smooth(max(1, int(count)))
    _check_nodes(2 * ORDER * panels, what)
    return panels


def _five_smooth(n: int) -> int:
    """The smallest integer >= n whose only prime factors are 2, 3 and 5."""
    best = 1 << (n - 1).bit_length()  # a power of two
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 2^j with 2^j >= ceil(n / p35)
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _panel_tables(N: int, panels: int, xq):
    """(s_k, e^{-i pi k x_q / P}) for 0 <= k <= N, the (N + 1,) and
    (N + 1, Q) phase tables of one level of P = ``panels`` panels with
    reference nodes ``xq``: :func:`_panel_fft_coefficients` takes them, and
    :func:`_on_panels` their conjugates.  s_k = (-1)^k e^{-i pi k / P}, so
    that e^{-i pi k m_j / tau} = s_k e^{-2 pi i j k / P} at the midpoints
    m_j of the P panels of :func:`_panel_nodes` on [-tau, tau].  ValueError
    unless P > 2N, so that every |k| <= N has a bin of its own and
    k <= N < P / 2."""
    if not panels > 2 * N:
        raise ValueError(f"need more than 2N = {2 * N} panels, got {panels}")
    k = np.arange(N + 1)
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    return (sign * np.exp(-1j * math.pi * k / panels),
            np.exp((-1j * math.pi / panels) * np.outer(k, xq)))


def _level(g, tau: float, N: int, panels: int):
    """One level of ``panels`` equal panels on [-tau, tau] for N terms:
    (samples, tables), the (P, ORDER) array of ``g`` at its
    :func:`_panel_nodes` and its :func:`_panel_tables`.  The coefficient
    ladder samples f on its levels, the polynomial Nikolskii check 0."""
    tables = _panel_tables(N, panels, _nodes(ORDER)[0])
    x = _panel_nodes(tau, panels)[1]
    return np.asarray(g(x.ravel())).reshape(x.shape), tables


def _panel_fft_coefficients(tau: float, level):
    """Composite Gauss estimate of c_k from a :func:`_level` of f on
    [-tau, tau].

    By the midpoint identity of :func:`_panel_tables` the sum over panels
    is s_k times bin k of the FFT along the panel axis.  That FFT is one
    real FFT (``np.fft.rfft``) of the real part of the samples, and one of
    the imaginary part when that is nonzero.  Each part gives c_k for
    0 <= k <= N from its bins 0..N, and c_{-k} = conj(c_k).  So the
    coefficients of a real f are exactly conjugate-symmetric, c_0 real.
    """
    samples, (shift, phase) = level
    hw = tau / len(samples)
    wq = _nodes(ORDER)[1]

    def symmetric(part):
        # the view keeps the rfft output alive to the end of the sums;
        # freed before them, a warm converge-ladder pass took 148 page
        # faults where OpenBLAS ran two threads
        spectrum = np.fft.rfft(part, axis=0)[:len(shift)]
        terms = spectrum * phase
        # two real products with the real weights, not terms @ wq, which
        # numpy runs as a complex product on a complex copy of wq
        sums = np.empty(len(shift), dtype=complex)
        sums.real = np.ascontiguousarray(terms.real) @ wq
        sums.imag = np.ascontiguousarray(terms.imag) @ wq
        half = (hw / (2.0 * tau)) * shift * sums
        return np.concatenate([np.conj(half[:0:-1]), half])

    coeffs = symmetric(samples.real)
    if np.iscomplexobj(samples) and samples.imag.any():
        coeffs = coeffs + 1j * symmetric(samples.imag)
    return coeffs


def _on_panels(coefficients, panels: int, tables):
    """f_tau at the nodes of :meth:`TrigApproximant.on_panels` from the
    2N + 1 ``coefficients`` and the level's :func:`_panel_tables`.

    f_tau(m_j + hw x_q) = sum_k c_k conj(s_k) e^{i pi k x_q / P}
    e^{2 pi i j k / P}, P times entry j of an inverse FFT along the panel
    axis.  Split c_k = a_k + i b_k with a_k = (c_k + conj c_{-k}) / 2 and
    b_k = (c_k - conj c_{-k}) / (2i).  Both are conjugate-symmetric, and as
    conj(s_k) = s_{-k}, so are their terms.  So each part is one inverse
    real FFT (``np.fft.irfft``) of its terms for 0 <= k <= N, zero-padded
    to P // 2 + 1 bins.  For exactly conjugate-symmetric c, b is exactly 0
    and a_k = c_k bit for bit: the second transform is skipped, and the
    values are a real array.
    """
    N = len(coefficients) // 2
    shift, phase = tables
    ahead = coefficients[N:]
    behind = np.conj(coefficients[N::-1])

    def real_part(half):
        # padded here: numpy pads a short input more slowly, column by column
        bins = np.zeros((panels // 2 + 1, phase.shape[1]), dtype=complex)
        np.multiply((half * np.conj(shift))[:, None], np.conj(phase),
                    out=bins[:N + 1])
        values = np.fft.irfft(bins, n=panels, axis=0)
        values *= panels  # in place: no third array of the level's size
        return values

    values = real_part(0.5 * (ahead + behind))
    odd = ahead - behind
    if odd.any():
        values = values + 1j * real_part(-0.5j * odd)
    return values


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
    partition-of-unity weight sin^2(pi u)/(pi u)^2.  Returns ``(value,
    tail_bound)``: by the decay envelope C (1 + |x|)^-alpha and the 1/u^2
    decay of the weight, the discarded |k| > K terms sum to at most
    2 C / (D (K - beta)^(alpha + 1)), beta = |x| / tau, with the one
    coefficient D = s^2 tau^alpha (alpha + 1), s = pi for 'classical' and
    1 for 'verbatim'.  ``K = 0`` picks the cutoff from that bound so that
    it is below 1e-8.  K is at most ``MAX_LEWITAN_K``, and a K <= beta + 1
    is raised to ceil(beta) + 2.  The terms are summed in chunks of
    ``quadrature.MAX_NODES`` // ``_LEWITAN_VALUES_PER_TERM``, and then the
    chunk sums.
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
    denom = scale ** 2 * _tau_power(tau, env.alpha) * (env.alpha + 1.0)
    if K == 0:
        reach = beta + (2.0 * env.C / (denom * _LEWITAN_TAIL_TARGET)) \
            ** (1.0 / (env.alpha + 1.0))
        if not reach <= MAX_LEWITAN_K:
            raise ValueError(
                "decay envelope too weak for the automatic Lewitan cutoff; "
                "pass K explicitly")
        K = max(math.ceil(reach), math.ceil(beta) + 2)
    if K <= beta + 1:
        K = math.ceil(beta) + 2

    step = max(1, quadrature.MAX_NODES // _LEWITAN_VALUES_PER_TERM)
    partials = []
    for lo in range(-K, K + 1, step):
        k = np.arange(lo, min(lo + step, K + 1))
        weights = sinc_ratio(scale * (x / tau + k)) ** 2
        samples = np.asarray(f.eval_real(x + k * tau))
        partials.append(np.sum(samples * weights))
    value = np.sum(partials)
    tail = 2.0 * env.C / (denom * (K - beta) ** (env.alpha + 1.0))
    if np.iscomplexobj(value):
        return complex(value), tail
    return float(value), tail


def _tau_power(tau: float, alpha: float) -> float:
    """tau ** alpha, the scale of the envelope tail terms.  Overflow gives
    inf (the tail is then below every float); underflow to 0 would make
    the tail bound infinite, so it raises ValueError."""
    try:
        value = tau ** alpha
    except OverflowError:
        return math.inf
    if value == 0.0:
        raise ValueError(f"tau={tau:g} is too small: tau ** {alpha:g} "
                         f"underflows, so the envelope tail bound is not "
                         f"finite")
    return value


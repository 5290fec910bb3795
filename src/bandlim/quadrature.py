"""Adaptive Gauss-Legendre quadrature, the certified panel sup rule, and
the Gauss-Jacobi rules for integrands with kinks at known points.

The engine integrates scalar real or complex integrands over a finite
interval.  Each panel is estimated twice (one Gauss rule over the whole
panel, and the same rule over its two halves); the difference drives both
refinement and the reported error bound.  Panels that fail to converge
within ``max_depth`` bisections raise :class:`QuadratureNonConvergence`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

# Gauss-Legendre nodes per panel of every composite rule of the library, so
# a panel is exact on polynomials of degree 2 * ORDER - 1.
ORDER = 15
# Most integrand points one ``integrate`` call may evaluate, summed over its
# passes (each pass costs 3 * ORDER points per open panel).  The
# largest call in the test suite and the benchmark workloads takes about
# 1.15M points, so 2^24 leaves a wide margin while stopping a refinement
# whose panel count keeps doubling before it exhausts memory.
MAX_INTEGRAND_POINTS = 2 ** 24
# Most nodes (or coefficients) one array of the library may hold, checked by
# _check_nodes before it is built: 2^22 complex values are 64 MiB.
MAX_NODES = 2 ** 22
# Panels per pass of the sampled sups on halves (_sampled_sups), and twice
# the panels per pass of _panel_sup on quarters, so that the temporaries
# of a pass stay small: 256 ORDER = 3840 values of F, and (256, 2R) =
# (256, 58) floats (119 KB, below glibc's 128 KiB mmap threshold) in each
# product of _cheb_sums.
_SUP_PASS = 256
# Nodes per pass of the even-p sampling sum of analysis._lp_norm_envelope:
# 2^16 complex values of g are 1 MiB, and every sum of the inequalities
# matrix (at most 6368 nodes) stays one pass.
_SAMPLING_PASS = 2 ** 16


class QuadratureNonConvergence(RuntimeError):
    """A panel could not meet its tolerance within the allowed depth, or
    the call would exceed ``MAX_INTEGRAND_POINTS``."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Configuration for the adaptive engine; its panels take ``ORDER``
    nodes each."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_depth: int = 40
    panel_order: ClassVar[int] = ORDER  # alias; no library code reads it

    def __post_init__(self):
        if not (math.isfinite(self.abs_tol) and math.isfinite(self.rel_tol)):
            raise ValueError("tolerances must be finite")
        if self.abs_tol < 1e-14 or self.rel_tol < 1e-14:
            raise ValueError("tolerances below 1e-14 are not supported")
        if not 1 <= self.max_depth <= 60:
            raise ValueError("max_depth must lie in [1, 60]")


_GAUSS_NODES = (0.20119409399743451, 0.3941513470775634, 0.5709721726085388,
                0.7244177313601701, 0.8482065834104272, 0.9372733924007058,
                0.9879925180204854)
_GAUSS_WEIGHTS = (0.2025782419255613, 0.1984314853271116, 0.1861610000155622,
                  0.16626920581699398, 0.13957067792615444,
                  0.10715922046717141, 0.0703660474881084,
                  0.030753241996117203)


@lru_cache(maxsize=None)
def _nodes(order: int):
    """(x, w), the ``order``-node Gauss-Legendre rule on [-1, 1].  For ORDER
    it is the table of positive nodes ``_GAUSS_NODES`` and of weights from
    the middle out ``_GAUSS_WEIGHTS``, mirrored: leggauss(15) of
    numpy.polynomial bit for bit, without its import or eigensolver.
    leggauss remains for the other orders that :func:`gauss_panel` takes."""
    if order != 2 * len(_GAUSS_NODES) + 1:
        return np.polynomial.legendre.leggauss(order)
    x, w = np.array(_GAUSS_NODES), np.array(_GAUSS_WEIGHTS)
    return np.concatenate([-x[::-1], [0.0], x]), np.concatenate([w[:0:-1], w])


def gauss_panel(g, a: float, b: float, order: int = ORDER):
    """Non-adaptive fixed-order Gauss rule on a single panel [a, b]."""
    x, w = _nodes(order)
    mid = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    y = np.asarray(g(mid + hw * x))
    return hw * np.tensordot(w, y, axes=(0, 0))


def _gauss_bound(m0: float, rate: float, power: float, hw: float,
                 length: float) -> float:
    """Bound on the error of the ORDER-node Gauss rule on panels of
    half-width ``hw`` that cover a length 2 ``length``, for an integrand
    with |g| <= (m0 e^(rate b))^power on |Im z| <= b: Trefethen's bound on
    each panel's ellipse E_rho (README, "Not every error column is a
    bound"), at the rho with a (rho + 1/rho) = 2 ORDER + 2, near its
    minimum.  0 for m0 = 0, inf beyond the float range."""
    if not m0 > 0:
        return 0.0
    a, q = 0.5 * power * rate * hw, ORDER + 1.0
    # a may underflow to 0, where rho is the cap
    rho = (2.0 if a >= q else 1e100 if a == 0
           else min(1e100, (q + math.sqrt(q * q - a * a)) / a))
    log_bound = (power * math.log(m0) + a * (rho - 1.0 / rho)
                 - math.log(rho * rho - 1.0) - 2 * ORDER * math.log(rho))
    return (length * 64.0 / 15.0 * math.exp(log_bound) if log_bound < 700
            else math.inf)


def _check_nodes(count: float, what: str, unit: str = "nodes") -> None:
    """ValueError starting with ``what`` unless count <= ``MAX_NODES``; the
    comparison is in floats, so that an inf or NaN count fails too."""
    if not count <= MAX_NODES:
        raise ValueError(f"{what} {count:.7g} {unit}, above the limit of "
                         f"{MAX_NODES}")


def _count_panels(X: float, width: float, per_panel: int, what: str,
                  even: bool = False, unit: str = "nodes") -> int:
    """ceil(2 X / width) panels P on [-X, X], after :func:`_check_nodes` of
    ``per_panel`` ``unit`` on each panel sampled, before any sampling: on
    all P, or for ``even`` on the ceil(P / 2) panels j >= P // 2."""
    panels = float(np.ceil(2.0 * X / width))  # may overflow to inf, quietly
    _check_nodes(per_panel * (np.ceil(panels / 2) if even else panels), what,
                 unit)
    return int(panels)


def _panel_nodes(X: float, panels: int):
    """hw = X / P and the Gauss-Legendre nodes m_j + hw x_q, a row per panel
    j of P equal panels on [-X, X], m_j = -X + (2j + 1) hw."""
    hw = X / panels
    mids = -X + hw * (2.0 * np.arange(panels) + 1.0)
    return hw, mids[:, None] + hw * _nodes(ORDER)[0]


@dataclass(frozen=True)
class SupNormCertificate:
    """Largest sampled |F| (``grid_max``) upgraded to a sup-norm bound;
    ``spacing`` is the grid step or panel width of the samples."""

    grid_max: float
    spacing: float
    certified_bound: float


@lru_cache(maxsize=None)
def _barycentric_weights(order: int):
    """lambda_q = 1 / prod_{j != q} (x_q - x_j) at the Q = ``order``
    Gauss-Legendre nodes."""
    x, _ = _nodes(order)
    return 1.0 / np.prod(x[:, None] - x + np.eye(order), axis=1)


@lru_cache(maxsize=None)
def _cheb_maps(order: int, pieces: int):
    """(A, B, factor, Lambda_Q) of :func:`_panel_sup` for Q = ``order`` and
    ``pieces`` pieces per panel.  Lambda_Q comes with the maps so that
    :func:`_lebesgue` runs before the first pass: run after it, the
    inequalities matrix peaked 0.15-0.2 MB higher."""
    x, _ = _nodes(order)
    R = 2 * order - 1
    theta = (math.pi / R) * (np.arange(R) + 0.5)
    eye = np.eye(order)
    pts = (np.cos(theta) + (2 * np.arange(pieces) + 1 - pieces)[:, None])
    # piece by piece: (R, Q, Q) temporaries, below glibc's mmap threshold
    A = np.concatenate([
        np.prod((t[:, None, None] - x) / (x[:, None] - x + eye), axis=2,
                where=eye == 0) for t in pts / pieces])
    B = np.cos(np.outer(np.arange(R), theta)) * (2.0 - np.eye(R, 1)) / R
    kappa = 2 * R + (1.0 + 2.0 * math.log(R) / math.pi) * (
        2.0 * math.sqrt(2.0) * np.abs(A).sum(axis=1).max() + 1.0)
    return (A, B, 1.0 + 4.0 * order * math.ulp(1.0) * (1.0 + kappa),
            _lebesgue(order))


@lru_cache(maxsize=None)
def _lebesgue(order: int) -> float:
    """Lambda_Q of :func:`_panel_sup`, once per process."""
    x, _ = _nodes(order)
    n = 16 * order * order  # cells; the Lebesgue function at their midpoints
    # Whole, these (n, Q) temporaries (432 KB at Q = 15) are mmapped; their
    # free raises glibc's mmap and trim thresholds, which keeps a warm pass's
    # level arrays on the heap: in 256-row chunks, a warm benchmark pass of
    # lemma2 and the counterexample took 924 minor page faults, not 0.
    terms = _barycentric_weights(order) / (
        ((2.0 * np.arange(n) + 1.0) / n - 1.0)[:, None] - x)
    on_grid = (np.abs(terms).sum(axis=1) / np.abs(terms.sum(axis=1))).max()
    return float(on_grid) / (1.0 - (order - 1) ** 2 / n)


def _panel_sup(values, hw: float, derivs,
               defect: float = math.inf) -> SupNormCertificate:
    """Certified sup |F| over the P equal panels of half-width ``hw`` that
    tile [-L, L], L = P hw, from the (P, Q) array of F at each panel's
    Gauss-Legendre nodes, for F with sup |F^(k)| <= sum r^k c over the
    pairs (r, c) of ``derivs``, for k = 1 and k = Q.

    p interpolates the values v on a panel; |F - p| <= hw^Q 2^Q Q! / (2Q)!
    sup |F^(Q)| by Hermite-Genocchi (complex F too; node polynomial P_Q /
    k_Q).  On each quarter panel (:func:`_cheb_maps`) |p|^2 has
    degree 2Q - 2: from w = |A v|^2 at its R = 2Q - 1 Chebyshev points,
    a = B w are its Chebyshev coefficients, and max |p|^2 <= s = sum |a_k|.
    Rounding (v, A and B exact; Higham 2002, 3.1): a sum of fewer than 2Q
    products errs by at most gamma = 2Q eps times its terms' moduli, and
    each sum here is one: A v is a sum of Q real products per part (for
    complex v, A Re v and A Im v, in :func:`_cheb_sums`), w of two, and
    B w of R.  With X = max |p|^2 on the panel and Lambda the largest row
    sum of |A|, |du| <= sqrt(2) gamma Lambda X^(1/2) and |dw| <= gamma (2
    sqrt(2) Lambda + 1) X, which moves max |p|^2 on a piece by at most
    Lambda_R = 1 + (2/pi) log R (Chebyshev Lebesgue constant) times as
    much; sum |da_k| <= 2 gamma R X (columns of |B| sum to < 2); s errs by
    gamma s.  So X <= s + gamma (s + kappa X), kappa = 2R + Lambda_R
    (2 sqrt(2) Lambda + 1), to first order, and
    X <= s (1 + 2 gamma (1 + kappa)) with s the largest of the pieces' sums.

    Rounded nodes: v holds F at fl(m_j + fl(hw x_q)) of
    :func:`_panel_nodes`.  Rounding moves a node by at most 2uL (hw),
    u (2L - hw) (hw (2j + 1)), u (L - hw) and uL (the sums) and u hw
    (hw x_q), u = eps / 2, so |dx| < 3 eps L, and p by Lambda_Q |dx|
    sup |F'|.  The Lebesgue function is the largest of the sums +-l_j of
    degree Q - 1, so by Markov it is (Q - 1)^2 Lambda_Q-Lipschitz: with g
    its largest value at the midpoints of n = 16 Q^2 equal cells of
    [-1, 1], Lambda_Q <= g / (1 - (Q - 1)^2 / n), 6.85 for Q = 15.
    :func:`_sampled_sups` takes the same rule on halves.

    Half tiling: ``defect`` bounds |F(-x)| - |F(x)| on [0, L] (inf where
    nothing is known).  Where it is at most the remainder and node terms
    of :func:`_sup_margin`, only the panels j >= P // 2 are certified,
    which tile [0, L], or [-hw, L] for odd P; as the sup of |F| over
    [-L, 0] is at most that over [0, L] plus the defect, the defect is
    added, and the node term stays that of all P panels.
    """
    (P, Q), step = values.shape, _SUP_PASS // 2  # (step, 4R) temporaries
    margin = _sup_margin(hw, P, Q, derivs)
    if defect <= margin:
        values = values[P // 2:]
    else:
        defect = 0.0
    passes = range(0, len(values), step)
    peak, s = np.empty(len(passes)), np.empty(len(passes))
    # np.max keeps a NaN (inf - inf after overflow), where max() drops it
    with np.errstate(over="ignore", invalid="ignore"):
        for n, i in enumerate(passes):
            part = values[i:i + step]
            peak[n] = np.abs(part).max()
            s[n] = _cheb_sums(part, 4).max()
    best = _cheb_maps(Q, 4)[2] * np.max(s)
    return SupNormCertificate(
        grid_max=float(np.max(peak)), spacing=2.0 * hw,
        certified_bound=math.sqrt(best) + (margin + defect))


def _cheb_sums(values, pieces: int = 2):
    """For each panel of the (n, Q) block ``values`` of :func:`_panel_sup`,
    the largest of the sums s = sum |a_k| of its pieces.

    Complex values go through two real products, of their real and
    imaginary parts, and w = re^2 + im^2: half the real multiplications of
    a complex product, no temporary larger than (n, pieces R) floats, and
    for a zero imaginary part the real sums bit for bit.  The panels stay
    on the rows of every product: with them on the columns, OpenBLAS
    rounds a panel's sums by the size of the block, and a scan split into
    other passes would certify other bits.  A one-panel block runs as two
    copies of its panel: numpy takes its matrix-vector kernel for a
    one-row product, which rounds otherwise."""
    if len(values) == 1:
        return _cheb_sums(np.concatenate([values, values]), pieces)[:1]
    to_cheb, to_coeffs = _cheb_maps(values.shape[1], pieces)[:2]
    u = values.real @ to_cheb.T
    w = u * u
    if np.iscomplexobj(values):
        u = values.imag @ to_cheb.T
        w += u * u
    a = w.reshape(-1, len(to_coeffs)) @ to_coeffs.T
    s = np.einsum("ij->i", np.abs(a, out=a))  # 3 times sum(axis=1)'s speed
    while len(s) > len(values):  # pairs of pieces, for pieces a power of 2
        s = np.maximum(s[0::2], s[1::2])
    return s


@lru_cache(maxsize=None)
def _hermite_factor(order: int) -> float:
    """2^Q Q! / (2Q)! of :func:`_panel_sup` for Q = ``order``, once per
    process."""
    return 2.0 ** order * math.factorial(order) / math.factorial(2 * order)


def _sup_margin(hw: float, panels: int, Q: int, derivs) -> float:
    """What :func:`_panel_sup` adds to sqrt(x), x >= max |p|^2 the largest
    :func:`_cheb_sums` value times its rounding factor over sampled panels
    of half-width ``hw`` and Q nodes: the interpolation remainder, and the
    node rounding of the :func:`_panel_nodes` of ``panels`` panels that
    tile [-L, L], L = panels hw."""
    return (_hermite_factor(Q) * sum((r * hw) ** Q * c for r, c in derivs)
            + 3.0 * math.ulp(1.0) * panels * hw * _lebesgue(Q)
            * sum(r * c for r, c in derivs))


def _sampled_sups(F, X, panels, derivs, even: bool = False):
    """[(certificate of the :func:`_panel_sup` rule on halves, node of the
    largest |F|)], one per cell i, for F(i, .) at the :func:`_panel_nodes`
    of ``panels[i]`` equal panels on [-X[i], X[i]], with the derivative
    bounds ``derivs[i]``.

    ``even`` states that |F(i, -x)| = |F(i, x)|: only the panels j >= P // 2
    are sampled, which tile [0, X], or [-hw, X] for odd P, so the sup over
    them is the sup over [-X, X] and the node lies at or right of -hw; the
    certificate keeps the node rounding of the whole tiling.  F(c, x) takes
    the (n, Q) nodes x of a pass of ``_SUP_PASS`` panels, which crosses
    cell boundaries, and their (n, 1) cells c.
    """
    X, panels = np.asarray(X, dtype=float), np.asarray(panels)
    hw = X / panels
    first = panels // 2 if even else np.zeros_like(panels)
    count = panels - first
    starts = np.cumsum(count) - count
    cell = np.repeat(np.arange(len(X)), count)
    j = np.arange(len(cell)) - starts[cell] + first[cell]
    xq = _nodes(ORDER)[0]
    peak = np.empty(len(cell))
    at = np.empty(len(cell), dtype=np.intp)
    sums = np.empty(len(cell))
    # an |F| beyond ~1e154 overflows its squares; the certificate shows it
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, len(cell), _SUP_PASS):
            part = slice(i, i + _SUP_PASS)
            c = cell[part, None]
            values = F(c, -X[c] + hw[c] * (2.0 * j[part, None] + 1.0)
                       + hw[c] * xq)
            mag = np.abs(values)
            at[part] = mag.argmax(axis=1)
            peak[part] = np.take_along_axis(mag, at[part, None],
                                            axis=1)[:, 0]
            sums[part] = _cheb_sums(values)
    # per cell: largest |F| and its first panel (a NaN cell's first), sum
    observed = np.maximum.reduceat(peak, starts)
    hits = np.flatnonzero(~(peak < observed[cell]))
    best = hits[np.searchsorted(hits, starts)]
    argmax = -X + hw * (2.0 * j[best] + 1.0) + hw * xq[at[best]]
    sums = np.maximum.reduceat(sums, starts)
    factor = _cheb_maps(ORDER, 2)[2]
    return [(SupNormCertificate(float(m), 2.0 * h, math.sqrt(factor * s)
                                + _sup_margin(h, P, ORDER, d)),
             float(a))
            for m, h, s, P, d, a in zip(observed, hw.tolist(), sums,
                                        panels.tolist(), derivs, argmax)]


def _barycentric(v, t, slope: bool = True):
    """(p, p') at ``t`` of the interpolant p of each row of ``v`` at the Q
    Gauss-Legendre nodes x_q (Berrut and Trefethen, SIAM Review, 2004), or
    p alone when not ``slope``:
    p = sum r_q v_q / sum r_q, p' = sum r_q (p - v_q) / (t - x_q) / sum r_q,
    r_q = lambda_q / (t - x_q); at t = x_i, p = v_i and p' = -sum_{q != i}
    r_q (p - v_q) / lambda_i (their (9.4)), so that neither is NaN."""
    lam = _barycentric_weights(v.shape[1])
    d = t[:, None] - _nodes(v.shape[1])[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = lam / d
        den = np.einsum("ij->i", r)  # 3 times sum(axis=1)'s speed
        # r_i is infinite at the node t = x_i, and is set to 0 there
        row = np.flatnonzero(np.isinf(den))
        i = np.abs(d[row]).argmin(axis=1)
        d[row, i], r[row, i] = np.inf, 0.0
        den[row] = np.einsum("ij->i", r[row])
        p = np.einsum("ij,ij->i", r, v) / den
        p[row] = v[row, i]
        if not slope:
            return p
        u = r * (p[:, None] - v)
        dp = np.einsum("ij->i", u / d) / den
    dp[row] = -np.einsum("ij->i", u[row]) / lam[i]
    return p, dp


def _interpolate(values, X: float, x):
    """F at the points ``x`` of [-X, X], each from the :func:`_barycentric`
    interpolant of its panel, in passes of ``_SUP_PASS`` ORDER points, for
    F at the :func:`_panel_nodes` of P panels on [-X, X] in ``values``."""
    hw, n = X / len(values), _SUP_PASS * ORDER
    j = np.clip((x + X) // (2.0 * hw), 0, len(values) - 1).astype(np.intp)
    t = (x - (-X + hw * (2.0 * j + 1.0))) / hw
    out = np.empty(len(x), dtype=values.dtype)
    for i in range(0, len(x), n):
        out[i:i + n] = _barycentric(values[j[i:i + n]], t[i:i + n], False)
    return out


def _bracketed_roots(values, X: float, brackets):
    """One root of F in each bracket, as a sorted array.

    ``values`` is the real (P, Q) array of F at the :func:`_panel_nodes` of
    P equal panels on [-X, X].  ``brackets`` holds the sorted flat indices m
    into it at which F changes sign between node m and the next node along
    the line, the first node of the next panel when m ends a panel.  In the
    reference coordinate t of panel j = m // Q the bracket is
    [x_q, x_{q+1}], or [x_{Q-1}, 2 + x_0] across the panel's right edge,
    where the panel's interpolant p (:func:`_barycentric`) is extrapolated
    by 0.6% of its width.  The root is found by Newton's method from the
    secant of the bracket, inside a bisection bracket: each step moves one
    end of the bracket to the last iterate, by the sign of p there, and
    takes the midpoint for a Newton step that leaves the bracket.  An
    iterate on an end stays: a converged root's next iterate lands on the
    end that its last iterate moved, within rounding, and would otherwise
    be bisected from there while other roots converge.  It stops once no
    iterate would move by more than 2^-40 (Newton's steps shrink
    quadratically, so the last one is far below rounding), or after 64
    steps, which bisection alone would leave at most 2^-63 wide.
    """
    P, Q = values.shape
    xq = _nodes(Q)[0]
    panel, q = np.divmod(brackets, Q)
    v = values[panel]
    lo = xq[q]
    hi = np.append(xq[1:], 2.0 + xq[0])[q]
    flat = values.ravel()
    left = np.signbit(flat[brackets])
    with np.errstate(divide="ignore", invalid="ignore"):
        t = lo + (hi - lo) * flat[brackets] / (flat[brackets]
                                               - flat[brackets + 1])
        for _ in range(64):
            t = np.where((lo <= t) & (t <= hi), t, 0.5 * (lo + hi))
            p, dp = _barycentric(v, t)
            right = np.signbit(p) == left  # the root lies right of t
            lo = np.where(right, t, lo)
            hi = np.where(right, hi, t)
            step = p / dp
            if not np.any(np.abs(step) > 2.0 ** -40):
                break
            t = t - step
    t = np.clip(t, lo, hi)
    hw = X / P
    return -X + hw * (2.0 * panel + 1.0) + hw * t


@lru_cache(maxsize=None)
def _jacobi(n: int, alpha: float, beta: float):
    """(t, log w), the n-node Gauss-Jacobi rule on [-1, 1] for the weight
    (1 - t)^alpha (1 + t)^beta, alpha, beta >= 0, once per process: t the
    eigenvalues of the symmetric tridiagonal Jacobi matrix of the monic
    Jacobi polynomials, and w_i mu0 times the squared first component of
    the i-th unit eigenvector, mu0 = 2^(alpha + beta + 1)
    B(alpha + 1, beta + 1) the integral of the weight (Golub and Welsch,
    *Math. Comp.* 23, 1969).  The weights come as logs, since mu0 leaves
    the float range at large exponents.  At alpha = beta = 0 it is
    Gauss-Legendre.

    A kink |x - r|^p at an end r of a segment is the weight with exponent
    p at that end times a smooth function, which this rule integrates as
    fast as Gauss integrates a smooth one (Trefethen, *Approximation Theory
    and Approximation Practice*, 2013, ch. 19); plain Gauss converges only
    like n^(-2(p + 1)) there."""
    k = np.arange(1.0, n)
    s = 2.0 * k + alpha + beta
    diag = np.concatenate([[(beta - alpha) / (alpha + beta + 2.0)],
                           (beta - alpha) * (beta + alpha) / (s * (s + 2.0))])
    off = np.sqrt(4.0 * k * (k + alpha) * (k + beta) * (k + alpha + beta)
                  / (s * s * (s + 1.0) * (s - 1.0)))
    t, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    log_mu0 = ((alpha + beta + 1.0) * math.log(2.0) + math.lgamma(alpha + 1.0)
               + math.lgamma(beta + 1.0) - math.lgamma(alpha + beta + 2.0))
    return t, log_mu0 + 2.0 * np.log(np.abs(v[0]))


def integrate(g, a: float, b: float, spec: QuadratureSpec | None = None, *,
              max_panel_width: float | None = None):
    """Adaptively integrate ``g`` over [a, b], starting from the fewest
    equal panels of width at most ``max_panel_width`` (one without it).

    ``g`` receives a 1-D numpy array of abscissae and must return a real or
    complex array of the same shape.  Each pass estimates every open panel
    [l, l + L] twice, by the ORDER-node Gauss rule over it (coarse) and by
    the sum of the same rule over its two halves (fine), at the 3 ORDER
    points x = l + L t of the Gauss nodes t of [0, 1] and of its halves; a
    panel whose estimates differ by more than its share of max(abs_tol,
    rel_tol S), S the sum of |coarse| of the first pass, is bisected.
    Every panel starts at depth 0 and only bisected panels go on, so the
    open panels of pass d all have depth d; a panel that fails in the pass
    after ``max_depth`` bisections raises
    :class:`QuadratureNonConvergence`, naming the worst of them.  Returns
    ``(value, err)`` where ``err`` bounds the accumulated panel-estimate
    differences.  A pass that would take the call above
    ``MAX_INTEGRAND_POINTS`` raises :class:`QuadratureNonConvergence`
    before its abscissae are built.
    """
    spec = spec or QuadratureSpec()
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError("integration interval must be finite with a < b")

    n0 = 1
    if max_panel_width is not None:
        if max_panel_width <= 0:
            raise ValueError("max_panel_width must be positive")
        n0 = max(1, math.ceil((b - a) / max_panel_width))
    per_panel = 3 * ORDER
    t, w = _nodes(ORDER)
    t = 0.5 * (1.0 + t)
    t, wc, wf = (np.concatenate([t, 0.5 * t, 0.5 + 0.5 * t]), 0.5 * w,
                 0.25 * np.concatenate([w, w]))
    if n0 * per_panel > MAX_INTEGRAND_POINTS:
        raise _over_budget(a, b, n0 * per_panel)
    edges = np.linspace(a, b, n0 + 1)
    lefts, rights = edges[:-1], edges[1:]

    total_width = b - a
    value = err = 0.0
    scale = None
    points = depth = 0

    while lefts.size:
        points += per_panel * lefts.size
        if points > MAX_INTEGRAND_POINTS:
            raise _over_budget(a, b, points)
        widths = rights - lefts
        x = lefts[:, None] + widths[:, None] * t
        y = np.asarray(g(x.ravel())).reshape(x.shape)
        coarse = widths * (y[:, :ORDER] @ wc)
        fine = widths * (y[:, ORDER:] @ wf)
        if scale is None:
            scale = float(np.abs(coarse).sum())
        diff = np.abs(coarse - fine)
        tol = max(spec.abs_tol, spec.rel_tol * scale) * widths / total_width
        ok = diff <= tol
        value = value + fine[ok].sum()
        err = err + float(diff[ok].sum())

        bad = ~ok
        if bad.any() and depth >= spec.max_depth:
            i = int(np.argmax(np.where(bad, diff, -np.inf)))
            mid = 0.5 * (lefts[i] + rights[i])
            raise QuadratureNonConvergence(
                f"quadrature did not converge near x={mid:.6g} "
                f"(panel error {diff[i]:.3g} > tol {tol[i]:.3g})")

        l, r = lefts[bad], rights[bad]
        mids = 0.5 * (l + r)
        lefts = np.concatenate([l, mids])
        rights = np.concatenate([mids, r])
        depth += 1

    return value, err


def _over_budget(a: float, b: float, points: int):
    return QuadratureNonConvergence(
        f"quadrature over [{a:.6g}, {b:.6g}] needs {points} integrand "
        f"points, more than the budget of {MAX_INTEGRAND_POINTS}")

"""Norm computation with rigorous tail/error bounds, certified sup norms,
inequality checkers, and the convergence experiments."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .approximation import (TrigApproximant, _coefficient_ladder,
                            _first_level, _level, _on_panels)
from .functions import DecayEnvelope, TestFunction, sinc_ratio, INF
from . import quadrature
from .kernels import (_nudged_floor, dirichlet, kernel_gap, n_terms,
                      sinc_kernel)
from .quadrature import (ORDER, QuadratureSpec, SupNormCertificate,
                         _bracketed_roots, _check_nodes, _count_panels,
                         _gauss_bound, _interpolate, _nodes, _panel_sup,
                         _piece_nodes, _piece_sums, _sampled_sups,
                         _SAMPLING_PASS, integrate)

# Hard cap on the window for real-line norms; beyond it the analytic
# envelope tail is folded into the error bound instead.
_X_MAX = 1.0e4
# Largest t with e^t finite.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
# Cap for the sup-norm search window on the real line.
_SUP_X_MAX = 1.0e6
_SUP_ENVELOPE_FLOOR = 1e-6
# Most coefficients 2N + 1 that counterexample_run admits, summed over its
# m.  Its values come in closed form, without the coefficients, so this
# bounds which inputs it accepts rather than its run time.
MAX_COUNTEREXAMPLE_COEFFS = 2 ** 26
# pi - fl(pi), the part of pi below the float math.pi.
_PI_LOW = 1.2246467991473532e-16
# The contraction 2 sin(sigma h / 4) at the largest sup_norm_certified step.
_CONTRACTION = 0.1


@dataclass(frozen=True)
class NormEstimate:
    value: float
    error_bound: float
    tail_bound: float = 0.0


@dataclass(frozen=True)
class ConvergenceRecord:
    tau: float
    p: float
    interior_error: NormEstimate
    tail_error: NormEstimate
    total_error: float
    sup_error: SupNormCertificate


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    function_id: str
    params: dict
    lhs: float
    rhs: float
    margin: float
    error_bound: float

    @property
    def holds(self) -> bool:
        return self.margin >= -self.error_bound


@dataclass(frozen=True)
class DecompositionValues:
    f1: complex
    f2: complex
    f3: complex
    error_bound: float


def _root_norm(integral: float, err: float, p: float,
               tail: float = 0.0) -> NormEstimate:
    """integral^(1/p), its error bound the first-order propagation of
    ``err`` into the p-th root (guarded near zero, where the derivative
    blows up) plus ``tail``."""
    value = integral ** (1.0 / p)
    root = (err ** (1.0 / p) if integral <= err
            else err / (p * value ** (p - 1.0)))
    return NormEstimate(value, tail + root, tail)


def lp_norm_interval(g: Callable, p: float, a: float, b: float,
                     quad: Optional[QuadratureSpec] = None, *,
                     max_panel_width: Optional[float] = None) -> NormEstimate:
    """(integral_a^b |g|^p dx)^{1/p} by adaptive quadrature.  Its error
    is :func:`integrate`'s panel differences carried into the p-th root; at
    a kink of |g|^p (a zero of g, p not an even integer) a panel can pass
    with a difference below its error, so there it is an estimate."""
    if not 1 <= p < INF:
        raise ValueError("p must satisfy 1 <= p < inf")
    if not a < b:
        raise ValueError("interval requires a < b")
    quad = quad or QuadratureSpec()
    if max_panel_width is None:
        max_panel_width = (b - a) / 64.0

    def integrand(x):
        return np.abs(np.asarray(g(x))) ** p

    integral, err = integrate(integrand, a, b, quad,
                              max_panel_width=max_panel_width)
    return _root_norm(float(integral), float(err), p)


def _osc_width(sigma: float) -> float:
    """Quadrature panel width for integrands oscillating at frequency sigma."""
    return min(1.0, math.pi / (2.0 * max(sigma, 1.0)))


def _lp_norm_envelope(g: Callable, env: DecayEnvelope, p: float,
                      quad: QuadratureSpec, sigma: float,
                      even: bool = False) -> NormEstimate:
    """Real-line L^p norm of g, of exponential type <= sigma with
    |g| <= env, over the window [-X, X] plus the envelope tail beyond it,
    X = clamp(env.cutoff_for_tail(abs_tol^p, p), 50, _X_MAX), the budget
    abs_tol^p taken as inf where it overflows.

    Even integer p takes the exact sampling sum.  Theorem (Plancherel and
    Polya 1937; Boas, *Entire Functions*, 1954, ch. 6): if G is entire of
    exponential type <= T and integrable on the real line, then
    integral G dx = h sum_n G(nh) for every 0 < h < 2 pi / T (Poisson
    summation; the shifted spectra of G do not overlap).  Its hypotheses
    hold for G = (g g*)^{p/2}, g*(z) = conj(g(conj z)), which is |g|^p on
    the real line: with g(x) = f(x + iy) and f entire of type <= sigma,
    x -> g(x) and g* are entire of type <= sigma, so G is entire of type
    <= p sigma, and G is integrable: it is continuous, and |G| <= env^p
    with alpha p > 1.  The step is h = X / M with M = floor(X p sigma /
    (2 pi)) + 1, the largest step strictly below 2 pi / (p sigma) that puts
    a node on X, and the sum is taken over the 2M + 1 nodes |n| <= M, at
    most ``quadrature.MAX_NODES``, in passes of ``_SAMPLING_PASS`` nodes:
    one call of g and one pairwise sum per pass, then the sum of the
    passes' sums.  The terms are positive and env decreases, so the
    omitted ones add at most the envelope tail integral beyond Mh: the norm
    lies between S^{1/p} and S^{1/p} + tail_lp(Mh, p)^{1/p}, and the error
    bound adds a (2M + 1) eps S rounding term to that tail, which bounds
    the rounding of a sum of 2M + 1 positive terms in any order (Higham
    2002, 4.2).

    Other p, for which the theorem does not apply (|g|^p is not entire),
    take adaptive quadrature on the window with panels resolving the
    oscillation at frequency sigma.

    ``even`` states that |g(-x)| = |g(x)| (``TestFunction.abs_even``), so
    that |g|^p is even.  Then g is called on the M + 1 nodes 0 <= n <= M
    only and S = h (G_0 + 2 sum_{n >= 1} G_n), which is the symmetric sum
    exactly; doubling is exact, so the rounding term stands.  At other p
    the quadrature runs on [0, X] with the same panel width, and its
    integral and error are doubled before the one p-th root.
    """
    try:
        budget = quad.abs_tol ** p
    except OverflowError:  # no tail is that large: the window's floor
        budget = math.inf
    cutoff = env.cutoff_for_tail(budget, p)
    cutoff = max(50.0, min(_X_MAX, cutoff))

    def power(x):
        return np.abs(np.asarray(g(x))) ** p

    if p % 2 == 0 and sigma > 0:
        M = cutoff * p * sigma / (2.0 * math.pi)  # inf at huge p
        M = math.floor(M) + 1 if math.isfinite(M) else M
        _check_nodes(M + 1 if even else 2 * M + 1, f"the L^{p:g} sampling "
                     f"sum for type {sigma:g} needs")
        h = cutoff / M
        tail = env.tail_lp(M * h, p) ** (1.0 / p)
        head = rest = 0.0
        for start in range(0 if even else -M, M + 1, _SAMPLING_PASS):
            G = power(h * np.arange(start,
                                    min(start + _SAMPLING_PASS, M + 1)))
            if even and start == 0:
                head, G = float(G[0]), G[1:]
            rest += float(np.sum(G))
        total = h * (head + 2.0 * rest) if even else h * rest
        rounding = (2 * M + 1) * math.ulp(1.0) * total
        return _root_norm(total, rounding, p, tail)
    tail = env.tail_lp(cutoff, p) ** (1.0 / p)
    integral, err = integrate(power, 0.0 if even else -cutoff, cutoff, quad,
                              max_panel_width=_osc_width(sigma))
    scale = 2.0 if even else 1.0
    return _root_norm(scale * float(integral), scale * float(err), p, tail)


def lp_norm_line(f: TestFunction, p: float,
                 quad: Optional[QuadratureSpec] = None) -> NormEstimate:
    """Real-line L^p norm of a catalog member."""
    if p == INF:
        raise ValueError("use sup_norm_certified for p = inf")
    if not f.p_membership.contains(p):
        raise ValueError(f"{f.id} is not a member of B^{p:g}")
    quad = quad or QuadratureSpec()
    return _lp_norm_envelope(f.eval_real, f.decay, p, quad, f.sigma,
                             f.abs_even)


def sup_norm_certified(F: Callable, sigma_eff: float, a: float,
                       b: float) -> SupNormCertificate:
    """Certified upper bound on sup |F| over [a, b] for F of exponential
    type <= sigma_eff whose sup over the real line is its sup over [a, b]
    (or |F| of such an F).  A point is within h/2 of a grid node, so by the
    Bernstein modulus bound |F(x)| <= grid_max + c ||F||_inf and ||F||_inf
    <= grid_max / (1 - c), c = 2 sin(sigma_eff h / 4) <= 0.1 for step h.

    The grid holds at most ``quadrature.MAX_NODES`` points; more raise
    ValueError before it is built."""
    if not 0 < sigma_eff < INF:
        raise ValueError("sigma_eff must be positive and finite")
    if not -INF < a < b < INF:
        raise ValueError("interval requires finite a < b")
    h_max = (4.0 / sigma_eff) * math.asin(0.5 * _CONTRACTION)
    n = float(np.ceil((b - a) / h_max)) + 1.0  # may overflow to inf
    _check_nodes(n, f"the sup grid on [{a:g}, {b:g}] for type "
                 f"{sigma_eff:g} needs")
    grid = np.linspace(a, b, max(2, int(n)))
    h = float(grid[1] - grid[0])
    contraction = 2.0 * math.sin(0.25 * sigma_eff * h)
    vals = np.abs(np.asarray(F(grid)))
    grid_max = float(vals.max())
    return SupNormCertificate(grid_max=grid_max, spacing=h,
                              certified_bound=grid_max / (1.0 - contraction))


def _sup_norm_line(f: TestFunction) -> float:
    """Upper bound for sup |f| on the real line: one cell of
    :func:`_sampled_sups` on [-X, X] (|f^(k)| <= sigma^k C, Bernstein), on
    its right half for ``f.abs_even``, and the envelope beyond.  It samples
    in passes, so it holds a few values per sampled panel, not the window:
    their count is checked against ``quadrature.MAX_NODES``."""
    env = f.decay
    if env.alpha <= 0:
        raise ValueError("decay envelope too weak for a real-line sup bound")
    cutoff = (env.C / _SUP_ENVELOPE_FLOOR) ** (1.0 / env.alpha) - 1.0
    cutoff = max(50.0, min(_SUP_X_MAX, cutoff))
    panels = _count_panels(cutoff, 4.0 / f.sigma, 1,
                           f"the real-line sup of {f.id} needs", f.abs_even,
                           "panels")
    ((cert, _),) = _sampled_sups(lambda c, x: f.eval_real(x), [cutoff],
                                 [panels], [((f.sigma, env.C),)], f.abs_even)
    return max(cert.certified_bound, float(env.bound(cutoff)))


def _line_norm(f: TestFunction, p: float,
               quad: QuadratureSpec) -> tuple[float, float]:
    """(value, error bound) of ||f||_p on the real line: the catalog's known
    norm when it has one, else the quadrature estimate, or for p = inf the
    certified upper bound (already conservative, so its error is 0)."""
    if p in f.known_norms:
        return f.known_norms[p], 0.0
    if p == INF:
        return _sup_norm_line(f), 0.0
    est = lp_norm_line(f, p, quad)
    return est.value, est.error_bound


def check_plancherel_polya(f: TestFunction, y: float, p: float,
                           quad: Optional[QuadratureSpec] = None) -> InequalityCheck:
    """||f(. + iy)||_p <= ||f||_p * e^{sigma |y|}.  A sigma |y| for which
    e^{sigma |y|} overflows raises ValueError."""
    if not f.sigma * abs(y) <= _LOG_FLOAT_MAX:
        raise ValueError(f"e^(sigma |y|) overflows for sigma={f.sigma:g}, "
                         f"y={y:g}")
    if f.eval_complex is None:
        raise ValueError(f"{f.id} does not support complex evaluation")
    if p == INF or not f.p_membership.contains(p):
        raise ValueError(f"need finite p with {f.id} in B^p")
    quad = quad or QuadratureSpec()

    def along_line(x):
        return f.eval_complex(np.asarray(x, dtype=float) + 1j * y)

    # |sin w| <= e^{|Im w|} style growth: the envelope constant scales by
    # e^{sigma |y|} along the horizontal line (valid in the tail region
    # |x| >= 1, which is all the envelope is used for here).
    env_line = DecayEnvelope(C=f.decay.C * math.exp(f.sigma * abs(y)),
                             alpha=f.decay.alpha)
    lhs = _lp_norm_envelope(along_line, env_line, p, quad, f.sigma,
                            f.abs_even)
    base, base_err = _line_norm(f, p, quad)
    growth = math.exp(f.sigma * abs(y))
    rhs = base * growth
    return InequalityCheck(
        name="plancherel_polya", function_id=f.id, params={"y": y, "p": p},
        lhs=lhs.value, rhs=rhs, margin=rhs - lhs.value,
        error_bound=lhs.error_bound + base_err * growth)


def check_nikolskii(f: TestFunction, r1: float, r2: float,
                    quad: Optional[QuadratureSpec] = None) -> InequalityCheck:
    """||f||_{r2} <= 2 sigma^{1/r1 - 1/r2} ||f||_{r1}."""
    if not 1 <= r1 <= r2:
        raise ValueError("need 1 <= r1 <= r2")
    if not f.p_membership.contains(r1):
        raise ValueError(f"{f.id} is not a member of B^{r1:g}")
    quad = quad or QuadratureSpec()
    base, base_err = _line_norm(f, r1, quad)
    lhs, lhs_err = _line_norm(f, r2, quad)

    inv1 = 0.0 if r1 == INF else 1.0 / r1
    inv2 = 0.0 if r2 == INF else 1.0 / r2
    factor = 2.0 * f.sigma ** (inv1 - inv2)
    rhs = factor * base
    return InequalityCheck(
        name="nikolskii", function_id=f.id, params={"r1": r1, "r2": r2},
        lhs=lhs, rhs=rhs, margin=rhs - lhs,
        error_bound=lhs_err + factor * base_err)


def check_poly_nikolskii(a: TrigApproximant, p: float,
                         quad: Optional[QuadratureSpec] = None) -> InequalityCheck:
    """||Q||_inf <= 2 N^{1/p} ||Q||_p on the torus, for the degree-N
    polynomial u(t) = f_tau(tau t / pi).

    ||u||_{L^p[-pi, pi]} = (pi / tau)^{1/p} ||f_tau||_{L^p[-tau, tau]} by
    the change of variables t = pi x / tau; the norm of f_tau is the
    interior rule of :func:`_interior_lp` on the :func:`_level` of 0 at
    the coefficient ladder's first panel count n (:func:`_first_level`),
    and at 2n where the rule needs it, and its error bound scales by the
    same factor.  ||u||_inf is the sup of f_tau over [-tau, tau], certified
    by the same rule, on the right half where the c_k are real to within
    its remainder terms (g = 0 is even).
    """
    if not 1 <= p < INF:
        raise ValueError("p must satisfy 1 <= p < inf")
    if a.N < 1:
        raise ValueError("need N >= 1")
    quad = quad or QuadratureSpec()
    N = a.N
    n = _first_level(a.sigma, a.tau, f"the interior L^{p:g} rule at "
                     f"tau={a.tau:g} needs")
    norm, cert = _interior_lp(0.0, a, p, quad,
                              _level(np.zeros_like, a.tau, N, n),
                              np.zeros_like, True)
    factor = 2.0 * N ** (1.0 / p) * (math.pi / a.tau) ** (1.0 / p)
    rhs = factor * norm.value
    return InequalityCheck(
        name="poly_nikolskii", function_id=f"approximant:tau={a.tau:g}",
        params={"p": p, "N": N},
        lhs=cert.certified_bound, rhs=rhs,
        margin=rhs - cert.certified_bound,
        error_bound=factor * norm.error_bound)


def decomposition_F123(f: TestFunction, tau: float, delta: float, x: float,
                       quad: Optional[QuadratureSpec] = None) -> DecompositionValues:
    """The three diagnostic integrals whose combination F1 + F2 - F3
    reproduces f - f_tau pointwise."""
    if not f.p_membership.contains(1.0):
        raise ValueError(f"{f.id} is not a member of B^1")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if abs(x) > tau:
        raise ValueError("|x| must not exceed tau")
    quad = quad or QuadratureSpec()
    sigma = f.sigma
    N = n_terms(sigma, tau)
    width = min(1.0, math.pi / (2.0 * (sigma + math.pi * N / tau + 1.0)))
    dt = delta * tau

    def inner_sinc(t):
        return np.asarray(f.eval_real(t)) * np.asarray(sinc_kernel(sigma, x - t))

    def inner_gap(t):
        return np.asarray(f.eval_real(t)) * np.asarray(kernel_gap(sigma, tau, x - t))

    def inner_dirichlet(t):
        return (np.asarray(f.eval_real(t))
                * np.asarray(dirichlet(N, math.pi * (x - t) / tau))
                / (2.0 * tau))

    i1, e1 = integrate(inner_sinc, -dt, dt, quad, max_panel_width=width)
    f1 = complex(np.asarray(f.eval_real(x))[()]) - complex(i1)
    i2, e2 = integrate(inner_gap, -dt, dt, quad, max_panel_width=width)
    i3r, e3r = integrate(inner_dirichlet, dt, tau, quad, max_panel_width=width)
    i3l, e3l = integrate(inner_dirichlet, -tau, -dt, quad, max_panel_width=width)
    return DecompositionValues(f1=f1, f2=complex(i2),
                               f3=complex(i3r) + complex(i3l),
                               error_bound=float(e1 + e2 + e3r + e3l))


def convergence_study(f: TestFunction, p: float, tau_list: Sequence[float],
                      quad: Optional[QuadratureSpec] = None) -> list[ConvergenceRecord]:
    """Per-tau error decomposition of f - phi_{f,tau}: interior L^p error
    on [-tau, tau], analytic envelope tail on |x| > tau, and a certified
    sup bound of f - f_tau on [-tau, tau]."""
    if not 1 < p < INF:
        raise ValueError("p must satisfy 1 < p < inf")
    if not f.p_membership.contains(p):
        raise ValueError(f"{f.id} is not a member of B^{p:g}")
    if f.decay.alpha * p <= 1:
        raise ValueError("non-integrable tail envelope")
    if list(tau_list) != sorted(tau_list) or len(set(tau_list)) != len(tau_list):
        raise ValueError("tau_list must be strictly increasing")
    quad = quad or QuadratureSpec()

    records = []
    for tau in tau_list:
        a, level = _coefficient_ladder(f, tau, quad)
        interior, sup_cert = _interior_lp(f.decay.C, a, p, quad, level,
                                          f.eval_real, f.abs_even)
        # in units of 2^e where the envelope's p-th power at tau is below
        # 2^-512, as in the interior rule, or above 2^512
        e = _power_scale(f.decay.bound(tau), p, True)
        tail_integral = f.decay.tail_lp(tau, p, e)
        try:
            tail_value = math.ldexp(tail_integral ** (1.0 / p), e)
        except OverflowError:
            raise ValueError(f"the envelope tail at tau={tau:g} overflows"
                             ) from None
        tail = NormEstimate(tail_value, tail_value, tail_value)
        try:
            total = math.ldexp((math.ldexp(interior.value, -e) ** p
                                + tail_integral) ** (1.0 / p), e)
        except OverflowError:  # the tail is below an ulp of the interior
            total = interior.value
        records.append(ConvergenceRecord(tau=float(tau), p=float(p),
                                         interior_error=interior,
                                         tail_error=tail,
                                         total_error=total,
                                         sup_error=sup_cert))
    return records


def _interior_lp(g_sup: float, a: TrigApproximant, p: float,
                 quad: QuadratureSpec, level: tuple, g, even: bool = False
                 ) -> tuple[NormEstimate, SupNormCertificate]:
    """||g - f_tau||_{L^p[-tau, tau]} by a fixed panel rule on F = g - f_tau,
    and the certified sup of |F| on [-tau, tau], from F on the panel nodes
    of one or two levels.  g is f for the truncation error of f (type
    ``a.sigma``, and ``g_sup = f.decay.C`` >= sup |f|), or 0 with
    g_sup = 0 for f_tau itself.

    ``level`` is the :func:`_level` of g at n equal panels, n > 2N: for f,
    the one that the coefficient ladder hands :func:`convergence_study`,
    so that f is not sampled again there; for 0, the level of
    :func:`check_poly_nikolskii`.  The rule builds level 2n from ``g``
    where it needs it.  f_tau on each level is one :func:`_on_panels`, so
    F is real for real g and f_tau.
    :func:`_panel_sup` takes the sup once, on the quarters of the level-n
    panels, whatever p, with Bernstein's
    |F^(j)| <= a.sigma^j g_sup + (pi N / tau)^j sum |c_k|.  ``even``
    states that g(-x) = conj g(x) on the real line (``f.abs_even``, or
    g = 0); then F(-x) - conj F(x) = sum_k (conj c_k - c_k)
    e^(-i pi k x / tau), so |F(-x)| <= |F(x)| + 2 sum |Im c_k|, the defect
    with which :func:`_panel_sup` may certify the right half alone.

    At even p, level n alone is the rule where the proved bound of
    :func:`_gauss_bound` on |F|^p is at most rel_tol times its Gauss sum;
    its error is then that bound plus stated rounding (README, "Not every
    error column is a bound").  Otherwise, and at other p, each panel of
    level n has a coarse Gauss value from level n and a fine one from its
    two halves on level 2n.  For other p, |F|^p has a kink
    at each real zero of F, found by :func:`_real_zeros`.  The level-n
    panels within a level-2n panel of such a zero merge into stretches,
    which are cut at the zeros into parts.  Each part is split at its
    middle into a pair of pieces, each taking the rule of
    :func:`_piece_nodes` with exponent 3 from its outer end (3 ORDER nodes:
    ORDER against two halves of ORDER).  Complex F, as for ``mollify`` of
    ``expi``, has no such zeros.  A panel or piece whose coarse and fine
    values differ by more than max(abs_tol, rel_tol S) times its share of
    [-tau, tau], S the sum of the level-n values, as in :func:`integrate`
    (whose panels take the same rule with exponent 1), falls back on
    :func:`integrate` over its interval.

    The pieces and the fallback take F from :func:`_interpolate` of the
    level-2n values, which errs by the Hermite-Genocchi term of
    :func:`_panel_sup` (F is entire of type a.sigma), about
    1.3e-22 (g_sup + sum |c_k|) at half-widths up to pi / (8 a.sigma).
    The integral is the sum of the fine values and of the fallback
    integrals, and its error that of the differences and of the fallback
    errors.  That error is an estimate: it leaves out rounding, of the node
    values and of the interpolant (up to its Lebesgue constant 6.85 times
    theirs, :func:`_cheb_maps`), and at p not an even integer a zero of F
    that changes no sign at the level-2n nodes is not split at.

    The rule scales once: right after the sup, e of :func:`_power_scale`
    for its ``grid_max``, the largest level-n |F|, and where e != 0, F,
    g_sup and sum |c_k| are multiplied by 2^-e in place, and so is level 2n
    where it is built.  Every later value (the power sums, the Gauss bound,
    the rounding terms, the zero threshold) is in these units, exact as
    2^-e is a power of two, and :func:`_scaled_norm` scales the norm back.
    ValueError: a level value that is not finite (|F|^p overflows, checked
    on level n before the sup), a certified sup that is not finite (|F|
    beyond about 1e154), or an integral below the smallest normal float
    while some node value is nonzero.
    """
    tau = a.tau
    coeff_sum = float(np.abs(a.coefficients).sum())
    derivs = ((a.sigma, g_sup), (math.pi * a.N / tau, coeff_sum))
    hw, diff = _gap(a, *level)
    defect = (2.0 * float(np.abs(a.coefficients.imag).sum()) if even
              else math.inf)
    sup_cert = _panel_sup(diff, hw, derivs, defect)
    e = _power_scale(sup_cert.grid_max, p)
    if e:
        diff *= math.ldexp(1.0, -e)
        g_sup, coeff_sum = math.ldexp(g_sup, -e), math.ldexp(coeff_sum, -e)
    coarse = _power_sums(diff, hw, p, tau)
    if not math.isfinite(sup_cert.certified_bound):
        raise ValueError(f"the certified sup of the interior error at "
                         f"tau={tau:g} is not finite")
    if p % 2 == 0:
        integral = float(coarse.sum())
        bound = _gauss_bound(g_sup + coeff_sum,
                             max(a.sigma, math.pi * a.N / tau), p, hw, tau)
        if bound <= quad.rel_tol * integral:
            eps, stages = math.ulp(1.0), (len(diff) - 1).bit_length()
            parts = 2 if np.iscomplexobj(diff) else 1
            node_err = parts * (4 * stages + 8) * eps * coeff_sum
            err = (bound + (ORDER + stages + 16) * eps * integral
                   + p * node_err * (2.0 * tau) ** (1.0 / p)
                   * integral ** (1.0 - 1.0 / p))
            return _scaled_norm(integral, err, p, e, tau, sup_cert)
    hw, diff = _gap(a, *_level(g, tau, a.N, 2 * len(diff)))
    if e:
        diff *= math.ldexp(1.0, -e)
    halves = _power_sums(diff, hw, p, tau)
    fine = halves[0::2] + halves[1::2]
    scale = float(np.abs(coarse).sum())
    edges = np.linspace(-tau, tau, len(coarse) + 1)
    lefts, rights = edges[:-1], edges[1:]

    def power(x):
        return np.abs(_interpolate(diff, tau, x)) ** p

    if p % 2:
        held, roots = _real_zeros(diff, tau,
                                  32.0 * math.ulp(1.0) * (g_sup + coeff_sum))
        if roots.size:
            ends, half = _pieces(edges, held, roots)
            _check_nodes(3 * ORDER * len(ends), f"the interior L^{p:g} "
                         f"pieces at tau={tau:g} need")
            x = _piece_nodes(ends, half, 3)
            pc, pf = _piece_sums(power(x.ravel()).reshape(x.shape), half, 3)
            keep = ~held
            coarse = np.concatenate([coarse[keep], pc])
            fine = np.concatenate([fine[keep], pf])
            lefts = np.concatenate([lefts[keep],
                                    np.minimum(ends, ends + half)])
            rights = np.concatenate([rights[keep],
                                     np.maximum(ends, ends + half)])
    spread = np.abs(coarse - fine)
    tol = max(quad.abs_tol, quad.rel_tol * scale) * (rights - lefts) \
        / (2.0 * tau)
    ok = spread <= tol
    integral = float(fine[ok].sum())
    err = float(spread[ok].sum())
    for lo, hi in zip(lefts[~ok], rights[~ok]):
        value, value_err = integrate(power, lo, hi, quad)
        integral += float(value)
        err += float(value_err)
    return _scaled_norm(integral, err, p, e, tau, sup_cert)


def _gap(a: TrigApproximant, samples, tables):
    """(hw, F): the half-width of a :func:`_level` of g and F = g - f_tau
    at its nodes, in the buffer of f_tau."""
    values = _on_panels(a.coefficients, len(samples), tables)
    return a.tau / len(samples), np.subtract(samples, values, out=values)


def _power_scale(peak: float, p: float, both: bool = False) -> int:
    """e with 2^-e ``peak`` in [1/2, 1) where 0 < peak^p < 2^-512, and for
    ``both`` also where inf > peak^p > 2^512, else 0: a power-of-two
    scaling, exact, that keeps |2^-e F|^p and its sums above the underflow
    threshold, and for ``both`` below the overflow threshold."""
    log = p * math.log2(peak) if 0 < peak < math.inf else 0.0
    return math.frexp(peak)[1] if log < -512 or both and log > 512 else 0


def _power_sums(diff, hw: float, p: float, tau: float):
    """The Gauss value hw sum_q w_q |F|^p of each panel, for F (already
    scaled by the interior rule) at a level's nodes in ``diff``; ValueError
    where one is not finite."""
    power = np.abs(diff)
    with np.errstate(over="ignore"):
        power **= p
    sums = hw * (power @ _nodes(ORDER)[1])
    if not np.isfinite(sums).all():
        raise ValueError(f"the interior L^{p:g} integral at tau={tau:g} "
                         f"overflows")
    return sums


def _scaled_norm(integral: float, err: float, p: float, e: int, tau: float,
                 sup_cert: SupNormCertificate):
    """(:func:`_root_norm` of the integral of |2^-e F|^p, times 2^e, and
    ``sup_cert``); ValueError where the integral underflows."""
    if integral < sys.float_info.min and sup_cert.grid_max > 0:
        raise ValueError(f"the interior L^{p:g} integral at tau={tau:g} "
                         f"underflows")
    est = _root_norm(integral, err, p)
    if e:
        est = NormEstimate(math.ldexp(est.value, e),
                           math.ldexp(est.error_bound, e))
    return est, sup_cert


def _real_zeros(diff, tau: float, delta: float):
    """(held, zeros): the real zeros of F, sorted, from its (2n, ORDER)
    values ``diff`` at the :func:`_panel_nodes` of 2n panels on
    [-tau, tau], and the mask of the n level-n panels that overlap the
    level-2n panel of a zero or either neighbour of it.  A zero just outside
    a panel slows its Gauss rule too, hence the neighbours.

    A zero is taken at each sign change of Re F between consecutive nodes
    where |Re F| is above ``delta`` at one of them, and, for complex F,
    |Im F| is at most ``delta`` at both; it is located by
    :func:`_bracketed_roots`.  ``delta`` bounds the rounding of F: f_tau
    from the inverse FFT rounds to about eps sum |c_k|, g to eps g_sup.
    For real f, F is a real array, with no imaginary part to round."""
    re = diff.real.ravel()
    change = ((np.signbit(re[:-1]) != np.signbit(re[1:]))
              & (np.maximum(np.abs(re[:-1]), np.abs(re[1:])) > delta))
    if np.iscomplexobj(diff):
        im = np.abs(diff.imag.ravel())
        change &= np.maximum(im[:-1], im[1:]) <= delta
    brackets = np.flatnonzero(change)
    near = (brackets[:, None] + [0, 1]) // ORDER  # level-2n panels
    near = np.concatenate([near - 1, near + 1]) // 2
    held = np.zeros(len(diff) // 2, dtype=bool)
    held[np.clip(near, 0, len(held) - 1)] = True
    return held, _bracketed_roots(diff.real, tau, brackets)


def _pieces(edges, held, roots):
    """(ends, lengths) of the pieces of :func:`_piece_nodes`: the runs of
    consecutive panels [edges[j], edges[j + 1]] with ``held[j]`` are cut at
    the sorted ``roots`` (all of which lie in such runs), and each part
    [l, r] of nonzero length at its middle m, into the pieces from l to m
    and from r back to m."""
    change = np.diff(np.concatenate([[0], held.astype(np.int8), [0]]))
    starts, stops = np.flatnonzero(change == 1), np.flatnonzero(change == -1)
    points = np.concatenate([edges[starts], roots, edges[stops]])
    kinds = np.repeat([0, 1, 2], [len(starts), len(roots), len(stops)])
    order = np.lexsort((kinds, points))
    points, kinds = points[order], kinds[order]
    part = (kinds[:-1] != 2) & (points[1:] > points[:-1])
    lefts, rights = points[:-1][part], points[1:][part]
    half = 0.5 * (rights - lefts)
    return np.concatenate([lefts, rights]), np.concatenate([half, -half])


def _exp_n_terms(sigma: float, tau: float) -> int:
    """N of e^(i omega x) at tau, |omega| = sigma; ValueError when its
    2N + 1 coefficients exceed ``quadrature.MAX_NODES``."""
    N = n_terms(sigma, tau)
    _check_nodes(2.0 * N + 1.0, f"e^(i omega x) at tau={tau:g} needs",
                 "coefficients")
    return N


def exp_coefficients(tau: float, omega: float = 1.0) -> TrigApproximant:
    """Closed-form coefficients of e^{i omega x}, c_k = sinc(omega tau - pi k),
    by :func:`_exp_coefficient_row`.

    At most ``quadrature.MAX_NODES`` coefficients; more raise ValueError before
    any array is built."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    sigma = abs(omega)
    N = _exp_n_terms(sigma, tau)
    coeffs = _exp_coefficient_row(omega * tau, N)
    return TrigApproximant(tau=float(tau), sigma=sigma, N=N,
                           coefficients=coeffs, coeff_error=0.0)


def _exp_coefficient_row(u, N):
    """Coefficients c_k = sinc(u - pi k) of e^{i omega x} at omega tau = u
    for |k| <= N, as 2N + 1 real values.

    One sine in all: c_k = (-1)^k sin(u) / d with d = u - pi k.  The
    computed d is off by about eps |u|.  That error reaches c_k as
    |sin u| eps |u| / d^2 here, and as eps |u| |sinc'(d)| in sinc_ratio(d),
    whose sine is taken at the computed d; |sinc'(d)| is at most about
    1 / |d|, and |d| / 3 near 0.  So the one-sine form is the more accurate
    where |d| >= 1 >= |sin u|, and sinc_ratio(d) is taken where |d| < 1,
    which, as pi > 2, is at most one k: k = rint(u / pi).
    """
    row = u - math.pi * np.arange(-N, N + 1)
    np.negative(row[(N + 1) % 2::2], out=row[(N + 1) % 2::2])
    k_near = np.rint(u / math.pi)
    near = abs(k_near) <= N and abs(u - math.pi * k_near) < 1.0
    if near:
        row[int(k_near) + N] = 1.0
    np.divide(np.sin(u), row, out=row)
    if near:
        row[int(k_near) + N] = sinc_ratio(u - math.pi * k_near)
    return row


def counterexample_run(m_list: Sequence[int]) -> list[tuple[float, float]]:
    """Im(f - f_{tau_m})(tau_m) for f = e^{ix}, tau_m = pi/2 + 2 pi m, in
    the order of ``m_list``.

    The identity forces the value 1 for every m, witnessing the failure of
    sup-norm convergence for p = inf.  Every m, its coefficient count and
    the total count over all m (at most ``MAX_COUNTEREXAMPLE_COEFFS``) are
    checked before any array is built.

    With u = tau_m, c_k = sinc(u - pi k) and theta = pi x / tau at x = tau,
    rounded as :meth:`TrigApproximant.evaluate` rounds it, the value is
    sin u - sin(u) S, S = sum_{|k| <= N} sin(k eps) / (u - pi k), since
    (-1)^k sin(k theta) = sin(k eps) for eps = theta - pi.  theta is
    fl(pi) or one of its two neighbours, so eps = (theta - fl(pi)) -
    (pi - fl(pi)) takes one rounding.  No sinc_ratio term is needed:
    |u - pi k| >= pi / 2 for every k.  With N = 2m and j = N - k,
    u - pi k = pi (j + 1/2) + delta, delta the rounding of tau, and

        S = (eps / pi) ((N + 1/2) H(2N) - (2N + 1)),
        H(n) = sum_{j <= n} 1 / (j + 1/2),

    up to two approximations.  sin(k eps) = k eps is off by a relative
    (N eps)^2 / 6, and |N eps| <= 1.2e-9 under the node limit; dropping
    delta moves S by at most N |eps delta| / 2.  H comes from one prefix
    sum over j <= 2 max N, off by at most (2N + 1) eps relative.  At the
    largest m the node limit admits each is below 1e-17 absolute, so the
    drift of the value from 1, about 1e-9 at m = 10^6, is that of the exact
    sum at the rounded theta.
    """
    try:
        m = np.array(m_list, dtype=float)
    except OverflowError:  # an int beyond the float range; NaN stands in
        m = np.array([v if abs(v) < 2 ** 1024 - 2 ** 970 else math.nan
                      for v in m_list], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        valid = (1.0 <= m) & (m < math.inf) & (np.floor(m) == m)
        stop = len(m) if valid.all() else int(np.argmin(valid))
        tau = 0.5 * math.pi + 2.0 * math.pi * m[:stop]
        counts = _nudged_floor(1.0 * tau / math.pi)
    # The m before ``stop`` are checked in order, as if one by one: the
    # first whose N (that of n_terms(1, tau), inf at tau = inf) fails
    # _exp_n_terms, unless an earlier m takes the total above the limit.
    bad = np.flatnonzero(~(2.0 * counts + 1.0 <= quadrature.MAX_NODES))
    checked = bad[0] if len(bad) else stop
    counts = counts[:checked].astype(np.intp)
    total = np.cumsum(2 * counts + 1)
    over = np.searchsorted(total, MAX_COUNTEREXAMPLE_COEFFS, side="right")
    if over < checked:
        raise ValueError(
            f"m_list needs at least {total[over]} coefficients in all, above "
            f"the limit of {MAX_COUNTEREXAMPLE_COEFFS}")
    if checked < stop:
        _exp_n_terms(1.0, tau[checked])  # raises that m's message
    if stop < len(m):  # the first m that is no positive integer or no float
        v = m_list[stop]
        raise ValueError("m_list holds a value beyond the float range"
                         if 1 <= v < math.inf and int(v) == v else
                         "m_list must contain positive integers")
    eps = (tau * (math.pi / tau) - math.pi) - _PI_LOW
    harmonic = _half_harmonic(2 * counts.max(initial=0))[2 * counts]
    sin_u = np.sin(tau)
    gaps = sin_u - sin_u * (eps / math.pi * ((counts + 0.5) * harmonic
                                             - (2 * counts + 1)))
    return list(zip(tau.tolist(), gaps.tolist()))


def _half_harmonic(n):
    """H(j) = sum_{i <= j} 1 / (i + 1/2) for 0 <= j <= n, in one buffer."""
    h = np.arange(0.5, n + 1)
    np.reciprocal(h, out=h)
    return np.cumsum(h, out=h)

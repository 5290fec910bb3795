"""Catalog of concrete bandlimited test functions with exact metadata.

Every catalog member carries its exponential type, a conservative decay
envelope |f(x)| <= C / (1 + |x|)^alpha used for analytic tail bounds, the
set of p for which it lies in the corresponding L^p Bernstein space, and
any exactly known norms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

INF = math.inf


def sinc_ratio(u):
    """sin(u)/u, and 1 where u == 0 (0.0, -0.0 or 0j).

    The quotient needs no series near 0: sin(u) and the division each round
    to about an ulp, and for |u| below about 1e-8 sin(u) rounds to u.
    Against 40-digit mpmath it was within 1 ulp on real u in [1e-300, 3e-4]
    and within 4.5e-16 relative on complex u with |u| in [1e-12, 6e-5].
    Accepts real or complex scalars and arrays; returns an array, 0-d for a
    scalar.
    """
    u = np.asarray(u)
    with np.errstate(invalid="ignore"):  # 0 / 0 at u == 0, overwritten
        out = np.asarray(np.sin(u) / u)
    out[u == 0] = 1.0
    return out


def _maybe_scalar(res, x):
    if np.ndim(x) == 0:
        return np.asarray(res)[()]
    return res


@dataclass(frozen=True)
class DecayEnvelope:
    """Bound |f(x)| <= C / (1 + |x|)^alpha valid for all real x."""

    C: float
    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.C) and math.isfinite(self.alpha)):
            raise ValueError("decay envelope constants must be finite")

    def bound(self, x):
        return self.C / (1.0 + np.abs(x)) ** self.alpha

    def tail_lp(self, cutoff: float, p: float, e: int = 0) -> float:
        """Integral of (2^-e bound(x))^p over |x| > cutoff (requires
        alpha*p > 1); the exact scaling 2^-e keeps the p-th power of a
        small bound above the underflow threshold.  A value beyond the
        float range, or for C > 0 below the smallest normal float, raises
        ValueError."""
        ap = self.alpha * p
        if ap <= 1:
            raise ValueError("non-integrable tail envelope")
        try:
            value = (2.0 * math.ldexp(self.bound(cutoff), -e) ** p
                     * (1.0 + cutoff) / (ap - 1.0))
        except OverflowError:
            value = math.inf
        what = (f"the envelope tail integral for C={self.C:g}, "
                f"alpha={self.alpha:g}, p={p:g} beyond {cutoff:g}")
        if not math.isfinite(value):
            raise ValueError(f"{what} overflows")
        if self.C > 0 and value < sys.float_info.min:
            raise ValueError(f"{what} underflows")
        return value

    def cutoff_for_tail(self, budget: float, p: float) -> float:
        """Smallest X with tail_lp(X, p) <= budget, computed in logs so that
        a large C ** p does not overflow; inf when X is beyond the float
        range or the budget is not positive."""
        ap = self.alpha * p
        if ap <= 1:
            raise ValueError("non-integrable tail envelope")
        if self.C == 0:
            return 0.0
        if not budget > 0:
            return math.inf
        log_base = (math.log(2.0 / (ap - 1.0)) + p * math.log(self.C)
                    - math.log(budget))
        if log_base <= 0.0:
            return 0.0
        try:
            return math.expm1(log_base / (ap - 1.0))
        except OverflowError:
            return math.inf


@dataclass(frozen=True)
class PMembership:
    """Up-set of [1, inf] describing Bernstein-space membership in p.

    Membership is monotone: p in the set and r >= p implies r in the set,
    so a lower endpoint plus an inclusivity flag characterizes it.
    """

    p_min: float
    min_inclusive: bool = True

    def contains(self, p: float) -> bool:
        if p < 1:
            return False
        if p == INF:
            return self.p_min < INF or self.min_inclusive
        if p > self.p_min:
            return True
        return self.min_inclusive and p == self.p_min


@dataclass(frozen=True)
class TestFunction:
    """A catalog member.  ``abs_even``: f(-x + iy) = conj f(x + iy) for all
    real x, y, so |f(-x + iy)| = |f(x + iy)|."""

    id: str
    sigma: float
    eval_real: Callable
    eval_complex: Optional[Callable]
    decay: DecayEnvelope
    p_membership: PMembership
    known_norms: Mapping[float, float] = field(default_factory=dict)
    abs_even: bool = False

    def __call__(self, x):
        return self.eval_real(x)


def _from_formula(formula: Callable, complex_ok: bool = True,
                  **fields) -> TestFunction:
    """A TestFunction whose evaluators apply ``formula`` to the input cast
    to float64 (eval_real) or complex (eval_complex, None unless
    ``complex_ok``); 0-d input gives a numpy scalar."""

    def evaluator(dtype):
        def ev(x):
            x = np.asarray(x, dtype=dtype)
            return _maybe_scalar(formula(x), x)
        return ev

    evc = evaluator(complex) if complex_ok else None
    return TestFunction(eval_real=evaluator(float), eval_complex=evc, **fields)


def make_sinc(sigma: float) -> TestFunction:
    """f(x) = sin(sigma x) / (pi x), type sigma, peak sigma/pi at 0."""
    if not 0 < sigma < INF:
        raise ValueError("sigma must be positive and finite")
    s = float(sigma)
    return _from_formula(
        lambda x: s / math.pi * sinc_ratio(s * x),
        id=f"sinc:sigma={s:g}", sigma=s,
        decay=DecayEnvelope(C=2.0 * max(1.0, s) / math.pi, alpha=1.0),
        p_membership=PMembership(1.0, min_inclusive=False),
        known_norms={2.0: math.sqrt(s / math.pi), INF: s / math.pi},
        abs_even=True)


def make_complex_exponential(omega: float) -> TestFunction:
    """f(x) = e^{i omega x}; bounded, no decay, member of B^inf only."""
    if omega == 0:
        raise ValueError("omega must be nonzero (constants are out of catalog)")
    if not math.isfinite(omega):
        raise ValueError("omega must be finite")
    w = float(omega)
    return _from_formula(
        lambda x: np.exp(1j * w * x),
        id=f"expi:omega={w:g}", sigma=abs(w),
        decay=DecayEnvelope(C=1.0, alpha=0.0),
        p_membership=PMembership(INF, min_inclusive=True),
        known_norms={INF: 1.0}, abs_even=True)


def make_fejer_square(sigma: float) -> TestFunction:
    """f(x) = (sin(sigma x / 2) / (sigma x / 2))^2, type sigma, f(0) = 1."""
    if not 0 < sigma < INF:
        raise ValueError("sigma must be positive and finite")
    s = float(sigma)
    return _from_formula(
        lambda x: sinc_ratio(0.5 * s * x) ** 2,
        id=f"fejer_square:sigma={s:g}", sigma=s,
        # Conservative constant: 4/sigma^2 alone fails near |x| = 1.
        decay=DecayEnvelope(C=max(4.0, 16.0 / s / s), alpha=2.0),
        p_membership=PMembership(1.0, min_inclusive=True),
        known_norms={1.0: 2.0 * math.pi / s,
                     2.0: math.sqrt(4.0 * math.pi / (3.0 * s)), INF: 1.0},
        abs_even=True)


def mollify(f: TestFunction, rho: float) -> TestFunction:
    """f_rho(x) = (sin(rho x)/(rho x))^2 * f((1 - rho^2) x).

    The weight has type 2*rho and the dilated factor type
    (1 - rho^2)*sigma, so the product has type 2*rho + (1 - rho^2)*sigma.
    That value is stored as sigma: it can exceed the original sigma, and
    undershooting the type would break the bandwidth-dependent machinery
    built on top (coefficient counts, certificate spacings).  The weight is
    even with real Taylor coefficients, so w(-x + iy) = conj w(x + iy), and
    f_rho keeps ``f.abs_even``.
    """
    if not 0 < rho < 1:
        raise ValueError("rho must lie in (0, 1)")
    if not math.isfinite(f.sigma):
        raise ValueError("the base function must have a finite type")
    r = float(rho)
    shrink = 1.0 - r * r

    def formula(x):
        base = f.eval_complex if np.iscomplexobj(x) else f.eval_real
        return sinc_ratio(r * x) ** 2 * np.asarray(base(shrink * x))

    env = f.decay
    return _from_formula(
        formula, complex_ok=f.eval_complex is not None,
        id=f"mollify:base={f.id.replace(':', ',', 1)},rho={r:g}",
        sigma=2.0 * r + shrink * f.sigma,
        decay=DecayEnvelope(C=4.0 * env.C / r / r / shrink ** env.alpha,
                            alpha=env.alpha + 2.0),
        p_membership=PMembership(1.0, min_inclusive=True),
        abs_even=f.abs_even)


class UnknownFunctionError(ValueError):
    """Raised for malformed or unrecognized catalog id strings."""


def _parse_params(text: str) -> dict:
    params = {}
    if text:
        for item in text.split(","):
            key, sep, val = item.partition("=")
            if not sep or not key or not val:
                raise UnknownFunctionError(
                    f"malformed parameter {item!r} (expected key=value)")
            params[key] = val
    return params


def _pop_float(params: dict, key: str, fn_name: str) -> float:
    if key not in params:
        raise UnknownFunctionError(f"{fn_name} requires parameter {key!r}")
    raw = params.pop(key)
    try:
        return float(raw)
    except ValueError as exc:
        raise UnknownFunctionError(
            f"parameter {key}={raw!r} is not a number") from exc


def from_id(text: str) -> TestFunction:
    """Build a catalog member from an id like ``sinc:sigma=1``.

    Supported ids:
      sinc:sigma=S
      expi:omega=W
      fejer_square:sigma=S
      mollify:base=NAME,<base params>,rho=R
    """
    name, _, rest = text.partition(":")
    params = _parse_params(rest)
    try:
        if name == "sinc":
            f = make_sinc(_pop_float(params, "sigma", name))
        elif name == "expi":
            f = make_complex_exponential(_pop_float(params, "omega", name))
        elif name == "fejer_square":
            f = make_fejer_square(_pop_float(params, "sigma", name))
        elif name == "mollify":
            if "base" not in params:
                raise UnknownFunctionError("mollify requires parameter 'base'")
            base_name = params.pop("base")
            if base_name == "mollify":
                raise UnknownFunctionError("nested mollify is not supported")
            rho = _pop_float(params, "rho", name)
            base_id = base_name
            if params:
                base_id += ":" + ",".join(f"{k}={v}" for k, v in params.items())
                params = {}
            f = mollify(from_id(base_id), rho)
        else:
            raise UnknownFunctionError(f"unknown catalog function {name!r}")
    except ValueError as exc:
        if isinstance(exc, UnknownFunctionError):
            raise
        raise UnknownFunctionError(f"invalid parameters for {name}: {exc}") from exc
    if params:
        raise UnknownFunctionError(
            f"unexpected parameters for {name}: {sorted(params)}")
    return f

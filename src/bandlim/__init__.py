"""Approximation of bandlimited functions by truncated trigonometric sums.

Library layout:

* :mod:`bandlim.quadrature` — adaptive Gauss-Legendre integration and the
  certified sup rule on equal Gauss panels.
* :mod:`bandlim.functions` — catalog of concrete bandlimited test functions.
* :mod:`bandlim.kernels` — Dirichlet/sinc kernels and the certified
  kernel-gap scan.
* :mod:`bandlim.approximation` — the trigonometric approximant f_tau,
  its truncation, and the Lewitan periodization.
* :mod:`bandlim.analysis` — quadrature-backed norms, certified sup norms,
  inequality checkers, and the convergence experiments.
* :mod:`bandlim.cli` — reproducible command-line experiments.
"""

from .analysis import (ConvergenceRecord, InequalityCheck, NormEstimate,
                       SupNormCertificate, check_nikolskii,
                       check_plancherel_polya, check_poly_nikolskii,
                       convergence_study, counterexample_run,
                       decomposition_F123, exp_coefficients, lp_norm_interval,
                       lp_norm_line, sup_norm_certified)
from .approximation import (TrigApproximant, evaluate_convolution,
                            fourier_coefficients, lewitan)
from .functions import (DecayEnvelope, PMembership, TestFunction, from_id,
                        make_complex_exponential, make_fejer_square,
                        make_sinc, mollify)
from .kernels import (KernelGapReport, dirichlet, kernel_gap,
                      kernel_gap_bound, kernel_gap_scan, kernel_gap_scans,
                      omega, sinc_kernel)
from .quadrature import QuadratureNonConvergence, QuadratureSpec, integrate

__version__ = "0.1.0"

__all__ = [
    "ConvergenceRecord", "DecayEnvelope", "InequalityCheck",
    "KernelGapReport", "NormEstimate", "PMembership",
    "QuadratureNonConvergence", "QuadratureSpec", "SupNormCertificate",
    "TestFunction", "TrigApproximant", "check_nikolskii",
    "check_plancherel_polya", "check_poly_nikolskii", "convergence_study",
    "counterexample_run", "decomposition_F123", "dirichlet",
    "evaluate_convolution", "exp_coefficients", "from_id",
    "fourier_coefficients", "integrate", "kernel_gap", "kernel_gap_bound",
    "kernel_gap_scan", "kernel_gap_scans", "lewitan", "lp_norm_interval",
    "lp_norm_line", "make_complex_exponential", "make_fejer_square",
    "make_sinc", "mollify", "omega", "sinc_kernel", "sup_norm_certified",
]

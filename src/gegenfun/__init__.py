"""Gegenbauer generating functions, algebraic Legendre/Ferrers closed forms,
and elliptic-integral Poisson kernels, with a coefficient-by-coefficient
verification engine for every identity."""

from .errors import GegenfunError
from .series import TruncatedSeries, mixed_deviation
from .hypergeometric import (
    gamma_fn,
    gauss_2f1_coeffs,
    gauss_2f1_scalar,
    pfq_terminating_all,
    pochhammer,
)
from .gegenbauer import gegenbauer_of_series, gegenbauer_recurrence
from .legendre import Branch, CaseTag, Classification, classify, legendre_p_hypergeometric
from .genfun import algebraicity
from .poisson import elliptic_e, elliptic_k
from .catalog import CATALOG, run_identity

__version__ = "0.1.0"

__all__ = [
    "GegenfunError",
    "TruncatedSeries",
    "mixed_deviation",
    "gamma_fn",
    "gauss_2f1_coeffs",
    "gauss_2f1_scalar",
    "pfq_terminating_all",
    "pochhammer",
    "gegenbauer_of_series",
    "gegenbauer_recurrence",
    "Branch",
    "CaseTag",
    "Classification",
    "classify",
    "legendre_p_hypergeometric",
    "algebraicity",
    "elliptic_e",
    "elliptic_k",
    "CATALOG",
    "run_identity",
    "__version__",
]

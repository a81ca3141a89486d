"""Exact arithmetic for truncated q-series and mock theta congruences.

The package computes coefficient tables for Ramanujan's mock theta
functions f and omega, expands the normalized logarithmic derivative of
the associated twisted Borcherds products, certifies Hecke-eigenform
behaviour modulo prime powers against Sturm bounds, and predicts
explicit congruences for the mock theta coefficients.
"""

from .ntheory import (
    NotInvertible,
    gauss_sum_numeric,
    is_fundamental_discriminant,
    kronecker,
    mod_inverse,
    moebius,
    splitting_type,
)
from .series import (
    EXACT,
    ExponentMismatch,
    NonIntegralNormalization,
    NonUnitConstantTerm,
    Ring,
    RingMismatch,
    Series,
    bernoulli,
    eisenstein,
    eta_product,
)
from .mocktheta import (
    MockTables,
    c_plus,
    c_series,
    cplus_entry,
    f_coeffs,
    omega_coeffs,
    required_depth,
)
from .borcherds import (
    EigenData,
    NonDivisible,
    TwistParams,
    ZeroNormalizer,
    b_from_c,
    c_from_b,
    phi_raw_numeric,
    phi_star,
    predict_coefficient,
)
from .hecke import (
    CongruenceSetting,
    InsufficientPrecision,
    SmallPrime,
    density_scan,
    eigencheck,
    hasse_weight,
    hecke_operator,
    index_gamma0,
    multiplicativity_check,
    sturm_bound,
)
from .qexpr import (
    ExprSyntaxError,
    NonIntegralExponent,
    NonUnitDenominator,
    PoleAtOrigin,
    evaluate,
    parse,
)

__version__ = "0.1.0"

"""Performance analysis of infinite constellations over the unconstrained AWGN channel.

Finite-dimensional error-probability bounds (sphere, ML, typicality),
their analytic sandwiches and precise asymptotics, fixed-error dispersion
analysis, and seeded Monte Carlo simulation of classic lattices with
exact nearest-point decoders.
"""

from .specfn import (
    LogProb,
    log_gamma,
    log_vn,
    log_vn_asymptotic,
    reg_gamma_upper,
    reg_gamma_lower,
    log_reg_gamma_lower,
    log_reg_gamma_upper,
    log_reg_gamma_tail,
    q_func,
    q_func_inv,
)
from .bounds import (
    ChannelPoint,
    BoundValue,
    delta_star,
    delta_cr,
    delta_ex,
    effective_radius,
    sphere_bound,
    sphere_bound_by_volume,
    ml_bound,
    typicality_bound,
    poltyrev_ml_bound,
    poltyrev_radius,
    CURVE_KINDS,
    BoundCurve,
    bound_curves,
    d_section_prob,
    equivalence_check,
)
from .asymptotics import (
    AsymptoticTerms,
    SandwichBounds,
    AsymptoticSingularity,
    exponent_sp,
    exponent_r,
    exponent_t,
    terms,
    asym_curves,
    sphere_sandwich,
    sphere_asymptotic,
    ml_sandwich,
    ml_asymptotic,
    typicality_asymptotic,
    poltyrev_r_asymptotic,
    ub_lb_ratio_limit,
    tail_integral_bounds,
    head_integral_bounds,
    laplace_head_integral,
)
from .dispersion import (
    InversionResult,
    norm_tail_normal_approx,
    berry_esseen_T,
    nld_eps_approx,
    nld_eps_converse,
    nld_eps_achievable,
    nld_eps_achievable_curve,
    vnr_from_nld,
    vnr_opt_approx,
    gap_db,
    lattice_snr_rho,
    normalized_error_prob,
)
from .lattices import (
    LatticeSpec,
    SimEstimate,
    UnsupportedLatticeError,
    builtin,
    decode,
    simulate_error_prob,
    find_scale_for_error,
)

__version__ = "0.1.0"

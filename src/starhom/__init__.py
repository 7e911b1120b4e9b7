"""Exact-arithmetic star products, Hochschild and cyclic complexes, trace
cycles, connection curvature identities, and characteristic-class series.

All coefficients are exact rationals; every series value carries its own
validity window; every verification is an exact equality inside that
window.  See the ``suite`` module for the batch checks and ``cli`` for the
command-line front end.
"""

from .series import EmptyWindow, GeneratorMismatch, NegativeTPowers, SeriesError
from .series import Poly, TSeries
from .weyl import (
    LieElement,
    WeylElement,
    lie_bracket,
    moyal_star,
    star_commutator,
    weyl_gens,
)
from .hochschild import (
    AlgebraHandle,
    AlgebraMorphism,
    HochschildChain,
    alt_chain,
    diff_B,
    diff_b,
    induced_chain_map,
    phi_A,
    phi_E,
    poly_handle,
    rees_handle,
    weyl_handle,
)
from .hkr import DForm, de_rham, hkr_map
from .charclass import (
    ChernClassExpr,
    ChernRootSeries,
    ClassSeries,
    a_hat,
    exp_class,
    rr_identity_check,
    to_chern_basis,
    todd,
)
from .fedosov import (
    LieValuedForm,
    curvature,
    gl_to_vf,
    i_map,
    kazhdan_assemble,
    lift_connection,
    psi_conjugate,
)
from .rees import (
    DiffOp,
    OpSeries,
    ReesElement,
    diffop_mul,
    localized_to_weyl,
    rees_sigma,
)
from .suite import Report, run_suite

__version__ = "0.1.0"

"""wittcalc: exact arithmetic for quadratic forms and their refinements.

The package computes, over Q (and over R, C, F_p where meaningful):

* Grothendieck-Witt classes of diagonal forms, Hasse-Minkowski isometry,
  second residues and complete Witt invariants, unit inversion;
* Brouwer degrees of pointed rational self-maps of the projective line
  via Bezout forms, including the Gaussian-power G family;
* trace forms of real cyclotomic fields and their classical identities;
* Euler and Pontryagin classes of bundles assembled from rank-2 pieces;
* Schubert-style line counts on hypersurfaces and their quadratic
  refinements, and cellular Euler characteristics.

Everything is exact; no floating point is used anywhere.
"""
from __future__ import annotations

from .a1deg import (
    GaussianPair,
    RationalMapP1,
    a1_degree,
    bezout_form,
    build_G,
    derivative_identity_check,
    gaussian_power,
)
from .charclass import (
    BundleExpr,
    DetTwist,
    Gen,
    OtildeClass,
    Sum,
    Sym,
    Tensor,
    TwistedEulerPoly,
    WittPoly,
    check_sym_consistency,
    clebsch_gordan,
    decompose_sym_N,
    double_factorial,
    euler,
    euler_Otilde,
    parse_bundle,
    pontryagin_total,
    rank,
)
from .enumgeo import (
    CellularSpace,
    ExplicitCells,
    Grassmannian,
    Product,
    ProjectiveSpace,
    SymPoly2,
    cellular_euler,
    chi_NT_GL2,
    flag_chi_top,
    integrate_gr2,
    lines_count,
    quadratic_lines_class,
    real_euler,
    sym_weight_product,
)
from .errors import (
    CharacteristicConstraint,
    DegenerateForm,
    DomainError,
    FactorizationLimit,
    FieldMismatch,
    FormSyntaxError,
    InseparablePolynomial,
    InvalidEntry,
    NonSymmetric,
    NotAUnit,
    NotCoprime,
    NotPointed,
    NotSymmetric,
    ParityViolation,
    ResourceLimit,
    UnsupportedTensor,
    VerificationFailed,
    WrongDegree,
)
from .fields import C, FieldSpec, Fp, Q, R, is_prime, legendre, squarefree_part
from .gwcore import (
    INF,
    FormInvariants,
    GWClass,
    QForm,
    WittClass,
    as_gw,
    diagonalize,
    format_form,
    format_gw,
    format_gw_grouped,
    format_witt,
    gw_add,
    gw_equal,
    gw_is_zero,
    gw_mul,
    gw_neg,
    gw_one,
    gw_scalar,
    gw_sub,
    gw_zero,
    hilbert_symbol,
    hyperbolic,
    hyperbolic_normal_form,
    invariants,
    invert_unit,
    is_isometric,
    parse_form,
    parse_gw,
    perp,
    second_residue,
    unit_form,
    witt_class,
    witt_equal,
)
from .traceform import (
    MonicIntPoly,
    a_lattice_gram,
    cyclotomic_poly,
    real_cyclotomic_minpoly,
    serre_w2_check,
    trace_form_Q4p,
    trace_gram,
    verify_Tp,
    verify_bayer_suarez,
)

__version__ = "0.1.0"

"""modtwist: exact computations around the modular curves X(N,p), the
structure of their automorphism groups, and the Galois twists classifying
projective mod-p representations realized by quadratic twists of elliptic
curves."""

from .arith import (
    InvariantError,
    Level,
    class_number_primitive,
    divisors,
    euler_phi,
    kronecker,
    least_nonsquare,
    lift_sqrt_mod_p2,
    psi_index,
)
from .curves import (
    CuspData,
    GenusReport,
    al_fixed_points,
    cusps_X0,
    cusps_oracle,
    genus_AL_quotient,
    genus_X0,
    genus_XNp,
    genus_XNp_hurwitz,
    lemma_pairs,
    low_genus_XNp,
    xplus_verdict,
)
from .extgroup import (
    IntMat,
    InvolutionReport,
    WGroupReport,
    build_generators,
    involutions_extending_wN,
    verify_relations,
    wgroup,
)
from .galmodel import (
    FiniteGaloisModel,
    FiniteGroup,
    QuadraticCharacter,
    validate_model,
)
from .modelfile import ModelParseError, parse_and_validate, parse_model
from .moduli import verify_galois_conjugation, verify_w_rationality
from .projgroup import (
    ProjMat,
    pgl2,
    psl2,
)
from .twists import (
    Ambient,
    CentralizerVerdict,
    Cocycle,
    ParityError,
    TwistPlan,
    build_xi,
    centralizer_verdict,
    check_cocycle,
    cohomologous,
    model_corpus,
    rho_star,
    twist_plan,
)

__version__ = "0.1.0"

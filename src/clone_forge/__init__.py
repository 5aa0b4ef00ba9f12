"""Clones, substitution algebras over finite-ordinal presheaves, and the
exact translations between them, with desk-scale law checking."""

from .checks import CarrierUnavailable, CheckPolicy, LawCheck, Report
from .clone import (
    App,
    ArrowClone,
    Budget,
    Clone,
    ContextError,
    FiniteAlgebra,
    FiniteClone,
    FreeClone,
    InitialClone,
    Signature,
    TerminalClone,
    TheoryHom,
    Var,
    builtin_clone,
    clone_hom_check,
    clone_laws_check,
    free_iota,
    free_mu,
    theory_compose,
    theory_identity,
    theory_laws_check,
)
from .fin_cat import (
    FinMap,
    ShapeError,
    check_symmetric_monoid,
    compose,
    coproduct,
    enumerate_maps,
    generators,
    identity,
    new,
    old,
)
from .iso_bridge import (
    PhiContext,
    c_functor,
    c_on_hom,
    phi,
    roundtrip_alg,
    roundtrip_clone,
    s_functor,
    s_on_hom,
)
from .presheaf_f import (
    Presheaf,
    StageRangeError,
    TruncatedPresheaf,
    check_delta_laws,
    check_functoriality,
    representable_V,
    truncate_presheaf,
)
from .subst_algebra import (
    LAW_MAPPING,
    SubstAlgebra,
    TableSubstAlgebra,
    check_diagrams,
    check_presentation,
    check_v_naturality,
    hom_check,
    truncate_algebra,
    variable_family,
)

__version__ = "0.1.0"

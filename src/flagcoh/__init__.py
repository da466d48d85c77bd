"""flagcoh: exact cohomology of Schur bundles on partial flag varieties,
exceptional-collection checks, twisted-form descent analysis, and
line-bundle grids on toric projective-bundle towers."""

from .cohomology import (
    E1_BOUND,
    EXACT,
    CohomologyOutcome,
    cohomology_stepwise,
    ext_groups_best,
)
from .flagvar import (
    BLOCK,
    QUOT,
    SUB,
    BundleExpr,
    FlagShape,
    SchurMonomial,
    Slot,
    dual,
    make_monomial,
    minimal_base,
    sigma_pullback,
    tensor,
)
from .kapranov import (
    Collection,
    PairReport,
    PairVerdict,
    check_strong_exceptional,
    enumerate_collection,
)
from .schur import CharacterSum, schur_dim, tensor_schur
from .toric import (
    TowerSpec,
    check_grid_collection,
    galois_orbit_check,
    line_bundle_cohomology,
)
from .twists import (
    INNER_ONLY,
    WITH_SIGMA,
    DescentReport,
    check_T2,
    counterexample_case,
)
from .weights import InputError, bbw_resolve, dual_weight

__version__ = "0.1.0"


__all__ = [
    "BLOCK",
    "QUOT",
    "SUB",
    "BundleExpr",
    "CharacterSum",
    "CohomologyOutcome",
    "Collection",
    "DescentReport",
    "E1_BOUND",
    "EXACT",
    "FlagShape",
    "INNER_ONLY",
    "InputError",
    "PairReport",
    "PairVerdict",
    "SchurMonomial",
    "Slot",
    "TowerSpec",
    "WITH_SIGMA",
    "bbw_resolve",
    "check_T2",
    "check_grid_collection",
    "check_strong_exceptional",
    "cohomology_stepwise",
    "counterexample_case",
    "dual",
    "dual_weight",
    "enumerate_collection",
    "ext_groups_best",
    "galois_orbit_check",
    "line_bundle_cohomology",
    "make_monomial",
    "minimal_base",
    "schur_dim",
    "sigma_pullback",
    "tensor",
    "tensor_schur",
]

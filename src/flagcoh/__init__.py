"""flagcoh: exact cohomology of Schur bundles on partial flag varieties,
exceptional-collection checks, twisted-form descent analysis, and
line-bundle grids on toric projective-bundle towers."""

import sys

from .cohomology import (
    E1_BOUND,
    EXACT,
    CohomologyOutcome,
    cohomology,
    cohomology_graded,
    cohomology_stepwise,
    euler_characteristic,
    ext_groups,
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
    block_weights,
    dual,
    graded_expansion,
    make_monomial,
    minimal_base,
    sigma_pullback,
    tensor,
    trivial,
)
from .kapranov import (
    Collection,
    PairReport,
    PairVerdict,
    check_strong_exceptional,
    enumerate_collection,
    hom_quiver,
)
from .schur import CharacterSum, lr_coefficients, schur_dim, tensor_schur
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
    TwistGroup,
    check_T2,
    counterexample_case,
    orbit_sum,
)
from .weights import InputError, bbw_resolve, dual_weight

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every ``functools.lru_cache`` of the package, found as the
    attributes of its loaded modules that have ``cache_clear``.  The caches
    only hold results computed before, so answers are unchanged; a
    long-lived process can call this between jobs to give their memory
    back."""
    for name, module in list(sys.modules.items()):
        if name.startswith("flagcoh."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


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
    "TwistGroup",
    "WITH_SIGMA",
    "bbw_resolve",
    "block_weights",
    "check_T2",
    "check_grid_collection",
    "check_strong_exceptional",
    "clear_caches",
    "cohomology",
    "cohomology_graded",
    "cohomology_stepwise",
    "counterexample_case",
    "dual",
    "dual_weight",
    "enumerate_collection",
    "euler_characteristic",
    "ext_groups",
    "ext_groups_best",
    "galois_orbit_check",
    "graded_expansion",
    "hom_quiver",
    "line_bundle_cohomology",
    "lr_coefficients",
    "make_monomial",
    "minimal_base",
    "orbit_sum",
    "schur_dim",
    "sigma_pullback",
    "tensor",
    "tensor_schur",
    "trivial",
]

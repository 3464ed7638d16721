"""walshlab: a uniformly bounded orthonormal block basis over the Walsh
system, with exact spectral arithmetic, three L_p norm engines, greedy
approximation machinery, and seeded verification experiments."""

from .blocks import BlockPlan, load_plan, plan_from_json
from .errors import (
    BudgetError,
    ConfigError,
    DepthError,
    HorizonError,
    ScheduleError,
    WalshLabError,
)
from .greedy import (
    LambdaPartition,
    analyze,
    greedy_approximant,
    greedy_order,
    lambda_classify,
    load_coefficients,
    partial_sum,
    save_coefficients,
    synthesize_coefficients,
)
from .norms import (
    NormEstimate,
    lp_dense,
    lp_even_spectral,
    lp_monte_carlo,
    rademacher_fourth_moment,
)
from .olevskii import (
    OlevskiiEntry,
    check_orthogonality,
    entry,
    row_abs_sum,
    row_entries,
)
from .spectra import (
    DyadicPoint,
    WalshSpectrum,
    analyze_dense,
    inner_product,
    load_spectrum,
    phi_index,
    rademacher_index,
    save_spectrum,
    spectrum_add,
    spectrum_product,
    spectrum_scale,
    synthesize,
    walsh_eval,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Exact verification, construction, decomposition and refutation of
hyperplane covers of the binary cube {0,1}^n."""

from .core import (
    CapExceededError,
    ClearedBlock,
    CoveringSystem,
    Params,
    DEFAULT_PARAMS,
    SystemFormatError,
    Vertex,
    apply_rescaling,
    cleared_block,
    format_rational,
    parse_rational,
    parse_system,
)
from .cube import CoverageReport, enumerate_uncovered, evaluate_row, rows_through, sample_uncovered
from .essential import (
    EssentialReport,
    check_support_bound,
    check_variable_usage,
    verify_essential,
)
from .construct import lr_cover
from .anticonc import (
    ScalePartition,
    ScalePartitionError,
    atom_probability,
    concentration_window_prob,
    littlewood_offord_bound,
    max_atom_probability,
    scale_partition,
    subset_sum_counts,
    validate_scales,
)
from .plank import (
    PlankPreconditionError,
    SampleCapError,
    SignVector,
    SmallNormCheck,
    bang_signs,
    check_small_norm_precondition,
    find_uncovered_small_norm,
)
from .decompose import (
    Decomposition1,
    Decomposition2,
    check_decomposition1,
    check_decomposition2,
    first_decomposition,
    second_decomposition,
)
from .refute import (
    RefutationOutcome,
    StageFailure,
    attempt_refutation,
    choose_n3_assignment,
    sample_n2_assignment,
)

__version__ = "0.1.0"

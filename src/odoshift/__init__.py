"""Substitution subshifts, Toeplitz period skeletons, and the dyadic odometer factor map."""

from .errors import (
    InsufficientDataError,
    InvalidInputError,
    NotInSubshiftError,
    OdoshiftError,
    ResourceLimitError,
)
from .substitution import (
    Alphabet,
    Substitution,
    SymbolicPrefix,
    dyadic_valuation,
    fixed_point_prefix,
    grigorchuk_codes,
    grigorchuk_letter,
    grigorchuk_prefix,
    grigorchuk_substitution,
    validate_prolongable,
)
from .toeplitz import (
    EPSet,
    PeriodSkeleton,
    essential_periods,
    period_skeleton,
    smallest_partial_period,
)
from .odometer import (
    BINARY_ODOMETER,
    CFSet,
    DyadicInt,
    INFINITY,
    OdometerSpec,
    OdometerState,
    PowerFamily,
    cf_closure,
    cf_contains,
    cf_equal,
    cf_of_odometer,
    cf_subset,
    odometer_from_cf,
    odometer_step,
)
from .factormap import (
    EncodingResult,
    FiberReport,
    classify_fiber,
    encode_fG,
    sigma_preimage_letters,
    verify_equivariance,
)
from .ergodic import (
    FrequencyEstimate,
    SpectralSample,
    cylinder_frequency,
    invariant_measure_cylinder,
    spectral_scan,
    uniform_distribution_report,
)

__version__ = "0.1.0"

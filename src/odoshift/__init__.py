"""Substitution subshifts, Toeplitz period skeletons, and the dyadic odometer factor map.

The submodules below, and the names each exports, are loaded on first
read (PEP 562), so ``import odoshift`` loads no submodule and a command
loads only the modules it runs.  ``odoshift.X`` is the same object as
``odoshift.<module>.X``.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "InsufficientDataError",
        "InvalidInputError",
        "NotInSubshiftError",
        "OdoshiftError",
        "ResourceLimitError",
    ),
    "substitution": (
        "Substitution",
        "SymbolicPrefix",
        "dyadic_valuation",
        "fixed_point_prefix",
        "grigorchuk_codes",
        "grigorchuk_letter",
        "grigorchuk_prefix",
        "grigorchuk_substitution",
        "validate_prolongable",
    ),
    "language": (
        "class_measure",
        "invariant_measure_cylinder",
    ),
    "toeplitz": (
        "EPSet",
        "PeriodSkeleton",
        "essential_periods",
        "period_skeleton",
        "smallest_partial_period",
    ),
    "factormap": (
        "DyadicInt",
        "EncodingResult",
        "FiberReport",
        "classify_fiber",
        "encode_fG",
        "sigma_preimage_letters",
        "verify_equivariance",
    ),
    "ergodic": (
        "FrequencyEstimate",
        "SpectralSample",
        "cylinder_frequency",
        "spectral_scan",
    ),
}

# exported name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        # read on every access, never cached here: the submodule's attribute is the one truth
        return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})

"""Spin squeezing of mixed spin-s systems.

Density matrices and their irreducible tensor decompositions, exact
angular-momentum coupling algebra, frame transformations, the
mixed-state squeezing criterion, and the full analysis of the spin-1
channel built from two polarized spin-1/2 systems.

The public names are resolved on first use (PEP 562): ``import
spinsqueeze`` imports no submodule, and ``spinsqueeze.analyze`` or ``from
spinsqueeze import analyze`` imports the submodule that defines it and
returns its object. So a CLI command loads only the modules it runs.
"""

import sys as _sys

__version__ = "0.1.0"

# submodule -> the public names it defines; every submodule listed is
# itself a public name
_EXPORTS = {
    "angular": ("EulerAngles", "clebsch_gordan", "clebsch_gordan_exact",
                "little_d", "racah_w", "wigner_6j", "wigner_6j_exact",
                "wigner_9j", "wigner_d", "wigner_d_matrix"),
    "channel": ("ChannelFrame", "ChannelSqueezing", "ChannelState",
                "Correlations", "CorrelationMismatch", "ThresholdScanConfig",
                "ThresholdScanResult", "channel_geometry",
                "channel_squeezing", "correlations", "correlations_oracle",
                "couple_spin1", "couple_spin1_9j", "exact_thresholds",
                "max_margin", "project_oracle", "threshold_scan",
                "verify_correlations"),
    "density": ("OrientationReport", "PositivityReport", "SpinDensity",
                "Spin1Bound", "TensorParams", "check_positivity",
                "classify_orientation", "from_tensors", "load_state_file",
                "polarization", "purity_residual", "spin_scale_rank1",
                "spin_scale_rank2", "state_from_dict", "state_to_dict",
                "tensor_params_from_dict", "to_tensors", "variance"),
    "errors": ("AngularMomentumError", "HermiticityError",
               "LakinFrameUndefined", "NoAlignment", "SchemaError",
               "UnphysicalStateError"),
    "frames": ("FrameResult", "paaf", "rotate_tensors", "rotation_matrix",
               "special_lakin_frame"),
    "halfint": ("HalfInt",),
    "scan": ("ScanConfig", "ScanResult", "evaluate_points", "run_scan",
             "stream_scan", "write_csv", "write_json"),
    "squeezing": ("SqueezingReport", "analyze", "lf_criterion",
                  "lf_variances", "oriented_margin"),
    "tensor_ops": ("build_tau", "spin_matrices"),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_SOURCE])


def _submodule(name):
    # the import statement's own path: importlib.import_module bypasses
    # -X importtime, by which the tests and CI see what a command loads
    __import__(f"{__name__}.{name}")
    return _sys.modules[f"{__name__}.{name}"]


def __getattr__(name):
    if name in _EXPORTS:
        return _submodule(name)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(_SOURCE[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

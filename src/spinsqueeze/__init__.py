"""Spin squeezing of mixed spin-s systems.

Density matrices and their irreducible tensor decompositions, exact
angular-momentum coupling algebra, frame transformations, the
mixed-state squeezing criterion, and the full analysis of the spin-1
channel built from two polarized spin-1/2 systems.
"""

from .angular import (EulerAngles, clebsch_gordan, clebsch_gordan_exact,
                      little_d, racah_w, wigner_6j, wigner_6j_exact,
                      wigner_9j, wigner_d, wigner_d_matrix)
from .channel import (ChannelFrame, ChannelSqueezing, ChannelState,
                      Correlations, CorrelationMismatch, ThresholdScanConfig,
                      ThresholdScanResult, channel_geometry,
                      channel_squeezing, correlations, correlations_oracle,
                      couple_spin1, couple_spin1_9j, exact_thresholds,
                      max_margin, project_oracle, threshold_scan,
                      verify_correlations)
from .density import (OrientationReport, PositivityReport, SpinDensity,
                      Spin1Bound, TensorParams, check_positivity,
                      classify_orientation, from_tensors, load_state_file,
                      polarization, purity_residual, spin_scale_rank1,
                      spin_scale_rank2, state_from_dict, state_to_dict,
                      tensor_params_from_dict, to_tensors, variance)
from .errors import (AngularMomentumError, HermiticityError,
                     LakinFrameUndefined, NoAlignment, SchemaError,
                     UnphysicalStateError)
from .frames import (FrameResult, paaf, rotate_tensors, rotation_matrix,
                     special_lakin_frame)
from .halfint import HalfInt
from .scan import (ScanConfig, ScanResult, evaluate_points, run_scan,
                   stream_scan, write_csv, write_json)
from .squeezing import (SqueezingReport, analyze, lf_criterion, lf_variances,
                        oriented_margin)
from .tensor_ops import build_tau, spin_matrices

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

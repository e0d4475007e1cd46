"""calib-lab: post-hoc confidence calibration on pre-computed
classifier outputs.

The toolkit trains a small network that maps transform-consistency
features to a per-sample temperature, compares it against global
temperature scaling and the uncalibrated model, and reproduces the
loss-surface / wrongness-degree / top-k diagnostics at desk scale.
"""

from .analysis import (BandRow, KSweepRow, SurfaceGrid, default_a_grid, default_tau_grid,
                       k_sweep, loss_surface, wrongness_experiment)
from .baselines import GlobalTemp, apply_global, fit_global_temperature, nll_objective
from .calibrator import (CalibratorParams, TrainConfig, TrainingTrace, calibrate_dataset,
                         constant_temperature_params, feature_matrix, forward_batch,
                         grad_params, init_params, train, train_stack)
from .datagen import SynthConfig, craft_wrongness_set, generate
from .errors import (CalibrationError, DatasetFormatError, DomainError, InvalidInputError,
                     ShortfallError, TrainingDivergedError, UndefinedMetricError,
                     UnsupportedVersionError)
from .io import (export_band_rows_csv, export_confidence_csv, export_ksweep_csv,
                 export_metrics_csv, export_surface_csv, export_trace_csv, load_dataset,
                 load_params, save_dataset, save_params)
from .losses import (Decomposition, DiscrepancyMode, LossBounds, LossKind, ca_bounds,
                     ca_loss_batch, decompose)
from .metrics import MetricsReport, auroc, brier_top_label, ece, ks_error, report
from .records import CorrectnessView, Dataset, correctness_view, wrongness_ratios
from .tensor_math import top_k_indices

__version__ = "0.1.0"

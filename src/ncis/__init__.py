"""Class-conditional invariant learning and boundary outlier synthesis.

The pipeline: embed labeled samples, fit a class-conditioned
volume-preserving bijection whose leading outputs vanish on each class,
model the mapped data with regularized per-class Gaussians, rejection-sample
low-likelihood outliers and map them back, then train an energy-regularized
classifier whose learned scoring head separates ID from OOD.
"""

from .autodiff import eval_and_grad, finite_diff_grad
from .config import RunConfig, load_config, parse_config
from .cvpn import (CvpnModel, build_cvpn, cvpn_forward_batch, cvpn_inverse_batch,
                   invariants_batch, jacobian_det_fd)
from .data import LabeledEmbeddingSet
from .density import (ClassGaussianBank, fit_class_gaussians, log_density_e_batch,
                      log_density_v_batch)
from .embedding import (Denoiser, LinearToyDenoiser, NoiseSchedule, embed_dataset, embed_sample,
                        forward_noise)
from .errors import (ArtifactError, ContractError, NcisError, NumericError,
                     ParseError, PipelineError, SamplingError)
from .evalharness import ToyBenchmark, auroc, fpr_at_tpr, make_toy_benchmark
from .invariant_training import invariant_loss, select_num_invariants, train_cvpn
from .ood_classifier import (EnergyClassifier, build_energy_classifier, score_rows,
                             train_energy_classifier)
from .outlier_sampling import OutlierSet, rejection_sample_invariant, synthesize_outliers
from .pipeline import run_pipeline, sweep_lambda

__version__ = "0.1.0"

"""Geometry-aware moment matching for unsupervised domain adaptation.

Feature-batch moments are packed into SPD matrices one dimension up and
compared with affine-invariant or Hilbert projective distances, with
exact gradients back to every feature row, a determinant-gated trainer,
and the divergence-bound machinery that justifies the loss.

The top level exports the public API below; everything else is
imported from its module (``geomoment.spd``, ``geomoment.losses``, ...).
"""

from .bounds import DiscreteDist, check_target_bound, fisher_rao_univariate
from .datasets import BlobsConfig, DenoiseConfig, gen_blobs, gen_denoise
from .embedding import GaussianMoments, embed, schur_gate, unembed
from .errors import GeomomentError
from .losses import DIST_KINDS, dist_loss
from .moments import batch_moments
from .network import ClassifierHead, DecoderHead, ModelSpec
from .runner import load_run_config, run_experiment, sweep_dim
from .spd import dist_airm, dist_hilbert, dist_logeuclid, validate_spd
from .trainer import TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "BlobsConfig",
    "ClassifierHead",
    "DIST_KINDS",
    "DecoderHead",
    "DenoiseConfig",
    "DiscreteDist",
    "GaussianMoments",
    "GeomomentError",
    "ModelSpec",
    "TrainConfig",
    "batch_moments",
    "check_target_bound",
    "dist_airm",
    "dist_hilbert",
    "dist_logeuclid",
    "dist_loss",
    "embed",
    "fisher_rao_univariate",
    "gen_blobs",
    "gen_denoise",
    "load_run_config",
    "run_experiment",
    "schur_gate",
    "sweep_dim",
    "train",
    "unembed",
    "validate_spd",
]

"""Information-bottleneck training with natural-gradient geometry.

The package has three layers: an exact finite-distribution kernel
(discrete_info) for checking the projection identities behind the
objective, differential-geometry pieces (encoder, jf, fisher) for the
penalties and the K-FAC preconditioner, and a training harness (data,
config, training, mi) that sweeps the information plane.  `verify` ties
them together into a deterministic property suite; `cli` exposes it all
as the `geoib` command.
"""

from .config import TrainConfig, load_config, save_config
from .data import DatasetHandle, load_idx, make_dataset
from .discrete_info import (
    i_projection,
    ib_projection_value,
    kl_discrete,
    kl_to_product,
    mutual_information,
    pythagorean_residual,
)
from .encoder import (
    Gaussian1D,
    exp_map_1d,
    fr_quadratic_proxy,
    kl_to_standard_normal,
)
from .fisher import (
    KfacState,
    fisher_vector_product,
    kfac_init,
    kfac_update,
    natural_gradient,
)
from .jf import JfEstimate, LocalChannel, exact_trace, jf_hutchinson
from .linalg import CgResult, conjugate_gradient, logdet_psd
from .mi import InfoPlanePoint, inversion_probe, mi_knn
from .nets import LayerSpec, Network
from .rng import Rng
from .training import (
    RunResult,
    TrainingDiverged,
    gib_step,
    run_sweep,
    run_training,
    train_step,
)
from .verify import run_all_checks

__version__ = "0.1.0"

__all__ = [
    "CgResult",
    "DatasetHandle",
    "Gaussian1D",
    "InfoPlanePoint",
    "JfEstimate",
    "KfacState",
    "LayerSpec",
    "LocalChannel",
    "Network",
    "Rng",
    "RunResult",
    "TrainConfig",
    "TrainingDiverged",
    "conjugate_gradient",
    "exact_trace",
    "exp_map_1d",
    "fisher_vector_product",
    "fr_quadratic_proxy",
    "gib_step",
    "i_projection",
    "ib_projection_value",
    "inversion_probe",
    "jf_hutchinson",
    "kfac_init",
    "kfac_update",
    "kl_discrete",
    "kl_to_product",
    "kl_to_standard_normal",
    "load_config",
    "load_idx",
    "logdet_psd",
    "make_dataset",
    "mi_knn",
    "mutual_information",
    "natural_gradient",
    "pythagorean_residual",
    "run_all_checks",
    "run_sweep",
    "run_training",
    "save_config",
    "train_step",
]

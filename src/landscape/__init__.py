"""Numerical laboratory for the loss landscape of one-hidden-layer leaky-ReLU nets.

Submodules
----------
linalg        dense solves, null spaces, numerical rank
network       model, losses, activation slopes, Khatri-Rao, gradients
stationarity  first-order condition checks and the matroid-partition rank oracle
construct     exact zero-error network construction and angular margins
bounds        closed-form tail bounds and special-function constants
volume        seeded Monte Carlo estimators with Wilson intervals
train         Gaussian-data Adam experiments and diagnostics
cli           command-line front end with reproducible run records
"""

from .network import Dataset, NetParams
from .construct import Construction, MarginCertificate
from .volume import MCEstimate, RegionSpec
from .train import TrainConfig, TrainResult

__all__ = [
    "Construction",
    "Dataset",
    "MCEstimate",
    "MarginCertificate",
    "NetParams",
    "RegionSpec",
    "TrainConfig",
    "TrainResult",
]

__version__ = "0.1.0"

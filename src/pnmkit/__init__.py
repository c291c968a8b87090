"""pnmkit: positive-negative momentum optimizers with a benchmark and
analysis harness (noise amplification, stationary posteriors, PAC-Bayes
bounds, convergence rates)."""

from .core import (
    RNG_ALGORITHM,
    DimensionMismatchError,
    DivergenceError,
    GradientOracle,
    NonFiniteError,
    RngStream,
    config_digest,
)
from .optim import (
    AdaPnm,
    Adam,
    HeavyBall,
    Optimizer,
    Pnm,
    WeightDecay,
    pn_normalization,
)

__version__ = "0.1.0"

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
    AmsGrad,
    HeavyBall,
    Optimizer,
    Pnm,
    WeightDecay,
    momentum_recovery_beta0,
    pn_normalization,
)

__version__ = "0.1.0"

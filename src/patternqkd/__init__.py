"""Pattern-based QKD over the five-qubit perfect code: simulation and analysis."""

from .channel import EveStrategy, NoiseModel
from .patterns import Pattern, PatternSet
from .protocol import SessionConfig, SessionReport, run_session

__version__ = "0.6.0"

__all__ = [
    "EveStrategy",
    "NoiseModel",
    "Pattern",
    "PatternSet",
    "SessionConfig",
    "SessionReport",
    "run_session",
    "__version__",
]

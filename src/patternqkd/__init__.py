"""Pattern-based QKD over the five-qubit perfect code: simulation and analysis."""

from .channel import EveRecord, EveStrategy, NoiseModel
from .patterns import Pattern, PatternSet
from .protocol import BlockRecord, SessionConfig, SessionReport, run_session

__version__ = "0.3.0"

__all__ = [
    "BlockRecord",
    "EveRecord",
    "EveStrategy",
    "NoiseModel",
    "Pattern",
    "PatternSet",
    "SessionConfig",
    "SessionReport",
    "run_session",
    "__version__",
]

"""Pattern-based QKD over the five-qubit perfect code: simulation and analysis.

``channel``, ``protocol`` (the session layer), ``session_io``, ``analysis``, ``code5`` and ``quantum_core`` execute on
first use (``_lazy``, ``__getattr__``): ``analyze`` executes ``analysis`` and ``code5`` only, ``enumerate`` none,
``simulate`` and ``sweep`` the session layer, ``session_io`` and ``code5``, and ``analysis`` too for a mean photon
number above 0; no command executes ``quantum_core``, which only readers outside the package import (README
"Start-up cost" gives the measured pairs).
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec
from types import ModuleType

from .patterns import Pattern, PatternSet

__version__ = "0.11.0"


def _lazy(name: str) -> ModuleType:
    """Submodule ``name``, registered in ``sys.modules``; its body runs on the first attribute read."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    sys.modules[spec.name] = module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


analysis, channel, code5, protocol, quantum_core, session_io = map(
    _lazy, ("analysis", "channel", "code5", "protocol", "quantum_core", "session_io")
)
_SESSION_NAMES = {
    "EveStrategy": channel, "NoiseModel": channel,
    "SessionConfig": protocol, "SessionReport": protocol, "run_session": protocol,
}


def __getattr__(name: str) -> object:
    if name in _SESSION_NAMES:
        return getattr(_SESSION_NAMES[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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

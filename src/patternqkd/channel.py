"""Channel noise models and eavesdropper strategies for in-flight blocks.

Noise is i.i.d. single-qubit depolarizing: each of the five qubits suffers
X, Y, or Z with probability p/3 each.  Loss follows a fiber model: each of
the block's five photons survives with probability 10^(-distance*loss/10),
and the block is kept only if all five arrive.  A weak-coherent-pulse
source is modeled by Poisson photon counts per pulse; a block is counted
as a splitting-attack leak opportunity when at least three of its five
pulses are multi-photon, since fewer than three exposed positions reveal
nothing about a distance-3 codeword.

The interceptor decodes with a guessed pattern exactly as a legitimate
receiver would (syndrome, correction, logical readout) and retransmits a
fresh codeword of her measured bit under that same pattern.  The session
basis is assumed known to her; only the pattern is secret.

This module holds the parameters of these models; the session engine
(``protocol``) draws their events from exact probabilities.
"""

from __future__ import annotations

import math
from typing import Union

from .patterns import PatternSet, _Value

UNIFORM_KNOWLEDGE = "uniform"
NO_EVE = "none"  # the default kind, read by session_io too
EVE_KINDS = (NO_EVE, "intercept_resend")


class NoiseModel(_Value):
    """Channel parameters for one session.

    Attributes
    ----------
    per_qubit_flip_prob : float
        Depolarizing strength p in [0, 1]; each qubit independently gets
        X, Y, or Z with probability p/3 each.
    distance_km : float
        Fiber length, >= 0.
    loss_db_per_km : float
        Attenuation rate, >= 0.
    mean_photon_number : float
        Poisson mean per pulse; 0 models an ideal single-photon source.
    """

    __match_args__ = ("per_qubit_flip_prob", "distance_km", "loss_db_per_km", "mean_photon_number")

    def __init__(self, per_qubit_flip_prob: float = 0.0, distance_km: float = 0.0, loss_db_per_km: float = 0.2,
                 mean_photon_number: float = 0.0) -> None:
        values = (per_qubit_flip_prob, distance_km, loss_db_per_km, mean_photon_number)
        vars(self).update(zip(self.__match_args__, values))
        for name in self.__match_args__:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.per_qubit_flip_prob <= 1.0:
            raise ValueError(f"per_qubit_flip_prob must be in [0,1], got {self.per_qubit_flip_prob}")
        if self.distance_km < 0.0:
            raise ValueError(f"distance_km must be >= 0, got {self.distance_km}")
        if self.loss_db_per_km < 0.0:
            raise ValueError(f"loss_db_per_km must be >= 0, got {self.loss_db_per_km}")
        if self.mean_photon_number < 0.0:
            raise ValueError(f"mean_photon_number must be >= 0, got {self.mean_photon_number}")

    @property
    def photon_survival_prob(self) -> float:
        """Per-photon survival 10^(-distance * loss / 10), in [0, 1]."""
        return 10.0 ** (-self.distance_km * self.loss_db_per_km / 10.0)


class EveStrategy(_Value):
    """What the eavesdropper does and what she believes the secret is.

    ``knowledge`` is either a guessed :class:`PatternSet` (which may share
    2, 1, or 0 patterns with the true secret) or the string ``"uniform"``
    for a guess drawn uniformly from all 120 patterns per block.
    """

    __match_args__ = ("kind", "knowledge")

    def __init__(self, kind: str = NO_EVE, knowledge: Union[PatternSet, str, None] = None) -> None:
        vars(self).update(kind=kind, knowledge=knowledge)
        if self.kind not in EVE_KINDS:
            raise ValueError(f"expected one of {' | '.join(EVE_KINDS)}, got {self.kind!r}")
        if self.kind == "intercept_resend":
            if self.knowledge != UNIFORM_KNOWLEDGE and not isinstance(self.knowledge, PatternSet):
                raise ValueError("intercept_resend needs a PatternSet or 'uniform' knowledge")

    @property
    def active(self) -> bool:
        return self.kind != NO_EVE

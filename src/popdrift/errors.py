"""Shared error types.

ModelError covers model documents and definitions that cannot be used;
RateError marks a rate expression that evaluated to something unusable
at a concrete point; NumericsError marks a numerical procedure that
could not finish within its configured limits.
"""

from __future__ import annotations

__all__ = ["ModelError", "RateError", "SlotResolutionError", "NumericsError"]


class ModelError(ValueError):
    """The model definition or configuration is invalid.

    ``entry`` names the part of a ModelSpec a refusal is about:
    ``("states",)``, ``("param", name)``, ``("rate", (s, t))`` or
    ``("limit", (s, t))``; None when it is about no single entry.
    """

    def __init__(self, message: str, entry: tuple | None = None):
        super().__init__(message)
        self.entry = entry


class RateError(ModelError):
    """A rate evaluated to a negative or non-finite value.

    Carries the transition and the occupancy where it happened.
    """

    def __init__(self, source: str, target: str, m, detail: str):
        self.source = source
        self.target = target
        self.m = tuple(float(x) for x in m)
        super().__init__(
            f"rate {source} -> {target} at m={self.m}: {detail}"
        )


class SlotResolutionError(ModelError):
    """Slotted-time step probabilities exceeded 1; a larger D is needed."""


class NumericsError(RuntimeError):
    """A numerical routine failed to converge or exceeded its budget."""

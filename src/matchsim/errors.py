"""Exception types shared across the package."""

from __future__ import annotations


class MatchsimError(Exception):
    """Base class for all package errors."""


class InvalidProfile(MatchsimError, ValueError):
    """A preference profile violates a structural invariant (range, duplicates, symmetry)."""


class InvalidMatching(MatchsimError, ValueError):
    """A matching is malformed for the given instance: non-edge pair or duplicated player."""


class NonNeighborSend(MatchsimError):
    """A processor tried to send to a player it shares no edge with."""


class InconsistentState(MatchsimError):
    """Protocol state desynchronized (e.g. ACCEPT for an unsent proposal). Signals a bug, aborts the run."""


class InvariantViolation(MatchsimError):
    """A runtime protocol invariant failed while strict checking was enabled."""


class NotAlmostRegular(MatchsimError, ValueError):
    """Men's max/min degree ratio exceeds the declared regularity bound."""

    def __init__(self, ratio: float, alpha: float):
        self.ratio = ratio
        self.alpha = alpha
        super().__init__(
            f"profile is not {alpha}-almost-regular: men's max/min degree ratio is {ratio:g}"
        )


class DegenerateInstance(MatchsimError):
    """Instance generation kept producing players with empty preference lists."""


class RoundCapExceeded(MatchsimError):
    """The protocol did not terminate within the round cap.

    ``partial`` carries the state at the moment the cap was hit: a RunResult
    when raised by a protocol runner, or None when raised by a bare engine.
    """

    def __init__(self, round_cap: int, partial=None):
        self.round_cap = round_cap
        self.partial = partial
        super().__init__(f"round cap of {round_cap} exceeded")

"""Capped exponential backoff with jitter — the one retry-delay policy.

Two retry loops share the same delay arithmetic: the serving
:class:`~repro.serving.client.PredictClient` (retrying 503/504/connection
failures against a reloading server) and the
:class:`~repro.experiments.dispatch.FleetSupervisor` (delaying the
restart of a crashed worker, so one that dies on start cannot
hot-loop).  Duplicated backoff code drifts — one side gains jitter
bounds or a ``Retry-After`` floor and the other silently doesn't — so
the policy lives here once and both consume it.

The policy is **deterministically testable**: the random source is
injected (any object with a ``random() -> [0, 1)`` method, i.e. a seeded
:class:`random.Random`), and :meth:`BackoffPolicy.delay` is a pure
function of ``(attempt, floor, rng state)``.  Nothing here sleeps — the
caller owns the clock (``time.sleep`` for threads, ``asyncio.sleep`` for
coroutines), which is what lets tests drive retry schedules without
waiting real time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

__all__ = ["BackoffPolicy"]


@dataclass
class BackoffPolicy:
    """Delay schedule: ``base * factor**attempt``, capped, jittered.

    Parameters
    ----------
    base:
        First retry delay in seconds (attempt 0).
    factor:
        Growth per attempt (2.0 = classic doubling).
    cap:
        Ceiling applied to the un-jittered delay — also caps any
        ``floor`` a caller passes (a server-sent ``Retry-After`` must
        not stall a client for minutes).
    jitter:
        ``(low, high)`` multiplier range drawn uniformly per delay, so a
        fleet that failed in lock-step does not retry in lock-step.
        ``(1.0, 1.0)`` disables jitter.  Note the multiplier applies
        *after* the cap, matching the historical client behaviour: the
        jittered delay may exceed ``cap`` by up to ``high``.
    rng:
        Random source for the jitter draw; inject a seeded
        :class:`random.Random` for reproducible schedules.
    """

    base: float = 0.05
    factor: float = 2.0
    cap: float = 1.0
    jitter: tuple[float, float] = (0.5, 1.5)
    rng: random.Random = field(default_factory=random.Random)

    def delay(self, attempt: int, floor: float = 0.0) -> float:
        """Seconds to wait before retry number ``attempt`` (0-based).

        ``floor`` raises the un-jittered delay (a server-sent
        ``Retry-After``, a lease interval) but never past ``cap``.
        """
        raw = self.base * (self.factor ** max(0, int(attempt)))
        wait = min(self.cap, max(raw, floor))
        low, high = self.jitter
        return wait * (low + (high - low) * self.rng.random())

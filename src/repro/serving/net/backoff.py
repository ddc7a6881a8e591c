"""Capped exponential backoff with deterministic, seedable jitter.

One policy object shared by every cooldown in the stack — the client's
replica ring (:class:`~repro.serving.net.client.AsyncServingClient`,
which :class:`~repro.serving.net.client.ServingClient` wraps) and the
leader's follower shipping links
(:mod:`repro.serving.wal.shipper`) — replacing the fixed one-second
cooldowns they used to hard-code.  A replica that fails once is retried
quickly; one that keeps failing is probed exponentially less often, up
to ``cap``.

Jitter is drawn from a private seeded :class:`random.Random`, never the
global RNG: two instances built with the same seed produce the same
delay sequence, so a chaos drill that replays a fault schedule sees the
identical retry timeline (and never perturbs the reproducibility of the
sampling code, which also leans on seeded generators).
"""

from __future__ import annotations

import random
from typing import Optional

__all__ = ["Backoff"]


class Backoff:
    """``delay(n) = min(cap, base * 2**(n-1)) * jitter`` for failure ``n``.

    Parameters
    ----------
    base:
        Delay after the first consecutive failure, in seconds.  ``0``
        disables the cooldown entirely (every delay is ``0.0``).
    cap:
        Upper bound on the un-jittered delay.
    jitter:
        Half-width of the multiplicative jitter band: each delay is
        scaled by a draw from ``[1 - jitter, 1 + jitter]``.  ``0``
        removes jitter.  Jitter de-synchronizes clients that failed at
        the same instant (retry stampedes); keeping the band
        multiplicative preserves the exponential envelope.
    seed:
        Seed for the private jitter RNG (``None``: OS entropy).  Chaos
        drills pass their schedule seed so retry timing replays exactly.
    """

    def __init__(self, base: float = 1.0, cap: float = 30.0,
                 jitter: float = 0.25, seed: Optional[int] = None):
        if base < 0:
            raise ValueError(f"base must be >= 0, got {base}")
        if cap < base:
            raise ValueError(f"cap {cap} is below base {base}")
        if not 0 <= jitter <= 1:
            raise ValueError(f"jitter must be in [0, 1], got {jitter}")
        self.base = float(base)
        self.cap = float(cap)
        self.jitter = float(jitter)
        self._rng = random.Random(seed)

    def delay(self, failures: int) -> float:
        """Cooldown in seconds after ``failures`` consecutive failures."""
        if failures < 1 or self.base == 0.0:
            return 0.0
        # Exponent clamp: 2**failures overflows float for pathological
        # failure counts long after the cap has taken over anyway.
        raw = self.base * (2.0 ** (min(failures, 64) - 1))
        scale = 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        return min(self.cap, raw) * scale

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Backoff(base={self.base}, cap={self.cap}, "
                f"jitter={self.jitter})")

"""A unified metrics registry for the serving fleet.

Three primitive kinds, all thread-safe and allocation-light:

* :class:`Counter` — monotonically increasing integer.
* :class:`Gauge` — a point-in-time value (queue depth, lag).
* :class:`Histogram` — fixed-bucket latency distribution.  Only the
  per-bucket counts (plus count/sum/min/max) are stored, so p50/p95/p99
  are derivable by linear interpolation inside the owning bucket without
  ever retaining samples — constant memory no matter how many requests
  cross it.

Metrics live in a :class:`MetricsRegistry` under dotted names
(``serving.server.queue_wait_ms``, ``wal.append.fsync_ms``), optionally
qualified by labels (``replica=0``) so one process-wide registry can
host a whole :class:`~repro.serving.net.replica.ReplicaSet` without
name collisions.  :data:`REGISTRY` is the process-wide default.

Component counters join this namespace by *provider registration*: a
component registers its one counters callable (``stats``, or
``metrics`` on the query fuser) under a dotted prefix, and
:meth:`MetricsRegistry.snapshot` flattens whatever it returns (nested
dicts included) into dotted names next to the native metrics — the
server's ``n_requests`` becomes ``serving.server.n_requests``.  The same
dicts, undotted, are the blocks of the serving ``stats``/``health``
frames; each counter has one name, and the dotted snapshot (the
``metrics`` frame) is the only dotted view.
"""

from __future__ import annotations

import bisect
import threading
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "REGISTRY", "LATENCY_BUCKETS_MS", "dotted_stats"]

#: Default histogram bucket upper bounds, in milliseconds: log-spaced
#: from 50 microseconds to 10 seconds.  Values above the last bound land
#: in an implicit overflow bucket whose percentile estimate is the
#: recorded maximum.
LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0)


class Counter:
    """A monotonically increasing integer (thread-safe)."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += int(amount)

    @property
    def value(self) -> int:
        return self._value

    def snapshot_value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value; the last ``set`` wins (thread-safe)."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += float(delta)

    @property
    def value(self) -> float:
        return self._value

    def snapshot_value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket distribution with sample-free percentile estimates.

    ``observe`` increments exactly one bucket count; ``percentile``
    walks the cumulative counts to the owning bucket and interpolates
    linearly between its bounds.  The estimate error is therefore
    bounded by the bucket width — the standard trade for O(buckets)
    memory — and the recorded min/max tighten the edge buckets.
    """

    __slots__ = ("_lock", "bounds", "_counts", "count", "total",
                 "min", "max")

    def __init__(self, bounds: Tuple[float, ...] = LATENCY_BUCKETS_MS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted and non-empty")
        self._lock = threading.Lock()
        self.bounds = tuple(float(bound) for bound in bounds)
        # One extra slot: the overflow bucket past the last bound.
        self._counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``q`` in [0, 1])."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self.count == 0:
                return 0.0
            target = q * self.count
            cumulative = 0
            for index, bucket_count in enumerate(self._counts):
                if bucket_count == 0:
                    continue
                cumulative += bucket_count
                if cumulative >= target:
                    upper = (self.bounds[index]
                             if index < len(self.bounds) else self.max)
                    lower = self.bounds[index - 1] if index > 0 else 0.0
                    lower = max(lower, self.min if self.min is not None
                                else lower)
                    upper = min(upper, self.max if self.max is not None
                                else upper)
                    if upper <= lower:
                        return float(upper)
                    # Linear interpolation inside the owning bucket.
                    into = (target - (cumulative - bucket_count)) \
                        / bucket_count
                    return float(lower + (upper - lower) * into)
            return float(self.max)  # pragma: no cover - unreachable

    def snapshot_value(self) -> Dict[str, float]:
        with self._lock:
            count, total = self.count, self.total
            low, high = self.min, self.max
        return {
            "count": count,
            "sum": round(total, 6),
            "min": round(low, 6) if low is not None else None,
            "max": round(high, 6) if high is not None else None,
            "p50": round(self.percentile(0.50), 6),
            "p95": round(self.percentile(0.95), 6),
            "p99": round(self.percentile(0.99), 6),
        }


def dotted_stats(prefix: str, flat: Dict[str, object]) -> Dict[str, object]:
    """Flatten one component's stats dict onto dotted metric names.

    Nested dicts recurse (``{"log": {"syncs": 3}}`` under prefix ``wal``
    becomes ``wal.log.syncs``); lists and scalars pass through as values.
    """
    out: Dict[str, object] = {}
    for key, value in flat.items():
        name = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            out.update(dotted_stats(name, value))
        else:
            out[name] = value
    return out


def _render(name: str, labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Dotted-name metric store plus stats-provider aggregation.

    ``counter``/``gauge``/``histogram`` get-or-create by ``(name,
    labels)`` — safe to call on a hot path, though callers that care
    hold onto the returned object instead.  ``register_provider`` binds
    a component's ``stats()``-style callable under a prefix; a second
    registration with the same ``(prefix, labels)`` replaces the first,
    which is exactly what a restarted replica wants.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, Tuple[Tuple[str, str], ...]],
                            object] = {}
        self._providers: Dict[Tuple[str, Tuple[Tuple[str, str], ...]],
                              Callable[[], Dict[str, object]]] = {}

    @staticmethod
    def _labels(labels: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
        return tuple(sorted((str(key), str(value))
                            for key, value in labels.items()))

    def _get(self, name: str, factory, labels: Dict[str, object]):
        key = (str(name), self._labels(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory()
                self._metrics[key] = metric
            return metric

    def counter(self, name: str, **labels) -> Counter:
        metric = self._get(name, Counter, labels)
        if not isinstance(metric, Counter):
            raise TypeError(f"metric {name!r} is not a counter")
        return metric

    def gauge(self, name: str, **labels) -> Gauge:
        metric = self._get(name, Gauge, labels)
        if not isinstance(metric, Gauge):
            raise TypeError(f"metric {name!r} is not a gauge")
        return metric

    def histogram(self, name: str,
                  bounds: Tuple[float, ...] = LATENCY_BUCKETS_MS,
                  **labels) -> Histogram:
        metric = self._get(name, lambda: Histogram(bounds), labels)
        if not isinstance(metric, Histogram):
            raise TypeError(f"metric {name!r} is not a histogram")
        return metric

    def register_provider(self, prefix: str,
                          provider: Callable[[], Dict[str, object]],
                          **labels) -> None:
        """Surface a component's stats dict under ``prefix`` at snapshot
        time.  Same ``(prefix, labels)`` replaces — replica restarts
        re-register their fresh server/coordinator cleanly."""
        key = (str(prefix), self._labels(labels))
        with self._lock:
            self._providers[key] = provider

    def unregister_provider(self, prefix: str, **labels) -> None:
        key = (str(prefix), self._labels(labels))
        with self._lock:
            self._providers.pop(key, None)

    def snapshot(self) -> Dict[str, object]:
        """Every metric and provider value, flattened to rendered names.

        Rendered names are ``dotted.name`` or ``dotted.name{k=v,...}``
        with sorted labels; histogram values are their summary dicts.
        Providers that raise are skipped — a half-torn-down component
        must never poison the whole snapshot.
        """
        with self._lock:
            metrics = list(self._metrics.items())
            providers = list(self._providers.items())
        out: Dict[str, object] = {}
        for (name, labels), metric in metrics:
            out[_render(name, labels)] = metric.snapshot_value()
        for (prefix, labels), provider in providers:
            try:
                flat = provider()
            except Exception:  # noqa: BLE001 - snapshot must stay total
                continue
            if not isinstance(flat, dict):
                continue
            for name, value in dotted_stats(prefix, flat).items():
                out[_render(name, labels)] = value
        return out

    def names(self) -> List[str]:
        """Rendered names of every registered metric (not providers)."""
        with self._lock:
            return sorted(_render(name, labels)
                          for name, labels in self._metrics)


#: The process-wide default registry.  Components take a ``registry``
#: argument and fall back to this, so scripts that never wire one still
#: get a single unified namespace.
REGISTRY = MetricsRegistry()

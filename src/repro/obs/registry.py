"""A unified metrics registry: counters, gauges, histograms, exporters.

:class:`repro.util.histogram.LatencyHistogram` and
:class:`repro.bg.metrics.RestartStats` are *views* over metrics held
here; the registry is the one place that knows how to render everything
for export.  Counters on a cache hit path count in plain ints under a
lock their code already holds (:class:`repro.kvs.stats.CacheStats`, the
SQL engine's ``stats()``) and are mirrored into a registry only at
export.

Concurrency: each metric carries its own lock (increments from the BG
worker threads contend per-metric, not registry-wide); the registry lock
only guards the name table.  All mutation goes through the metric
methods -- the audit that motivated this module found ad-hoc counters
incremented bare (``self.x += 1``) on multithreaded paths, which Python
does not make atomic.

Export: :meth:`MetricsRegistry.render_prometheus` emits the Prometheus
text exposition format (``# TYPE``/``# HELP`` comments, one sample per
line; histograms render as summaries with quantile labels), and
:meth:`MetricsRegistry.collect` returns plain dicts for JSON.
"""

import math
import threading

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

_QUANTILES = (0.5, 0.95, 0.99)


class Counter:
    """Monotonic counter."""

    kind = "counter"

    def __init__(self, name, help=""):
        self.name = name
        self.help = help
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self):
        with self._lock:
            return self._value

    def reset(self):
        """Zero the counter (test isolation; not part of Prometheus)."""
        with self._lock:
            self._value = 0

    def collect(self):
        return {"name": self.name, "kind": self.kind, "value": self.value}

    def render(self):
        return ["{} {}".format(self.name, self.value)]


class Gauge:
    """A value that goes up and down."""

    kind = "gauge"

    def __init__(self, name, help=""):
        self.name = name
        self.help = help
        self._value = 0
        self._lock = threading.Lock()

    def set(self, value):
        with self._lock:
            self._value = value

    def inc(self, amount=1):
        with self._lock:
            self._value += amount

    def dec(self, amount=1):
        with self._lock:
            self._value -= amount

    @property
    def value(self):
        with self._lock:
            return self._value

    def reset(self):
        self.set(0)

    def collect(self):
        return {"name": self.name, "kind": self.kind, "value": self.value}

    def render(self):
        return ["{} {}".format(self.name, self.value)]


class Histogram:
    """Exact-sample distribution with nearest-rank percentiles.

    Samples are stored exactly (runs are bounded in length), matching the
    repo's historical :class:`~repro.util.histogram.LatencyHistogram`
    semantics so that class can become a thin view over this one.
    """

    kind = "histogram"

    def __init__(self, name, help=""):
        self.name = name
        self.help = help
        self._samples = []
        self._lock = threading.Lock()

    def observe(self, value):
        with self._lock:
            self._samples.append(value)

    def observe_many(self, values):
        with self._lock:
            self._samples.extend(values)

    def samples(self):
        with self._lock:
            return list(self._samples)

    def reset(self):
        with self._lock:
            self._samples.clear()

    def __len__(self):
        with self._lock:
            return len(self._samples)

    @property
    def count(self):
        return len(self)

    @property
    def total(self):
        with self._lock:
            return sum(self._samples)

    def percentile(self, fraction):
        """Nearest-rank percentile of the samples, or ``None`` when empty."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        with self._lock:
            if not self._samples:
                return None
            ordered = sorted(self._samples)
        rank = math.ceil(fraction * len(ordered)) - 1
        rank = min(max(rank, 0), len(ordered) - 1)
        return ordered[rank]

    def mean(self):
        with self._lock:
            if not self._samples:
                return None
            return sum(self._samples) / len(self._samples)

    def max(self):
        with self._lock:
            return max(self._samples) if self._samples else None

    def collect(self):
        return {
            "name": self.name,
            "kind": self.kind,
            "count": self.count,
            "sum": self.total,
            "quantiles": {
                str(q): self.percentile(q) for q in _QUANTILES
            },
        }

    def render(self):
        lines = []
        for q in _QUANTILES:
            value = self.percentile(q)
            if value is not None:
                lines.append('{}{{quantile="{}"}} {}'.format(
                    self.name, q, value
                ))
        lines.append("{}_count {}".format(self.name, self.count))
        lines.append("{}_sum {}".format(self.name, self.total))
        return lines

    # Prometheus calls this shape a summary (quantiles, not buckets).
    prometheus_type = "summary"


class MetricsRegistry:
    """Named metrics, created on first use, rendered on demand."""

    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self):
        self._metrics = {}
        self._lock = threading.Lock()

    def _get_or_create(self, kind, name, help):
        cls = self._KINDS[kind]
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help=help)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    "metric {!r} already registered as {}".format(
                        name, metric.kind
                    )
                )
            return metric

    def counter(self, name, help=""):
        return self._get_or_create("counter", name, help)

    def gauge(self, name, help=""):
        return self._get_or_create("gauge", name, help)

    def histogram(self, name, help=""):
        return self._get_or_create("histogram", name, help)

    def get(self, name):
        with self._lock:
            return self._metrics.get(name)

    def names(self):
        with self._lock:
            return sorted(self._metrics)

    def __len__(self):
        with self._lock:
            return len(self._metrics)

    def reset(self):
        """Zero every metric (between measurement windows)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()

    def collect(self):
        """Point-in-time dump of every metric as plain dicts."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        return [metric.collect() for metric in metrics]

    def render_prometheus(self):
        """The Prometheus text exposition format (version 0.0.4)."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        lines = []
        for metric in metrics:
            if metric.help:
                lines.append("# HELP {} {}".format(metric.name, metric.help))
            prom_type = getattr(metric, "prometheus_type", metric.kind)
            lines.append("# TYPE {} {}".format(metric.name, prom_type))
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"

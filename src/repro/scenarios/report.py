"""Machine-readable scenario verdicts.

A :class:`ScenarioReport` is the one output shape both execution paths
produce: verdict, per-oracle verdicts with counts, and a flat metrics
dict (throughput, actions, explored states ...).  It round-trips
through JSON so a sweep can be committed, diffed, and re-checked.
"""

import json

__all__ = [
    "OracleVerdict",
    "ScenarioReport",
]

SCHEMA_VERSION = 1


class OracleVerdict:
    """One oracle's outcome: name, pass/fail, observed count, detail."""

    def __init__(self, name, ok, count=0, detail=""):
        self.name = name
        self.ok = bool(ok)
        #: the violation/occurrence count the oracle observed
        self.count = count
        self.detail = detail

    def to_dict(self):
        return {"name": self.name, "ok": self.ok, "count": self.count,
                "detail": self.detail}

    @classmethod
    def from_dict(cls, data):
        return cls(data["name"], data["ok"], data.get("count", 0),
                   data.get("detail", ""))

    def __repr__(self):
        return "OracleVerdict({!r}, {})".format(
            self.name, "ok" if self.ok else "FAIL"
        )


class ScenarioReport:
    """The outcome of executing one catalogue entry through one path."""

    def __init__(self, name, mode, tier="smoke", verdict="pass",
                 oracles=(), metrics=None, duration=0.0, seed=0,
                 skipped_reason=None):
        self.name = name
        #: "live" or "mc"
        self.mode = mode
        self.tier = tier
        #: "pass" | "fail" | "skipped"
        self.verdict = verdict
        self.oracles = list(oracles)
        self.metrics = dict(metrics or {})
        self.duration = duration
        self.seed = seed
        self.skipped_reason = skipped_reason

    @property
    def ok(self):
        return self.verdict != "fail"

    @property
    def skipped(self):
        return self.verdict == "skipped"

    def oracle(self, name):
        for verdict in self.oracles:
            if verdict.name == name:
                return verdict
        return None

    def failures(self):
        return [v for v in self.oracles if not v.ok]

    def summary(self):
        if self.skipped:
            return "{:<32} [{}] skipped: {}".format(
                self.name, self.mode, self.skipped_reason
            )
        oracle_bits = ",".join(
            "{}{}".format("" if v.ok else "!", v.name) for v in self.oracles
        )
        return "{:<32} [{}] {:<4} {:.2f}s oracles: {}".format(
            self.name, self.mode, self.verdict.upper(), self.duration,
            oracle_bits or "-",
        )

    def to_dict(self):
        return {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "mode": self.mode,
            "tier": self.tier,
            "verdict": self.verdict,
            "oracles": [v.to_dict() for v in self.oracles],
            "metrics": dict(self.metrics),
            "duration": self.duration,
            "seed": self.seed,
            "skipped_reason": self.skipped_reason,
        }

    @classmethod
    def from_dict(cls, data):
        if data.get("schema", SCHEMA_VERSION) > SCHEMA_VERSION:
            raise ValueError(
                "report schema {} is newer than supported {}".format(
                    data.get("schema"), SCHEMA_VERSION
                )
            )
        return cls(
            data["name"], data["mode"], tier=data.get("tier", "smoke"),
            verdict=data.get("verdict", "pass"),
            oracles=[OracleVerdict.from_dict(o)
                     for o in data.get("oracles", ())],
            metrics=data.get("metrics", {}),
            duration=data.get("duration", 0.0),
            seed=data.get("seed", 0),
            skipped_reason=data.get("skipped_reason"),
        )

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    def __repr__(self):
        return "ScenarioReport({!r}, {}, {})".format(
            self.name, self.mode, self.verdict
        )

"""Verification reports.

Two renderings: human-readable text (includes wall-clock timing) and a
versioned machine-readable JSON document.  The JSON form deliberately omits
timing so that identical invocations with identical seeds serialize to
byte-identical documents; every failing check carries a replayable witness
locator (axiom or check name, object tuple, arrow index, seed).
"""

from dataclasses import dataclass, field

SCHEMA_VERSION = 1


@dataclass
class CheckResult:
    name: str
    ok: bool
    witness: str = ""
    count: int = 0
    exhaustive: bool = True

    def __bool__(self):
        return self.ok

    def as_dict(self):
        return {"name": self.name, "ok": self.ok, "witness": self.witness,
                "count": self.count, "exhaustive": self.exhaustive}


@dataclass
class SuiteReport:
    suite: str
    model: str
    seed: int
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    duration: float = 0.0

    def add(self, result):
        if isinstance(result, (list, tuple)):
            self.checks.extend(result)
        else:
            self.checks.append(result)
        return result

    def note(self, text):
        self.notes.append(text)

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def sorted_checks(self):
        return sorted(self.checks, key=lambda c: c.name)

    def to_text(self):
        lines = [f"suite: {self.suite}",
                 f"model: {self.model}",
                 f"seed: {self.seed}"]
        for key in sorted(self.stats):
            lines.append(f"{key}: {self.stats[key]}")
        for c in self.sorted_checks():
            mark = "pass" if c.ok else "FAIL"
            extra = f" [{c.count}{'' if c.exhaustive else ', sampled'}]" if c.count else ""
            tail = f" -- {c.witness}" if (c.witness and not c.ok) else ""
            lines.append(f"  {mark}  {c.name}{extra}{tail}")
        for n in self.notes:
            lines.append(f"note: {n}")
        lines.append(f"result: {'pass' if self.ok else 'FAIL'}"
                     f" ({sum(1 for c in self.checks if c.ok)}/{len(self.checks)})"
                     f" in {self.duration:.2f}s")
        return "\n".join(lines)

    def to_json_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "suite": self.suite,
            "model": self.model,
            "seed": self.seed,
            "stats": self.stats,
            "notes": list(self.notes),
            "checks": [c.as_dict() for c in self.sorted_checks()],
            "ok": self.ok,
        }

"""Verification reports.

Two renderings: human-readable text (includes wall-clock timing) and a
versioned machine-readable JSON document.  The JSON form deliberately omits
timing so that identical invocations with identical seeds serialize to
byte-identical documents.  Every result comes from ``core.quantify.scan``
(``renamed`` only copies one under a new name): ``count`` is the number of
items the check's quantifier holds on a pass and the failing item's
position among them on a failure, a passing check's witness is empty, and a
failing check carries a replayable witness locator (axiom or check name,
object tuple, arrow index, seed).  Check names are unique within a suite.
"""

SCHEMA_VERSION = 1


class CheckResult:
    """One check's verdict, its witness and how many items it covered."""

    __slots__ = ("name", "ok", "witness", "count", "exhaustive")

    def __init__(self, name, ok, witness, count, exhaustive):
        self.name, self.ok, self.witness = name, ok, witness
        self.count, self.exhaustive = count, exhaustive

    def __bool__(self):
        return self.ok

    def as_dict(self):
        return {"name": self.name, "ok": self.ok, "witness": self.witness,
                "count": self.count, "exhaustive": self.exhaustive}


def renamed(results, prefix="", suffix=""):
    """Copies of ``results`` whose names are wrapped in ``prefix`` and
    ``suffix``: the one way a check's name changes after its scan."""
    return [CheckResult(prefix + r.name + suffix, r.ok, r.witness, r.count, r.exhaustive)
            for r in results]


class SuiteReport:
    """The results of one suite on one model.  ``profiles`` holds the axiom
    profiles the suite classified, for the cross-checks of criterion 4; it
    is not rendered."""

    __slots__ = ("suite", "model", "seed", "checks", "notes", "stats", "profiles", "duration")

    def __init__(self, suite, model, seed, checks=(), notes=(), stats=(), profiles=(),
                 duration=0.0):
        self.suite, self.model, self.seed, self.duration = suite, model, seed, duration
        self.checks, self.notes, self.profiles = list(checks), list(notes), list(profiles)
        self.stats = dict(stats)

    def add(self, result, prefix="", suffix=""):
        """Add one result or a list of them, names wrapped as ``renamed``
        does."""
        results = result if isinstance(result, (list, tuple)) else [result]
        self.checks.extend(renamed(results, prefix, suffix))

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

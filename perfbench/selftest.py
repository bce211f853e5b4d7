"""Show that every output check of the benchmark can fail.

    python3 perfbench/selftest.py

Runs one real command of each kind the workloads use, confirms that each
real output passes, then corrupts a copy of it in one way per check and
confirms that the benchmark counts the operation as failed.  It also confirms
that the metric names in BENCHMARK.json are the ones ``run.py`` prints.
Exits 0 when every corruption was caught.
"""

import json
import sys

import run
import workloads


def _first(wl, kind, text=""):
    return next(op for op in wl.ops if op.kind == kind and text in " ".join(op.args))


def _edit(fn):
    """A corruption that edits the parsed report and serialises it again."""
    def corrupt(stdout):
        doc = json.loads(stdout)
        fn(doc)
        return 0, json.dumps(doc, sort_keys=True, indent=2).encode()
    return corrupt


def _bump_check(name, field="count", delta=1):
    def fn(doc):
        c = next(c for c in doc["reports"][0]["checks"] if c["name"] == name)
        c[field] += delta
    return _edit(fn)


def _flip_first_check(doc):
    doc["reports"][-1]["checks"][0]["ok"] = False


CORRUPTIONS = {
    "quantale": [
        ("non-zero exit", lambda out: (1, out)),
        ("elements stat", _edit(lambda d: d["reports"][0]["stats"].update(
            elements=d["reports"][0]["stats"]["elements"] - 1))),
        ("one verdict fails", _edit(_flip_first_check)),
    ],
    "prof": [
        ("prof-enumeration count", _bump_check("prof-enumeration")),
        ("prof_elements stat", _edit(lambda d: d["reports"][0]["stats"].update(
            prof_elements=d["reports"][0]["stats"]["prof_elements"] + 1))),
        ("not structured", lambda out: (0, b"suite: prof-check\n")),
    ],
    "scalars": [
        ("scalar -1 not quasicyclic", _edit(
            lambda d: d["reports"][0]["stats"]["table"]["-1"].update(k=False))),
        ("scalar 1 fails m2", _edit(
            lambda d: d["reports"][0]["stats"]["table"]["1"].update(m2=False))),
        ("a requested scalar missing", _edit(
            lambda d: d["reports"][0]["stats"]["table"].pop("1"))),
    ],
    "verdicts": [
        ("one verdict fails", _edit(_flip_first_check)),
        ("non-zero exit", lambda out: (1, out)),
    ],
}


def metric_names_agree():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e == run.END_TO_END and layer == run.PER_LAYER


def main():
    thin = workloads.make("thin", 1, run.OUT)
    linear = workloads.make("linear", 1, run.OUT)
    samples = {"quantale": _first(thin, "quantale", "2prof:vee"),
               "prof": _first(thin, "prof", "pair-below-point"),
               "scalars": _first(linear, "scalars", "--max-dim 1"),
               "verdicts": _first(thin, "verdicts")}
    bench = run.Run(workloads.Workload("selftest", []), 0)
    missed = 0
    for kind, op in samples.items():
        code, *_ = run.run_child([sys.executable, "-m", "stautcheck.cli"] + op.args,
                                 bench.dir / f"{kind}.out", 120.0)
        real = (bench.dir / f"{kind}.out").read_bytes()
        problems = bench.check(op, code, real, kind)
        print(f"{kind:9s} real output: {'passes' if not problems else problems}")
        missed += bool(problems)
        for what, corrupt in CORRUPTIONS[kind]:
            failed_before = bench.failed
            problems = bench.check(op, *corrupt(real), f"{kind}: {what}")
            caught = bench.failed == failed_before + 1
            print(f"{kind:9s} {what:28s} "
                  + (f"counted as failed: {problems[0]}" if caught else "NOT CAUGHT"))
            missed += not caught
    agree = metric_names_agree()
    print(f"BENCHMARK.json metric names {'agree' if agree else 'DIFFER'} with run.py")
    return 0 if missed == 0 and agree else 1


if __name__ == "__main__":
    sys.exit(main())

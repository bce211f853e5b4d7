"""The stautcheck benchmark.

    python3 perfbench/run.py --workload {thin,linear} --seed N
                             --seconds S --trace {0,1}

Run from the root of a source checkout (the program is imported from
``src/``).  One operation is one ``stautcheck`` command in a fresh process,
run one at a time; it fails if it exits non-zero or if one of the checks in
``checks.py`` fails on its output.  A run repeats whole rounds of the
workload's operations: one, and then one more while the next is expected to
end within ``--seconds``.

With ``--trace 0`` it reports the end-to-end metrics: the sum over the
workload's commands of each command's least wall and least CPU time over the
rounds, the largest median resident set of any command, and the median wall
time of set-up processes, three of them timed before each round.  With
``--trace 1`` each round runs once untraced and once under ``tracer.py``, and
the run reports the per-layer metrics of the traced pass.
The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import array
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import checks
import workloads
from tracer import SUITES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PER_ROUND = 3   # set-up processes timed before each untraced round
RUN_LIMIT_S = 170.0      # every child is killed by then, so the run ends in time

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# per-layer metric -> unit; "<group>.calls" counts spans, "<group>.self_s" sums
# their self time, "<group>.s" the time of the outermost spans of the group
PER_LAYER = {
    "quantale.residual.calls": "count", "quantale.residual.self_s": "s",
    "quantale.residual.memo_hit_ratio": "ratio", "quantale.tensor.calls": "count",
    "quantale.join.calls": "count", "quantale.join.self_s": "s",
    "quantale.validate.self_s": "s", "quantale.build.s": "s",
    "matrices.matmul.calls": "count", "matrices.matmul.self_s": "s",
    "matrices.matmul.mults": "count", "matrices.matmul.fraction_calls": "count",
    "matrices.kron.calls": "count", "matrices.kron.self_s": "s",
    "matrices.kron.entries": "count", "matrices.inverse.calls": "count",
    "matrices.inverse.self_s": "s", "matrices.nullspace.calls": "count",
    "matrices.nullspace.self_s": "s",
    "objects.intern.calls": "count", "objects.intern.self_s": "s",
    "objects.intern.new": "count",
    "model.compose.calls": "count", "model.compose.self_s": "s",
    "model.value.calls": "count", "model.value.self_s": "s",
    "model.structural.calls": "count", "model.structural.hit_ratio": "ratio",
    "model.curry.self_s": "s", "model.demorgan.self_s": "s",
    "linear.mor.calls": "count", "linear.mor.self_s": "s",
    "linear.tens_par_mor.calls": "count", "linear.tens_par_mor.self_s": "s",
    "linear.hom_span.self_s": "s", "drinfeld.braid.self_s": "s",
    "thin.mor.calls": "count", "thin.mor.self_s": "s",
    "cyclicity.classify.s": "s", "cyclicity.draw_tuples.self_s": "s",
    "validate.validate_staut.s": "s", "braided.checks.s": "s",
    "profunctors.enumerate.s": "s", "profunctors.enumerate.found_ratio": "ratio",
    "profunctors.build_quantale.s": "s", "profunctors.check.s": "s",
    "strictify.checks.s": "s",
    **{f"suites.{s}.s": "s" for s in SUITES},
    "report.render.s": "s", "trace.overhead_ratio": "ratio",
}

# metric -> (numerator counter, denominator: a counter or "<group>.calls")
RATIOS = {
    "quantale.residual.memo_hit_ratio": ("quantale.residual.repeated", "quantale.residual.calls"),
    "model.structural.hit_ratio": ("model.structural.hits", "model.structural.calls"),
    "profunctors.enumerate.found_ratio": ("profunctors.enumerate.found",
                                          "profunctors.enumerate.candidates"),
}


class SetupError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, stdout_path, limit):
    """Run argv to its end; returns (exit code, wall s, cpu s, peak rss MB)."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(limit, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


class Run:
    def __init__(self, wl, seed):
        self.wl = wl
        self.dir = OUT / "runs" / f"{wl.name}-s{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.t0 = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.op_stats = {}    # (op index, traced) -> [(wall, cpu, rss), ...]

    def remaining(self):
        return RUN_LIMIT_S - (time.perf_counter() - self.t0)

    def op(self, i, op, traced):
        """Run one operation; returns (wall, cpu, rss) and the trace prefix."""
        tag = f"op{i:02d}" + ("-traced" if traced else "")
        prefix = self.dir / tag
        argv = [sys.executable]
        if traced:
            for stale in (prefix.with_suffix(".json"), prefix.with_suffix(".spans")):
                stale.unlink(missing_ok=True)
            argv += [str(HERE / "tracer.py"), str(prefix), "--"]
        else:
            argv += ["-m", "stautcheck.cli"]
        code, wall, cpu, rss = run_child(argv + op.args, prefix.with_suffix(".out"),
                                         self.remaining())
        self.check(op, code, prefix.with_suffix(".out").read_bytes(), tag)
        self.op_stats.setdefault((i, traced), []).append((wall, cpu, rss))
        return (wall, cpu, rss), (prefix if traced else None)

    def check(self, op, code, stdout, tag):
        """Count the operation as attempted, and as failed if its output
        does not pass; returns its problems."""
        problems = checks.verify(op, code, stdout)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{tag} stautcheck {' '.join(op.args)}: "
                                 + "; ".join(problems[:5]))
        return problems

    def round(self, traced):
        stats, prefixes = [], []
        for i, op in enumerate(self.wl.ops):
            s, prefix = self.op(i, op, traced)
            stats.append(s)
            prefixes.append(prefix)
        return {"wall": sum(s[0] for s in stats), "traces": prefixes}


def setup_times(wl, run_dir):
    spec = run_dir / "setup.json"
    spec.write_text(json.dumps(wl.setup))
    times = []
    for k in range(SETUP_PER_ROUND):
        code, wall, _, _ = run_child([sys.executable, str(HERE / "setup_probe.py"), str(spec)],
                                     run_dir / f"setup{k}.out", 60.0)
        if code != 0:
            raise SetupError(f"set-up process exited with {code}; see {run_dir}/setup{k}.err")
        times.append(wall)
    return times


def read_trace(prefix):
    meta = json.loads(prefix.with_suffix(".json").read_text())
    n = meta["spans"]
    arrays = [array.array(t) for t in "iidd"]
    with open(prefix.with_suffix(".spans"), "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return meta, arrays


INCLUSIVE = {name[:-len(".s")] for name in PER_LAYER if name.endswith(".s")}


def layer_totals(prefix, totals):
    """Add one traced command's per-group figures into ``totals``; a command
    killed before it wrote its trace (already counted failed) adds nothing."""
    try:
        meta, (name, parent, start, end) = read_trace(prefix)
    except FileNotFoundError:
        return
    group = [meta["groups"][nm] for nm in meta["names"]]
    child = array.array("d", bytes(8 * len(name)))
    self_s = [0.0] * len(group)
    # children come after their parent, so walking backwards sums every
    # span's children before the span itself is reached
    for i in range(len(name) - 1, -1, -1):
        d = end[i] - start[i]
        k = name[i]
        self_s[k] += d - child[i]
        p = parent[i]
        if p >= 0:
            child[p] += d
        g = group[k]
        if g in INCLUSIVE:
            # only the outermost span of a group counts towards its time
            while p >= 0 and group[name[p]] != g:
                p = parent[p]
            if p < 0:
                totals[g + ".s"] += d
    calls = Counter(name)
    for k, g in enumerate(group):
        totals[g + ".calls"] += calls[k]
        totals[g + ".self_s"] += self_s[k]
    totals.update(meta["counters"])


def per_layer(rounds):
    traced = [r["traced"] for r in rounds]
    totals = Counter()
    for r in traced:
        for prefix in r["traces"]:
            layer_totals(prefix, totals)
    metrics = {}
    for name in PER_LAYER:
        if name in RATIOS:
            num, den = RATIOS[name]
            metrics[name] = totals[num] / totals[den] if totals[den] else 0.0
        elif name == "trace.overhead_ratio":
            metrics[name] = (statistics.median(r["traced"]["wall"] for r in rounds)
                             / statistics.median(r["wall"] for r in rounds))
        else:
            metrics[name] = totals[name] / len(traced)
    return metrics


def measure(wl, seed, seconds, trace):
    run = Run(wl, seed)
    setup, rounds = [], []
    t0 = time.perf_counter()
    while True:
        if not trace:
            # spread over the run like the commands, so that both see the
            # same phases of a shared host
            setup += setup_times(wl, run.dir)
        r = run.round(traced=False)
        if trace:
            r["traced"] = run.round(traced=True)
        rounds.append(r)
        elapsed = time.perf_counter() - t0
        length = statistics.median(time_of(x) for x in rounds)
        if elapsed + length > seconds or length > run.remaining():
            break
    if trace:
        metrics = per_layer(rounds)
        units = PER_LAYER
    else:
        metrics = end_to_end(run.op_stats)
        metrics["setup_s"] = statistics.median(setup)
        units = END_TO_END
    return run, len(rounds), {k: {"value": metrics[k], "unit": units[k]} for k in units}


def end_to_end(op_stats):
    """The least wall and CPU time of each command, summed over the commands,
    and the largest median resident set.  Other tenants of a shared host slow
    a command down, never speed it up, so a command's least time over the
    rounds is the steadiest estimate of its cost."""
    stats = [ss for (_, traced), ss in op_stats.items() if not traced]
    return {"wall_s": sum(min(s[0] for s in ss) for ss in stats),
            "cpu_s": sum(min(s[1] for s in ss) for ss in stats),
            "peak_rss_mb": max(statistics.median(s[2] for s in ss) for ss in stats)}


def time_of(r):
    return r["wall"] + (r["traced"]["wall"] if "traced" in r else 0.0)


def build():
    """Byte-compile the program, so no measured process pays for it."""
    code = subprocess.call([sys.executable, "-m", "compileall", "-q", str(SRC / "stautcheck")],
                           stdout=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
    return code == 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "stautcheck" / "cli.py").is_file():
        print(f"no program at {SRC / 'stautcheck'}: run from a stautcheck checkout",
              file=sys.stderr)
        return 2
    if not build():
        print("byte-compiling src/stautcheck failed", file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, args.seed, OUT)
    try:
        run, n_rounds, metrics = measure(wl, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}: {n_rounds} round(s) of "
          f"{len(wl.ops)} command(s); attempted {run.attempted}, failed {run.failed}")
    for line in run.problems:
        print("  FAILED " + line)
    for (i, traced), stats in sorted(run.op_stats.items()):
        walls = [s[0] for s in stats]
        print(f"  {min(walls):8.3f} s (median {statistics.median(walls):.3f})  "
              f"{'traced ' if traced else ''}stautcheck {' '.join(wl.ops[i].args)}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

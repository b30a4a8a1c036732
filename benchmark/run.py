"""weylinv benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a weylinv source tree.  Every command of a pass
runs in a fresh interpreter (benchmark/child.py), so no process-wide
memo (the lru_cache on build_root_system, basis' space and certificate
memos, caches attached to RootSystem) survives from one pass into the
next.  Passes repeat, closed loop, while the next one is expected to end
within S seconds of the start, set-up included.

Workloads (benchmark/NOTES.md says why each was chosen):

  verify_cold   verify --all --json --cache-dir <fresh empty dir>
  verify_warm   the same against a cache dir that this source tree filled
                (kept in .bench_work for later runs on the same ./src);
                each pass gets its own copy
  groups_sweep  order X --json, then omega X --json, for 24 Weyl systems;
                the seed permutes the command order

Each command's stdout sha256 and exit code are checked against
benchmark/reference.json, recorded at the commit that introduced the
benchmark.  The last stdout line is one JSON object: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics of traced
passes (benchmark/tracer.py), which alternate with untraced ones.
The end-to-end times are CPU times scaled to a reference speed of the
machine, which each process samples while it runs (benchmark/speed.py):
on a shared virtual machine both the wall time and the CPU time of the
same pass change by tens of percent from minute to minute.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

VERIFY = ("verify", "--all", "--json")
SWEEP_SYSTEMS = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["F4", "E6", "E7", "E8"]
)
SWEEP = tuple(
    (command, system, "--json")
    for system in SWEEP_SYSTEMS
    for command in ("order", "omega")
)
WORKLOADS = ("verify_cold", "verify_warm", "groups_sweep")

PASS_TIMEOUT_S = 120
# import-only processes before each untraced pass, so that setup_s has
# samples spread over the whole run even when passes are few
SETUP_PROBES = 2
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def command_key(argv) -> str:
    return " ".join(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("WEYLINV_CACHE_DIR", None)
    return env


def now() -> float:
    return time.monotonic()


class Bench:
    def __init__(self, work: str, reference: dict):
        self.work = work
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setups: list[float] = []
        self._n = 0

    def fresh_dir(self, prefix: str) -> str:
        self._n += 1
        return os.path.join(self.work, f"{prefix}{self._n}")

    def spawn(self, commands, trace: bool = False) -> tuple[dict, float]:
        """Run child.py once: (its record, its max RSS in MB)."""
        result_path = self.fresh_dir("result") + ".json"
        proc = subprocess.Popen(
            [sys.executable, CHILD, SRC, result_path, "1" if trace else "0",
             json.dumps(commands)],
            stdout=subprocess.DEVNULL,
            env=child_env(),
            cwd=ROOT,
        )
        killer = threading.Timer(PASS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        # reaped by wait4 above, which also gives the child's rusage
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            with open(result_path) as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            record = {}
        if "setup_scale" in record:
            self.setups.append(record["ready_cpu_s"] * record["setup_scale"])
        return record, usage.ru_maxrss / 1024

    def probe(self) -> None:
        """Interpreter start plus `import weylinv.cli`, nothing else."""
        record, _ = self.spawn([])
        if "ready_cpu_s" not in record:
            raise RuntimeError("cannot import weylinv.cli from ./src")

    def run_pass(self, steps, cache_from=None, trace=False) -> dict:
        """One pass in one fresh process.  A verify step gets its own cache
        dir: empty, or a copy of cache_from."""
        commands, cache_dirs = [], []
        for argv in steps:
            argv = list(argv)
            if argv[0] == "verify":
                cache_dir = self.fresh_dir("cache")
                if cache_from is None:
                    os.makedirs(cache_dir)
                else:
                    shutil.copytree(cache_from, cache_dir)
                argv += ["--cache-dir", cache_dir]
                cache_dirs.append(cache_dir)
            commands.append(argv)
        record, rss = self.spawn(commands, trace)
        done = record.get("steps", [])
        for i, argv in enumerate(steps):
            self.attempted += 1
            problem = self._check(argv, done[i] if i < len(done) else None)
            if problem:
                self.failed += 1
                self.problems.append(f"{command_key(argv)}: {problem}")
        wall_s = sum(s["wall_s"] for s in done)
        cpu_s = sum(s["cpu_s"] for s in done)
        scale = record.get("scale", 0.0)
        traced = record.get("trace", {"times": {}, "counts": {}})
        if trace and not _adds_up(traced, wall_s):
            self.problems.append("layer self times do not add up to the traced wall time")
        return {"wall_s": wall_s, "cpu_s": cpu_s, "cpu_ref_s": cpu_s * scale,
                "rss_mb": rss, "trace": traced,
                "cache_dirs": cache_dirs}

    def _check(self, argv, got):
        want = self.reference.get(command_key(argv))
        if want is None:
            return "no reference output"
        if got is None:
            return "did not run; the pass process failed"
        if got["exit"] != want["exit"]:
            return f"exit {got['exit']}, expected {want['exit']}"
        if got["sha256"] != want["sha256"]:
            return f"stdout sha256 {got['sha256'][:12]}, expected {want['sha256'][:12]}"
        return None


def _adds_up(trace, wall_s: float) -> bool:
    layers = [v for k, v in trace["times"].items() if k.endswith(".self_s")]
    return abs(sum(layers) - wall_s) <= 1e-6 * wall_s + 1e-9


def source_digest() -> str:
    """sha256 over the files of ./src and the interpreter version."""
    h = hashlib.sha256(sys.version.encode())
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def warm_cache(bench: Bench) -> str:
    """A cache dir that `verify --all` of this source tree filled.  The
    first run makes it; later runs on the same ./src reuse it from
    .bench_work, so it never comes from another source tree."""
    kept = os.path.join(WORK_ROOT, "warm-" + source_digest())
    if not os.path.isdir(kept):
        failed = bench.failed
        filled = bench.run_pass([VERIFY])["cache_dirs"][0]
        if bench.failed == failed:  # keep only a cache from a correct run
            tmp = f"{kept}.{os.getpid()}"
            shutil.copytree(filled, tmp)
            try:
                os.rename(tmp, kept)
            except OSError:  # another run kept one first
                shutil.rmtree(tmp, ignore_errors=True)
        return filled
    return kept


def workload_steps(workload: str, seed: int) -> list:
    if workload == "groups_sweep":
        steps = list(SWEEP)
        random.Random(seed).shuffle(steps)
        return steps
    return [VERIFY]  # the program's fixed task list; the seed changes nothing


def spec_metrics(kind: str) -> dict:
    """name -> unit of the BENCHMARK.json metrics of one kind."""
    with open(SPEC) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def measure(bench: Bench, workload: str, steps, seconds: int, trace: bool) -> dict:
    deadline = now() + seconds
    cache_from = None
    if workload == "verify_warm":
        cache_from = warm_cache(bench)
    untraced, traced = [], []
    last = {False: 0.0, True: 0.0}  # how long the last pass of each kind took
    while True:
        want_trace = trace and len(traced) <= len(untraced)
        enough = untraced and (not trace or len(traced) >= 2)
        if enough and now() + last[want_trace] > deadline:
            break
        started = now()
        if not trace:
            for _ in range(SETUP_PROBES):
                bench.probe()
        p = bench.run_pass(steps, cache_from, want_trace)
        last[want_trace] = now() - started
        (traced if want_trace else untraced).append(p)
        at_ref = "" if want_trace else f" ({p['cpu_ref_s']:.3f} s at reference speed)"
        print(f"pass {len(untraced) + len(traced)}: "
              f"{'traced' if want_trace else 'untraced'} "
              f"cpu {p['cpu_s']:.3f} s{at_ref}, wall {p['wall_s']:.3f} s, "
              f"max rss {p['rss_mb']:.1f} MB")
    if not trace:
        return {
            "cpu_ref_s": (statistics.median(p["cpu_ref_s"] for p in untraced), "s"),
            "max_rss_mb": (statistics.median(p["rss_mb"] for p in untraced), "MB"),
            "setup_s": (statistics.median(bench.setups), "s"),
        }
    wanted = spec_metrics("per_layer")
    recorded = {k for p in traced for part in p["trace"].values() for k in part}
    if recorded - set(wanted):
        bench.problems.append(f"traced metrics missing from BENCHMARK.json: "
                              f"{sorted(recorded - set(wanted))}")
    counts = [p["trace"]["counts"] for p in traced]
    if any(c != counts[0] for c in counts):
        bench.problems.append("counts differ between traced passes")
    metrics = {
        "trace.overhead_s": (
            statistics.median(p["cpu_s"] for p in traced)
            - statistics.median(p["cpu_s"] for p in untraced),
            "s",
        )
    }
    for name, unit in wanted.items():
        if name in metrics:
            continue
        if unit == "s":
            value = statistics.median(p["trace"]["times"].get(name, 0.0) for p in traced)
        else:
            value = counts[0].get(name, 0)
        metrics[name] = (value, unit)
    return metrics


def check_names(metrics: dict, trace: bool) -> list[str]:
    wanted = spec_metrics("per_layer" if trace else "end_to_end")
    problems = []
    if set(wanted) != set(metrics):
        problems.append(
            f"metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(wanted) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(wanted))}"
        )
    problems += [f"bad metric name {n!r}" for n in metrics if not METRIC_NAME.fullmatch(n)]
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for need in (os.path.join(SRC, "weylinv", "cli.py"), REFERENCE, SPEC):
        if not os.path.isfile(need):
            print(f"run.py: {need} is missing; run from the root of a weylinv "
                  "source tree", file=sys.stderr)
            return 2
    with open(REFERENCE) as fh:
        reference = json.load(fh)

    steps = workload_steps(args.workload, args.seed)
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    if args.workload == "groups_sweep":
        print("# order: " + ", ".join(" ".join(s[:2]) for s in steps))
    work = os.path.join(WORK_ROOT, str(os.getpid()))
    os.makedirs(work)
    try:
        bench = Bench(work, reference)
        bench.probe()  # compiles the bytecode caches; not timed
        bench.setups.clear()
        metrics = measure(bench, args.workload, steps, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # it holds a kept warm cache, or another run uses it
    bench.problems += check_names(metrics, bool(args.trace))
    for problem in bench.problems:
        print(f"# problem: {problem}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

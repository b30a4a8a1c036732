"""Write benchmark/reference.json: the sha256 of stdout and the exit code
of every command the benchmark runs, as the current source tree gives
them.  Run from the root of a source tree whose outputs are known good:

    python3 benchmark/record_reference.py

`verify --all --json` is run with no cache, into an empty cache dir and
against the cache dir that run filled; all three must print the same bytes.
"""
import json
import os
import shutil
import sys

import run


def main() -> int:
    work = os.path.join(run.ROOT, ".bench_work", f"record-{os.getpid()}")
    os.makedirs(work)
    try:
        bench = run.Bench(work, {})
        cache = os.path.join(work, "cache")
        verify = []
        for extra in ([], ["--cache-dir", cache], ["--cache-dir", cache]):
            record, _ = bench.spawn([[*run.VERIFY, *extra]])
            verify.append(record["steps"][0])
        outputs = {(s["sha256"], s["exit"]) for s in verify}
        if len(outputs) != 1:
            print(f"verify output differs across cache states: {outputs}", file=sys.stderr)
            return 1
        record, _ = bench.spawn([list(argv) for argv in run.SWEEP])
        steps = [run.VERIFY, *run.SWEEP]
        done = verify[:1] + record["steps"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reference = {
        run.command_key(argv): {"sha256": s["sha256"], "exit": s["exit"]}
        for argv, s in zip(steps, done)
    }
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark pass: a fresh interpreter runs a list of weylinv commands.

    python3 child.py SRC RESULT TRACE COMMANDS

imports `weylinv.cli` from the source tree SRC and runs `main(argv)` for
each argv in COMMANDS (a JSON list of lists), capturing each command's
stdout.  It writes a JSON record to RESULT: per command the exit code,
the sha256 of its stdout and the CPU and wall time of `main`, and the
CPU time the process had used when the import finished (interpreter
start plus import).  With TRACE=1 the record also holds the per-layer
trace of the whole pass.  With an empty COMMANDS list it stops after
the import.

Without TRACE, speed.py samples the machine's speed during the import
and during the commands.  The CPU times recorded are then the program's
own, without the sampling chunks, and the record holds the factors that
scale them to the reference speed: `setup_scale` for the import and
`scale` for the commands.
"""
import sys
import time


def main() -> int:
    src, result_path, trace, commands = sys.argv[1:5]
    sys.path.insert(0, src)
    sampler = None
    if trace != "1":
        import speed

        sampler = speed.Sampler()
        sampler.start()
    import weylinv.cli

    ready_cpu_s = time.thread_time()  # the process has just this thread
    import hashlib
    import io
    import json
    from contextlib import redirect_stdout

    record = {}
    if sampler is not None:
        sampler.stop()
        ready_cpu_s -= sampler.spent_s
        sampler.top_up(30)
        record["setup_scale"] = speed.scale(sampler.take()[0])
    record["ready_cpu_s"] = ready_cpu_s

    tracer = None
    if trace == "1":
        import tracer as tracing

        tracer = tracing.install()
    steps = []
    argvs = json.loads(commands)
    if sampler is not None and argvs:
        sampler.start()
    for argv in argvs:
        out = io.StringIO()
        with redirect_stdout(out):
            spent = sampler.spent_s if sampler is not None else 0.0
            c0 = time.thread_time()
            t0 = time.perf_counter()
            code = weylinv.cli.main(argv)
            wall_s = time.perf_counter() - t0
            cpu_s = time.thread_time() - c0
            if sampler is not None:
                cpu_s -= sampler.spent_s - spent
        steps.append({
            "exit": code,
            "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "wall_s": wall_s,
            "cpu_s": cpu_s,
        })
    if sampler is not None and argvs:
        sampler.stop()
        record["scale"] = speed.scale(sampler.take()[0])
    record["steps"] = steps
    if tracer is not None:
        record["trace"] = tracer.report(sum(s["wall_s"] for s in steps))
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

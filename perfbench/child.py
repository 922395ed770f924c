"""One execution of a workload in a fresh interpreter.

    python3 perfbench/child.py SPAWN_TIME                  set-up only
    python3 perfbench/child.py SPAWN_TIME REQUEST RESULT   one execution

SPAWN_TIME is the parent's time.monotonic() just before it started this
process; CLOCK_MONOTONIC is shared by all processes, so the set-up time
is the gap up to `import kakeyagf` done. REQUEST and RESULT are pickle
files written by the benchmark itself: the request names the workload,
its inputs, the worker count and the trace mode: None, "spans" (spans
and counters) or "mul_calls" (scalar `Field.mul` calls only). The result holds the
outputs, the wall and CPU time of the execution alone, and the peak RSS.
"""

import time
import sys

import kakeyagf

READY = time.monotonic()

import pickle  # noqa: E402
import resource  # noqa: E402


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv: list[str]) -> int:
    result = {"setup_s": READY - float(argv[0]), "kakeyagf": kakeyagf.__file__}
    if len(argv) == 3:
        with open(argv[1], "rb") as fh:
            req = pickle.load(fh)
        tracer = None
        if req["trace"]:
            # before `cases` binds the program's functions, so it binds the wrappers
            import tracer as tracing
            tracer = tracing.Tracer()
            install = {"spans": tracing.install_spans, "mul_calls": tracing.install_mul_counter}
            install[req["trace"]](tracer)
        import cases
        run = cases.EXECUTE[req["workload"]]
        cpu0 = _cpu()
        t0 = time.perf_counter()
        outputs = run(req["inputs"], req["workers"])
        wall = time.perf_counter() - t0
        cpu = _cpu() - cpu0
        result.update(outputs=outputs, wall_s=wall, cpu_s=cpu,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                      trace=tracer.summary() if tracer else None)
        with open(argv[2], "wb") as fh:
            pickle.dump(result, fh)
    else:
        print(result["setup_s"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""One `proxnet run` in a fresh process, timed from the outside.

    python3 bench/probe.py SRC CONFIG TRACE_CSV RESULT_JSON [--trace]

Imports proxnet from SRC, wraps only `proxnet.cli.run` (or, with --trace,
every layer's public functions), calls `proxnet.cli.main(["run", ...])`
and writes the timings, peak RSS and any spans to RESULT_JSON.  Exits
with the program's exit code.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from tracer import END, NAME, RUN_BOUNDARY, START, Tracer


def main(argv: list[str]) -> int:
    src, config, trace_csv, result_path = argv[:4]
    traced = "--trace" in argv[4:]
    sys.path.insert(0, src)
    import proxnet.cli

    tracer = Tracer()
    if traced:
        tracer.install()
    else:
        tracer.install((RUN_BOUNDARY,), ())

    cpu_start = time.process_time()
    start = time.perf_counter()
    code = proxnet.cli.main(["run", "--config", config, "--output", trace_csv])
    end = time.perf_counter()
    cpu_end = time.process_time()

    result = {
        "wall_s": end - start,
        "cpu_s": cpu_end - cpu_start,
        "peak_rss_mb": peak_rss_mb(),
        "absent": tracer.absent,
    }
    boundary = [s for s in tracer.spans if s[NAME] == RUN_BOUNDARY[2]]
    if len(boundary) == 1:
        result["setup_s"] = boundary[0][START] - start
        result["solve_s"] = boundary[0][END] - boundary[0][START]
    if traced:
        result["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return code


def peak_rss_mb() -> float:
    """Peak resident set of this process image, in MiB.

    VmHWM starts afresh at exec.  ru_maxrss is only the fallback: Linux
    carries it across exec, so it also counts the parent's resident set
    at the moment it started this process.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

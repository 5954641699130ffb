"""Run one cachecomp CLI job for the benchmark.

    python3 perfbench/child.py <plain|spans|memory> <report.json> <cachecomp argv...>

Imports the package, notes when ``cli.main`` starts (so the parent can
compute interpreter start plus import time), runs it and exits with its
code.  ``spans`` also records spans around the library's public functions
and ``memory`` additionally measures traced peak memory in dualcert; both
write the spans to the report.
"""

import json
import sys
import time


def main() -> int:
    mode, report, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from cachecomp import cli

    tracer = None
    if mode != "plain":
        import spans

        tracer = spans.install(memory=mode == "memory")
    main_start = time.clock_gettime(time.CLOCK_MONOTONIC)  # the clock of spans.now()
    rc = cli.main(argv)
    sys.stdout.flush()
    with open(report, "w", encoding="utf-8") as f:
        json.dump({"main_start": main_start, "spans": tracer.spans if tracer else []}, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())

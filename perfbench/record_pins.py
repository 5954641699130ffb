"""Record the output digests that ``run.py`` checks on every run.

    python3 perfbench/record_pins.py

Run it from the root of the checkout whose outputs are the reference; it
runs every workload once on its small pin inputs, checks the outputs and
writes ``perfbench/pins.json``.
"""

import json
import sys

from run import PINS, WORKLOADS, pin_digests, pin_pass


def main() -> int:
    pins = {}
    for name, wl in WORKLOADS.items():
        b, _ = pin_pass(name, wl)
        if b.failures:
            print("\n".join(b.failures), file=sys.stderr)
            return 1
        pins[name] = {job.name: pin_digests(b.d, job) for job in wl.jobs}
    PINS.write_text(json.dumps(pins, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

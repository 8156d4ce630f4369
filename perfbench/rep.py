"""One timed repetition of one workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload sweep-cold --seed 1 --index 0 \\
        --trace 0 --size full --work DIR --out RECORD.json \\
        --launched <time.monotonic() of the launching process>

``run.py`` starts one of these per repetition, with ``src`` on
``PYTHONPATH`` and ``XDG_CACHE_HOME``/``TMPDIR`` inside ``--work``, and
reads the :class:`workloads.Record` it writes to ``--out``.  Set-up time
is counted from ``--launched`` (``CLOCK_MONOTONIC`` is shared by every
process on the host), so interpreter start and imports are included.
"""

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--launched", type=float, default=None)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up (an extra set-up sample)")
    args = parser.parse_args(argv)
    started = (args.launched if args.launched is not None
               else time.monotonic())

    from layers import Tracer
    from workloads import SIZES, WORKLOADS

    record = WORKLOADS[args.workload](
        args.seed, args.index, Path(args.work),
        SIZES[args.size][args.workload],
        tracer=Tracer() if args.trace else None, started=started,
        setup_only=args.setup_only)
    with open(args.out, "w") as stream:
        json.dump(dataclasses.asdict(record), stream)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end benchmark of the repro CLI and service.

Run from the repository root::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 22 --trace 0

``--workload`` is one of ``vcd_check``, ``corpus_cache`` and ``serve``
(see ``perfbench/README.md``).  With ``--trace 0`` the workload runs
against the real ``repro`` commands with tracing off and reports the
end-to-end metrics; with ``--trace 1`` a separate in-process replay of
all three workloads reports per-layer self times and counts.  The last
line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Progress notes go to stderr.

``--size smoke`` shrinks every input so a run takes seconds (the
benchmark's own self-test uses it); ``--corrupt-reference`` shifts the
reference detections so every verdict check must fail.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("vcd_check", "corpus_cache", "serve")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--corrupt-reference", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"perfbench: no repro sources under {ROOT}/src; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from common import Context

    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        ctx = Context(ROOT, workdir, args.seed, args.seconds, args.size,
                      args.corrupt_reference)
        if args.trace:
            import traced

            metrics = traced.run(ctx, args.workload)
        else:
            from common import pin_to_one_cpu
            from workloads import WORKLOADS as RUNNERS

            print(f"perfbench: pinned to CPU {pin_to_one_cpu()}",
                  file=sys.stderr)
            metrics = RUNNERS[args.workload](ctx).run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tally = ctx.tally
    if tally.first_failure is not None:
        print(f"perfbench: first failed op: {tally.first_failure}",
              file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One fresh worker process: one round of one workload.

``python3 -m perfbench.worker --workload W --seed N --ops N --traced 0|1
--workdir DIR`` prints one JSON report as its last line of standard
output.  The harness starts it; nothing else should.
"""

import time

#: ``setup_s`` is measured from here: the first line the worker executes,
#: before numpy or repro are imported.
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def pin_to_one_cpu() -> int:
    """Pin this process to the highest CPU it may run on.

    Every workload is one GIL-bound process; left unpinned its threads
    wander over the shared vCPUs, which is both slower and several times
    noisier.  Must run before numpy loads so BLAS threads inherit the mask.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _blas_version() -> str:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy: no dict mode
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    cpu = pin_to_one_cpu()
    load_start = os.getloadavg()
    # Imported only now: after the pin, inside the set-up time.
    from perfbench.workloads import runner
    report = runner(args.workload)(
        args.workload, args.seed, args.ops, bool(args.traced), T0,
        args.workdir)

    from repro.utils.environment import machine_environment
    report.update({
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.traced),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            **machine_environment(),
            "blas": _blas_version(),
            "pinned_cpu": cpu,
            "load_start": list(load_start),
            "load_end": list(os.getloadavg()),
        },
    })
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

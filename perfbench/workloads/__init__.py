"""The four workloads.  Each module's ``run(workload, seed, n_ops, traced,
t0, workdir)`` executes one round inside the worker process and returns
its report; modules load lazily so a round imports (and its ``setup_s``
and ``peak_rss_mb`` pay for) only the layers its workload uses."""

import importlib

_MODULES = {
    "train_movielens": "train",
    "train_chembl": "train",
    "dist_socket_2rank": "dist",
    "serve_mixed": "serve",
}


def runner(workload: str):
    """The ``run`` function of ``workload``'s module."""
    module = importlib.import_module(
        f"perfbench.workloads.{_MODULES[workload]}")
    return module.run

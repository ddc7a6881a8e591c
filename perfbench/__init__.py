"""perfbench: the repository's repeatable four-workload benchmark.

Every number comes from fresh worker processes pinned to one CPU, run one
at a time, and is reported as the median over rounds.  See ``README.md``
in this directory for the workloads, the metrics and how to read a trace.

Importing this package has no side effects and pulls in neither numpy nor
``repro`` — the worker must be able to take its first timestamp and pin
itself before either loads.
"""

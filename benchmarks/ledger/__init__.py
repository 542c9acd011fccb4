"""The ledger: the repository's rule-bound performance benchmark.

Four pinned workloads, thirteen gated end-to-end metrics, ninety-two
per-layer metrics and a traced run, declared in the root
``BENCHMARK.json`` and documented in ``README.md`` next to this file.

Run it as ``python3 benchmarks/ledger/run.py`` (what ``BENCHMARK.json``
names) or ``PYTHONPATH=src python -m benchmarks.ledger``.  Nothing here
is imported by ``src/``; every layer is measured from outside, by
timing calls into its public functions.
"""

"""Script entry the root ``BENCHMARK.json`` names.

Puts the checkout's ``src/`` (the program under test) and its root (so
this directory imports as ``benchmarks.ledger``) on ``sys.path``, then
hands over to :mod:`benchmarks.ledger.cli`.  Needs no ``PYTHONPATH``.
The import sits under the ``__main__`` check on purpose: the cluster
fleet is started with the *spawn* method, which re-imports this file in
every worker, and a worker must not pay for importing the benchmark.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    root = Path(__file__).resolve().parents[2]
    for entry in (root, root / "src"):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))
    from benchmarks.ledger.cli import main

    sys.exit(main())

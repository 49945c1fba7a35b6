"""The repo's end-to-end benchmark: four live workloads, a layer ledger
traced from outside the program, and a deterministic sim twin.

``BENCHMARK.json`` at the repo root is the contract; ``bench/README.md``
is the manual.  Nothing under ``src/`` imports this package.
"""

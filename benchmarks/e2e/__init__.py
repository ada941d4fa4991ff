"""End-to-end benchmark with a per-layer ledger.

``python -m benchmarks.e2e run --workload NAME --seed S`` measures one
workload; ``python -m benchmarks.e2e compare A.json B.json`` compares two
result files.  See ``benchmarks/e2e/README.md``.
"""

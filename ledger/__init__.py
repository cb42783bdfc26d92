"""Stage ledger: the cold end-to-end benchmark, split per layer.

Run ``python3 -m ledger --workload hist-full --seed 1 --seconds 30 --trace 0``
from the repository root; ``ledger/README.md`` explains the workloads and
how to read the rows.
"""

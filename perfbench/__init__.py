"""End-to-end flow benchmark for the ``repro`` package.

Run ``python3 perfbench/run.py --workload <name> --seed <n>`` from the
repository root.  ``perfbench/README.md`` documents the workloads, the
metrics and the comparison and scaling modes.
"""

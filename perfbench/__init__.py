"""Benchmark of the fedre simulator: workloads, output checks and span tracing.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see run.py.
"""

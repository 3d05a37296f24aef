"""The repository's benchmark: four workloads over the four user paths of ``repro``.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; see ``perfbench/README.md``.
"""

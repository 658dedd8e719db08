"""The repository benchmark: four campaign/service workloads, timed end to
end and, in a separate traced run, per layer.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root (see
``perfbench/README.md``).  Nothing here is imported by ``src/``; the
benchmark drives the program only through its public API and times the
layers from outside.
"""

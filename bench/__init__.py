"""The repo benchmark: every user-visible figure of the debugger/checker
stack, measured from outside ``src/`` (see ``bench/README.md``).

Run one workload with ``python3 -m bench --workload ring --seed 0``.
"""

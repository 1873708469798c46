"""Layer-split benchmark for the DADER reproduction.

``python3 perfbench/run.py --workload {resolve,serve,adapt}`` drives the
program only through its public entry points; see :mod:`perfbench.run`.
"""

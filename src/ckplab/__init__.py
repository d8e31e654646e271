"""Simulation laboratory for cumulative knowledge processes.

Grows labeled DAGs step by step, injects errors and adversarial moves,
runs local checking mechanisms against the growth, and measures whether
the hidden errors die out or take over.  Companion tooling evaluates
potential-function drift exactly and by Monte Carlo, and decides proven
survival/elimination parameter regions.
"""

__version__ = "0.1.0"

"""Deterministic water-heater self-adaptation simulator and assurance toolkit.

The package re-exports nothing: import each name from its module, for
example ``from safeadapt.harness import run_scenario``.
"""

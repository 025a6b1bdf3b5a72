"""End-to-end, layer-attributed benchmark of the imputation system.

See README.md in this directory; run ``python -m benchmarks.e2e --help``.
"""

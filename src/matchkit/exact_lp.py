"""Placeholder for the exact rational simplex, which now lives in
``tests/oracles.py``: the core search descends a lattice instead.

The module stays importable only because ``bench/spans.py`` names
``exact_lp`` as a trace layer under ``--trace 1``; it defines nothing,
so its metrics read 0.  The file goes when that layer entry does.
"""

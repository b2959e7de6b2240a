"""Benchmark for ``wavets``; run ``python3 bench/run.py --help``."""

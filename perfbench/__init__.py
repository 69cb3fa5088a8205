"""Benchmark of the ADSALA thread-selection service; see run.py."""

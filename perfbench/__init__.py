"""Seeded end-to-end and per-layer benchmark for devmatch; run perfbench/run.py."""

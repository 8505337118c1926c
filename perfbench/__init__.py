"""Benchmark harness for the tightsample CLI; entry point: perfbench/run.py."""

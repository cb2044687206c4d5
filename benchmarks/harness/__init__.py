"""One replay-driven benchmark harness for the whole ``repro`` stack.

Run as ``python -m benchmarks.harness`` (see README.md in this directory).
"""

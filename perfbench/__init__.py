"""Benchmark of abductor; see README.md."""

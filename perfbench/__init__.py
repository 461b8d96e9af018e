"""Benchmark for compile, batch inference and serving (see README.md)."""

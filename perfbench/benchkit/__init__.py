"""Benchmark helpers: spans, layer wrappers, statistics and workload runners."""

"""Benchmark harness for lane3d; see README.md here."""

"""Benchmark harness for droopsched: closed-loop workloads, output checks and tracing."""

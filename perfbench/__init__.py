"""Layered benchmark for the ridgerec pipeline.

Run ``python3 perfbench/run.py --workload all`` from the repository root;
see ``perfbench/NOTES.md`` for the workloads and what each metric means.
"""

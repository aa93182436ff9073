"""End-to-end benchmark of the FC-DPM reproduction.

``python -m benchmarks.e2e run|trace|compare`` -- see README.md in this
directory.  The workloads drive ``repro`` through its public entry
points only (``simulate_batch``, ``run_experiment`` /
``ExperimentResults.load`` and the ``fcdpm`` CLI), each round in a
fresh interpreter with ``src`` on its path.
"""

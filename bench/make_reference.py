"""Recompute the anchor outputs at c = h = 1 and store them in
reference.json.  Run from the repository root after a change that is meant
to move an anchor:

    PYTHONPATH=src python3 bench/make_reference.py
"""

import os

import workloads

if __name__ == "__main__":
    out_dir = os.path.join(os.getcwd(), ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    workloads.write_reference(out_dir)

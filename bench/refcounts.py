"""Regenerates the two reference counts that the census checks copy.

    python3 bench/refcounts.py

Prints the graph count of ``enumerate_adgs`` at 10 vertices and 10
edges and the class count of the reduced genus-3 census at 16 edges, as
the program at this checkout computes them, next to the values copied
into ``workloads.py``.  Exits nonzero if they differ.  Takes about 10
seconds.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    graphs = len(workloads._enumerate_call()["graphs"])
    classes = len(workloads._census_call(3, 16)["classes"])
    print(f"enumerate_adgs(10 vertices, 10 edges): {graphs} graphs "
          f"(copied: {workloads.ENUMERATE_10_10_GRAPHS})")
    print(f"reduced genus-3 census at 16 edges: {classes} classes "
          f"(copied: {workloads.GENUS3_16_CLASSES})")
    same = (graphs, classes) == (workloads.ENUMERATE_10_10_GRAPHS,
                                 workloads.GENUS3_16_CLASSES)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())

"""Byte-for-byte regression of every ``adg`` subcommand's output.

The expected outputs live in ``golden_cli.json`` next to this file.  To
regenerate them after an intended output change, run

    PYTHONPATH=src python tests/test_golden_cli.py

from the repository root and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from turaevgenus import cli, corpus, families
from turaevgenus.adgraph import AdGraph, validate_adg, write_graph_file
from turaevgenus.construct import embed_planar
from turaevgenus.diagram import write_pd

GOLDEN = Path(__file__).with_name("golden_cli.json")


def _graph_files() -> dict[str, str]:
    def embedded(graph: AdGraph) -> str:
        return write_graph_file(embed_planar(validate_adg(graph)))

    return {
        "doubled-cycle-2": embedded(families.doubled_cycle(2)),
        "doubled-path-3": embedded(families.doubled_path(3)),
        "theta-1-1-3": embedded(families.doubled_theta(1, 1, 3)),
        "c4-legs-2-0-2-0": embedded(families.c4_legs(2, 0, 2, 0)),
        "c4-legs-1-0-0-0": embedded(families.c4_legs(1, 0, 0, 0)),
        "doubled-tree-0-0": embedded(families.doubled_tree((0, 0))),
        # no rotation lines: the embedding comes from the planarity test
        "doubled-cycle-4-bare": write_graph_file(families.doubled_cycle(4)),
    }


def _pd_files() -> dict[str, str]:
    pds = {name: write_pd(d) for name, d in corpus.named_diagrams().items()}
    for k in range(1, 7):
        pds[f"torus-2-{k}"] = write_pd(corpus.torus_2k(k))
    return pds


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def capture() -> dict[str, dict]:
    """Run every case inside a scratch directory, with relative paths so
    the outputs do not depend on where it lives."""
    results: dict[str, dict] = {}
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            graphs = _graph_files()
            pds = _pd_files()
            for name, text in graphs.items():
                Path(f"{name}.graph").write_text(text)
                results[f"genus-g {name}"] = _run(["genus-g", f"{name}.graph"])
                results[f"classify {name}"] = _run(
                    ["classify", f"{name}.graph", "--json"])
                res = _run(["realize", f"{name}.graph", "-o", f"{name}.pd"])
                res["pd"] = Path(f"{name}.pd").read_text()
                results[f"realize {name}"] = res
                pds[f"realized-{name}"] = res["pd"]
            for name, text in pds.items():
                Path(f"{name}.pd").write_text(text)
                results[f"genus-d {name}"] = _run(["genus-d", f"{name}.pd"])
                res = _run(["decompose", f"{name}.pd", "--json"])
                results[f"decompose {name}"] = res
                if name in ("trefoil", "figure-eight", "9_42"):
                    results[f"bracket {name}"] = _run(["bracket", f"{name}.pd"])
                    # the decomposition graph, through the graph commands
                    graph = json.loads(res["stdout"])["graph"]
                    lines = [f"v {graph['vertices']}"]
                    lines += [f"e {u} {v}" for u, v in graph["edges"]]
                    Path(f"{name}.graph").write_text("\n".join(lines) + "\n")
                    results[f"genus-g dec-{name}"] = _run(
                        ["genus-g", f"{name}.graph"])
                    results[f"classify dec-{name}"] = _run(
                        ["classify", f"{name}.graph", "--json"])
        finally:
            os.chdir(old)
    results["census"] = _run(["census", "--genus", "2", "--max-edges", "12",
                              "--reduced", "--json"])
    # without --reduced: the labels and order from enumerate_adgs
    results["census enumerate"] = _run(["census", "--genus", "1",
                                        "--max-edges", "8", "--json"])
    results["verify"] = _run(["verify", "--iters", "5"])
    return results


def test_cli_outputs_match_golden():
    expected = json.loads(GOLDEN.read_text())
    got = capture()
    assert sorted(got) == sorted(expected)
    for key in expected:
        assert got[key] == expected[key], key
    # the capture is not vacuous: every case ran and succeeded
    assert len(expected) > 60
    assert all(case["code"] == 0 and case["stdout"] for case in expected.values())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)

"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

Makes real outputs with the program, confirms that each check passes
on them, then hands each check a deliberately wrong answer and confirms
that it fails.  Also confirms that a checker with no passes counts as
incorrect, so no run can pass vacuously.  Prints one line per case and
exits nonzero if any case goes the wrong way.  Takes about 15 seconds,
most of it the 10-vertex, 10-edge enumeration.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import graphs  # noqa: E402
import workloads  # noqa: E402

results: list[bool] = []


def case(label: str, run, should_pass: bool) -> None:
    ck = checks.Checker()
    run(ck)
    got = ck.ok if should_pass else bool(ck.failures)
    results.append(got)
    verdict = "ok  " if got else "FAIL"
    expect = "passes" if should_pass else "fails"
    print(f"{verdict} {label} {expect} ({ck.passed} passed, {len(ck.failures)} failed)")


def changed(out: dict, path: tuple, value) -> dict:
    """A deep copy of ``out`` with the entry at ``path`` replaced."""
    new = copy.deepcopy(out)
    target = new
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value(target[path[-1]])
    return new


def roundtrip_cases() -> None:
    g = graphs.doubled_theta(1, 1, 3)
    out = workloads._roundtrip_call(graphs.graph_text(g))
    run = lambda o: lambda ck: checks.check_roundtrip(ck, "theta(1,1,3)", g, o)
    case("roundtrip: correct output", run(out), True)
    case("roundtrip: decomposition graph missing an edge pair",
         run(changed(out, ("dec",), lambda d: (d[0], d[1][2:]))), False)
    case("roundtrip: ribbon genus off by one",
         run(changed(out, ("genera", "ribbon"), lambda x: x + 1)), False)
    case("roundtrip: adequacy reported false",
         run(changed(out, ("adequate",), lambda x: False)), False)
    case("roundtrip: realized diagram replaced by a one-crossing kink",
         run(changed(out, ("pd",), lambda x: ((1, 1, 2, 2),))), False)


def large_cases() -> None:
    g = graphs.doubled_theta(2, 2, 4)
    pd_text = workloads._realize_text(graphs.graph_text(g))
    out = workloads._diagram_routes(pd_text)
    run = lambda graph, o: lambda ck: checks.check_large(ck, "theta(2,2,4)", graph, o)
    case("large: correct diagram output", run(g, out), True)
    case("large: closed form off by one", run(g._replace(genus=3), out), False)
    case("large: state genus off by one",
         run(g, changed(out, ("genera", "state"), lambda x: x - 1)), False)
    case("large: decomposition graph with an extra doubled edge",
         run(g, changed(out, ("dec",), lambda d: (d[0], d[1] + ((0, 1), (0, 1))))), False)
    text = graphs.graph_text(graphs.doubled_cycle(8))
    classified = workloads._graph_routes(text, classify=True)
    family = ("doubled-even-cycle", (8,))
    cycle = graphs.doubled_cycle(8)
    case("large: correct classification",
         lambda ck: checks.check_large(ck, "cycle8", cycle, classified, family), True)
    case("large: wrong family parameter",
         lambda ck: checks.check_large(ck, "cycle8", cycle, classified,
                                       ("doubled-even-cycle", (6,))), False)


def census_cases() -> None:
    workloads._clear_census_caches()
    enum = workloads._enumerate_call()
    found = enum["graphs"]
    first = found[5]
    bad_graphs = {
        "an odd-degree graph": (3, ((0, 1), (0, 1), (1, 2))),
        "a doubled triangle (not bipartite)": (3, ((0, 1),) * 2 + ((1, 2),) * 2 + ((0, 2),) * 2),
        "a doubled K3,3 (not planar)": (6, tuple(
            (u, v) for u in range(3) for v in range(3, 6) for _ in range(2))),
        "a relabeled copy of an earlier graph": (
            first[0], tuple((first[0] - 1 - u, first[0] - 1 - v) for u, v in first[1])),
    }
    case("census: enumerate(10,10) output", lambda ck: workloads._check_enumerate(ck, enum), True)
    case("census: enumerate(10,10) with one graph dropped",
         lambda ck: workloads._check_enumerate(ck, {"graphs": found[1:]}), False)
    for label, bad in bad_graphs.items():
        case(f"census: enumeration plus {label}",
             lambda ck, bad=bad: checks.check_census_graphs(
                 ck, "enumerate", found[:40] + [bad], None, False), False)

    workloads._clear_census_caches()
    g2 = workloads._census_call(2, 16)
    case("census: genus 2 at 16 edges", lambda ck: workloads._check_census(ck, 2, g2), True)
    case("census: genus 2 with a class dropped",
         lambda ck: workloads._check_census(ck, 2, {"classes": g2["classes"][1:]}), False)
    swapped = copy.deepcopy(g2)
    a, b = swapped["classes"][0], swapped["classes"][1]
    a["contracted"], b["contracted"] = b["contracted"], a["contracted"]
    case("census: genus 2 with two contracted forms swapped",
         lambda ck: workloads._check_census(ck, 2, swapped), False)
    members = [m for cls in g2["classes"] for m in cls["members"]]
    case("census: genus-2 members checked against genus 3",
         lambda ck: checks.check_census_graphs(ck, "g2", members, 3, True), False)
    case("census: genus-2 members plus a doubled path of length 2 (not reduced)",
         lambda ck: checks.check_census_graphs(
             ck, "g2", members + [(3, ((0, 1), (0, 1), (1, 2), (1, 2)))], None, True), False)
    case("census: genus-2 members plus a doubled 4-cycle (genus 1)",
         lambda ck: checks.check_census_graphs(
             ck, "g2", members + [graphs.doubled_cycle(4)[:2]], 2, True), False)

    workloads._clear_census_caches()
    g3 = workloads._census_call(3, 16)
    case("census: genus 3 at 16 edges", lambda ck: workloads._check_census(ck, 3, g3), True)
    case("census: genus 3 with a class dropped",
         lambda ck: workloads._check_census(ck, 3, {"classes": g3["classes"][:-1]}), False)


def bracket_cases() -> None:
    items = {item.name: item for item in workloads.bracket(0)}
    outs = {name: items[name].call() for name in (
        "torus-2-7", "figure-eight#torus-2-5", "9_42", "realized4.0")}
    ck_item = lambda name, out: lambda ck: items[name].check(ck, out)
    for name, out in outs.items():
        case(f"bracket: {name}", ck_item(name, out), True)
    torus = outs["torus-2-7"]
    mirrored = changed(torus, ("jones",), lambda p: {-e: c for e, c in p.items()})
    case("bracket: torus-2-7 mirrored", ck_item("torus-2-7", mirrored), True)
    lowest = min(mirrored["jones"])
    case("bracket: torus-2-7 mirrored with a changed coefficient",
         ck_item("torus-2-7", changed(mirrored, ("jones", lowest), lambda c: c + 1)), False)
    case("bracket: torus-2-7 with two coefficients swapped (V(1) unchanged)",
         ck_item("torus-2-7", changed(torus, ("jones",), lambda p: dict(
             zip(sorted(p), [p[e] for e in sorted(p)][::-1])))), False)
    case("bracket: alternating knot with span c - 1",
         ck_item("figure-eight#torus-2-5", changed(
             outs["figure-eight#torus-2-5"], ("span",), lambda s: s - 1)), False)
    nine = outs["9_42"]
    case("bracket: 9_42 with a changed coefficient",
         ck_item("9_42", changed(nine, ("jones", 0), lambda c: c - 2)), False)
    realized = outs["realized4.0"]
    case("bracket: realized diagram with span + g_T != c",
         ck_item("realized4.0", changed(realized, ("span",), lambda s: s + 1)), False)
    case("bracket: realized diagram with V(1) off",
         ck_item("realized4.0", changed(
             realized, ("jones", max(realized["jones"])), lambda c: c + 1)), False)


def main() -> int:
    empty = checks.Checker()
    results.append(not empty.ok)
    print(f"{'ok  ' if not empty.ok else 'FAIL'} a checker with no passes is not ok")
    roundtrip_cases()
    large_cases()
    bracket_cases()
    census_cases()
    bad = results.count(False)
    print(f"{len(results)} cases, {bad} went the wrong way")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

import json

import pytest

from turaevgenus import cli, corpus, diagram, verify
from turaevgenus.adgraph import (
    MAX_GRAPH_VERTICES,
    parse_graph_file,
    validate_adg,
    write_graph_file,
)
from turaevgenus.construct import embed_planar
from turaevgenus.diagram import parse_pd, turaev_genus_diagram
from turaevgenus.families import doubled_cycle


@pytest.fixture
def trefoil_file(tmp_path):
    path = tmp_path / "trefoil.pd"
    path.write_text(corpus.TREFOIL + "\n")
    return str(path)


@pytest.fixture
def c22_file(tmp_path):
    path = tmp_path / "c2sq.graph"
    graph = embed_planar(validate_adg(doubled_cycle(2)))
    path.write_text(write_graph_file(graph))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_genus_d(capsys, trefoil_file):
    code, out, _ = run(capsys, "genus-d", trefoil_file)
    assert code == 0
    assert out.strip() == "g_T = 0, c = 3, sA+sB = 5, k = 1"


def test_genus_d_counts_state_circles_once(capsys, monkeypatch, trefoil_file):
    """One all-A and one all-B smoothing per run: sA + sB is read off
    the genus, not counted again."""
    calls = []
    real = diagram._circles

    def counting(d, pairs):
        calls.append(tuple(pairs[0]))
        return real(d, pairs)

    monkeypatch.setattr(diagram, "_circles", counting)
    code, out, _ = run(capsys, "genus-d", trefoil_file)
    assert (code, out) == (0, "g_T = 0, c = 3, sA+sB = 5, k = 1\n")
    assert calls == [diagram._SMOOTHINGS["A"], diagram._SMOOTHINGS["B"]]


def test_genus_g(capsys, c22_file):
    code, out, _ = run(capsys, "genus-g", c22_file)
    assert code == 0
    assert out.strip() == "g_T = 1"


def test_bracket(capsys, trefoil_file):
    code, out, _ = run(capsys, "bracket", trefoil_file)
    assert code == 0
    assert "span_t = 3" in out


def test_classify_json(capsys, c22_file):
    code, out, _ = run(capsys, "classify", c22_file, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["genus"] == 1
    assert payload["family"] == "doubled-even-cycle"
    assert payload["parameters"] == [2]


def test_decompose_json_round_trips(capsys, tmp_path):
    path = tmp_path / "nine.pd"
    path.write_text(corpus.NINE_42 + "\n")
    code, out, _ = run(capsys, "decompose", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 1
    assert payload["r_alt"] == 2
    # the JSON graph round-trips through the graph file parser
    lines = [f"v {payload['graph']['vertices']}"]
    lines += [f"e {u} {v}" for u, v in payload["graph"]["edges"]]
    back = parse_graph_file("\n".join(lines))
    assert back.edge_count == len(payload["graph"]["edges"])


def test_realize_output_parses(capsys, tmp_path, c22_file):
    out_path = tmp_path / "out.pd"
    code, out, _ = run(capsys, "realize", c22_file, "-o", str(out_path))
    assert code == 0
    diagram = parse_pd(out_path.read_text())
    assert turaev_genus_diagram(diagram) == 1


def test_census_text_and_json(capsys):
    code, out, _ = run(capsys, "census", "--genus", "1", "--max-edges", "8",
                       "--reduced")
    assert code == 0
    assert "1 doubled-path class(es)" in out
    code, out, _ = run(capsys, "census", "--genus", "1", "--max-edges", "8",
                       "--reduced", "--json")
    payload = json.loads(out)
    assert len(payload["classes"]) == 1
    assert payload["classes"][0]["family"] == "doubled-even-cycle"


@pytest.mark.parametrize("max_edges", ["4", "12"])
def test_census_reduced_genus0_is_the_single_vertex(capsys, max_edges):
    """Reduced means one vertex, or every component 3-edge-connected;
    the single vertex is the one reduced graph of genus 0."""
    code, out, _ = run(capsys, "census", "--genus", "0", "--max-edges", max_edges,
                       "--reduced")
    assert code == 0
    assert out.splitlines() == [
        f"genus 0, maxEdges {max_edges}: 1 doubled-path class(es)",
        "  single-vertex (): 1 member(s), representative v=1 e=0",
    ]


def test_census_edgeless_lists_the_single_vertex(capsys):
    """At an edge bound of 0 the single vertex is still the one graph of
    genus 0, as ``--reduced`` lists it; the vertex cap is at least 1."""
    code, out, _ = run(capsys, "census", "--genus", "0", "--max-edges", "0")
    assert code == 0
    assert out.splitlines() == [
        "genus 0, maxEdges 0: 1 graph(s)",
        "  v=1 e=0 edges=[]",
    ]
    code, out, _ = run(capsys, "census", "--genus", "1", "--max-edges", "0")
    assert out.splitlines() == ["genus 1, maxEdges 0: 0 graph(s)"]


def test_byte_identical_reruns(capsys, c22_file):
    _, out1, _ = run(capsys, "census", "--genus", "1", "--max-edges", "8",
                     "--reduced", "--json")
    _, out2, _ = run(capsys, "census", "--genus", "1", "--max-edges", "8",
                     "--reduced", "--json")
    assert out1 == out2
    _, out1, _ = run(capsys, "genus-g", c22_file)
    _, out2, _ = run(capsys, "genus-g", c22_file)
    assert out1 == out2


def test_input_error_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.pd"
    bad.write_text("X 1 2 3\n")
    code, _, err = run(capsys, "genus-d", str(bad))
    assert code == 1
    assert "line 1" in err


@pytest.mark.parametrize("rot_lines", [
    "rot 1 : 1 2 2\nrot 2 : 1\n",  # edge 2 twice at vertex 1
    "rot 1 : 1 2\nrot 2 : 1\n",  # edge 2 only once
])
@pytest.mark.parametrize("command", ["genus-g", "classify", "realize"])
def test_bad_rotation_system_exit_1(capsys, tmp_path, rot_lines, command):
    path = tmp_path / "bad.graph"
    path.write_text("v 2\ne 1 2\ne 1 2\n" + rot_lines)
    argv = [command, str(path)]
    if command == "realize":
        argv += ["-o", str(tmp_path / "out.pd")]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: edge 1 ")
    assert "Traceback" not in err


TORUS_ROTATIONS = "v 2\ne 1 2\ne 1 2\ne 1 2\ne 1 2\nrot 1 : 1 2 3 4\nrot 2 : 1 3 2 4\n"


@pytest.mark.parametrize("command", ["genus-g", "classify", "realize"])
def test_non_spherical_rotation_system_exit_1(capsys, tmp_path, command):
    # a planar graph whose rotation system embeds it in the torus
    path = tmp_path / "torus.graph"
    path.write_text(TORUS_ROTATIONS)
    argv = [command, str(path)]
    if command == "realize":
        argv += ["-o", str(tmp_path / "out.pd")]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == ("error: the rotation system does not embed component "
                   "[0, 1] in the sphere\n")
    # without the rotation lines the same graph is fine
    path.write_text(TORUS_ROTATIONS.split("rot")[0])
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out


def test_bracket_empty_diagram_exit_1(capsys, tmp_path):
    path = tmp_path / "empty.pd"
    path.write_text("# only a comment\n")
    code, out, err = run(capsys, "bracket", str(path))
    assert (code, out) == (1, "")
    assert err == "error: the empty diagram has no Kauffman bracket\n"


def test_bracket_split_diagram_rejected_before_the_state_sum(
        capsys, monkeypatch, tmp_path):
    # two trefoils, the file of test_parse_disjoint_diagrams_in_one_file;
    # a state limit below their crossing count shows the sum never ran
    path = tmp_path / "two-trefoils.pd"
    path.write_text(corpus.TREFOIL + "\n# second split component\n"
                    "X 7 10 8 11 / X 9 12 10 7 / X 11 8 12 9\n")
    monkeypatch.setenv("ADG_MAX_STATES", "2")
    code, out, err = run(capsys, "bracket", str(path))
    assert (code, out) == (1, "")
    assert err == "error: bracket span needs a connected diagram\n"


# a second 'v' line or a second rotation of one vertex is rejected, never
# silently overriding the first
_REPEATED_DIRECTIVE = {
    "v 2\ne 1 2\ne 1 2\nv 1\n":
        "line 4: malformed line 'v 1' (second 'v' line)",
    "v 3\ne 1 2\ne 1 2\nv 2\n":
        "line 4: malformed line 'v 2' (second 'v' line)",
    "v 2\ne 1 2\ne 1 2\nrot 1 : 1 2\nrot 2 : 1 2\nrot 1 : 2 1\n":
        "line 6: malformed line 'rot 1 : 2 1' (second rotation of vertex 1)",
}


@pytest.mark.parametrize("text", [
    "v x\n",
    "v 2\ne 1 x\n",
    "v 2\ne 1 2\ne 1 2\nrot x : 1 2\n",
    "v 2\ne 1 2\ne 1 2\nrot 1 : 1 y\n",
    "v -1\n",
    "v 12\ne 1_2 2\n",
    "v 1_2\n",
    "v \uff12\n",
    "v 2\ne 1 2\ne 1 2\nrot 1 : 1 +2\n",
    *_REPEATED_DIRECTIVE,
])
@pytest.mark.parametrize("command", ["genus-g", "classify", "realize"])
def test_malformed_graph_file_exit_1(capsys, tmp_path, text, command):
    path = tmp_path / "bad.graph"
    path.write_text(text)
    argv = [command, str(path)]
    if command == "realize":
        argv += ["-o", str(tmp_path / "out.pd")]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("error: line ")
    assert "Traceback" not in err
    if text in _REPEATED_DIRECTIVE:
        assert err == f"error: {_REPEATED_DIRECTIVE[text]}\n"


def test_graph_file_at_the_vertex_cap(capsys, tmp_path):
    path = tmp_path / "cap.graph"
    path.write_text(f"v {MAX_GRAPH_VERTICES}\n")
    assert run(capsys, "genus-g", str(path)) == (0, "g_T = 0\n", "")


@pytest.mark.parametrize("count", [MAX_GRAPH_VERTICES + 1, 10**9])
def test_graph_file_over_the_vertex_cap_exit_1(capsys, tmp_path, count):
    path = tmp_path / "big.graph"
    path.write_text(f"v {count}\n")
    code, out, err = run(capsys, "genus-g", str(path))
    assert (code, out) == (1, "")
    assert err == (f"error: line 1: malformed line 'v {count}' "
                   f"(vertex count outside 0..{MAX_GRAPH_VERTICES})\n")


@pytest.mark.parametrize("command", ["genus-d", "bracket", "genus-g"])
def test_non_utf8_file_exit_1(capsys, tmp_path, command):
    path = tmp_path / "latin1.pd"
    data = corpus.TREFOIL.encode() + b"\n# caf\xe9\n"
    path.write_bytes(data)
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (1, "")
    offset = data.index(b"\xe9")
    assert err == f"error: {path}: not UTF-8 text (bad byte at offset {offset})\n"


def test_bad_state_limit_exit_1(capsys, monkeypatch, trefoil_file):
    monkeypatch.setenv("ADG_MAX_STATES", "abc")
    code, out, err = run(capsys, "bracket", trefoil_file)
    assert (code, out) == (1, "")
    assert err == "error: ADG_MAX_STATES must be a positive integer, got 'abc'\n"


def test_directory_as_input_exit_1(capsys, tmp_path):
    code, out, err = run(capsys, "genus-d", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("reduced", [[], ["--reduced"]], ids=["plain", "reduced"])
def test_census_negative_genus_exit_1(capsys, reduced):
    code, out, err = run(capsys, "census", "--genus", "-1", "--max-edges", "8",
                         *reduced)
    assert (code, out) == (1, "")
    assert err == "error: genus must be nonnegative, got -1\n"


def test_missing_file_exit_1(capsys):
    code, _, err = run(capsys, "genus-d", "/nonexistent/path.pd")
    assert code == 1


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["not-a-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["census", "--genus", "1", "--max-edges", "1_6"],
    ["census", "--genus", "\uff11", "--max-edges", "8"],
    ["verify", "--iters", "+2"],
    ["verify", "--seed", " 3"],
])
def test_strict_integer_flags_exit_2(capsys, argv):
    """A flag value that ``int`` takes but is not ASCII ``-?[0-9]+`` is a
    usage error."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "invalid integer value" in capsys.readouterr().err


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--iters", "2", "--seed", "1")
    assert code == 0
    assert out.count("ok") == len(verify.ALL_SUITES)


@pytest.mark.parametrize("iters", ["0", "-3"])
def test_verify_rejects_nonpositive_iters(capsys, iters):
    code, out, err = run(capsys, "verify", "--iters", iters)
    assert (code, out) == (1, "")
    assert err == f"error: iters must be at least 1, got {iters}\n"


def test_verify_fails_suite_without_checks(capsys, monkeypatch):
    def empty_suite(rng, iters):
        return verify.SuiteResult("empty")

    def one_check(rng, iters):
        res = verify.SuiteResult("one")
        res.check(True, "")
        return res

    monkeypatch.setattr(verify, "ALL_SUITES", (empty_suite, one_check))
    code, out, err = run(capsys, "verify", "--iters", "1")
    assert code == 3
    assert out == "empty: 0 checks FAIL\none: 1 checks ok\n"
    assert "[empty]\nno checks ran" in err


def test_verify_byte_identical(capsys):
    _, out1, _ = run(capsys, "verify", "--iters", "2", "--seed", "3")
    _, out2, _ = run(capsys, "verify", "--iters", "2", "--seed", "3")
    assert out1 == out2


def test_verify_violation_exit_3(capsys, monkeypatch):
    def broken_suite(rng, iters):
        res = verify.SuiteResult("broken")
        res.check(False, "synthetic counterexample")
        return res

    broken_suite.__name__ = "suite_broken"
    monkeypatch.setattr(verify, "ALL_SUITES", (broken_suite,))
    code, out, err = run(capsys, "verify", "--iters", "1")
    assert code == 3
    assert "synthetic counterexample" in err
    assert err.splitlines()[0] == "replay: adg verify --seed 0 --iters 1"

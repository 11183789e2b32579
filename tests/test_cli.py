import contextlib
import json
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hologossip import cli, errors, files, graph
from hologossip.acceptance import random_connected_graph
from hologossip.cli import build_parser, main
from hologossip.engine import RunOptions, Schedule, run
from hologossip.graph import build_graph
from hologossip.limit import consensus_limit, nonholonomy_witness_trees
from hologossip.weights import WeightSet, check_holonomy

TRIANGLE_GRAPH = {"n": 3, "edges": [[1, 2], [2, 3], [1, 3]]}
BALANCED_RATIONAL = [
    {"edge": [1, 2], "a_ij": "1/5", "a_ji": "3/10"},
    {"edge": [2, 3], "a_ij": "1/4", "a_ji": "1/2"},
    {"edge": [1, 3], "a_ij": "1/5", "a_ji": "3/5"},
]
UNBALANCED_FLOAT = [
    {"edge": [1, 2], "a_ij": 0.5, "a_ji": 0.5},
    {"edge": [2, 3], "a_ij": 0.5, "a_ji": 0.5},
    {"edge": [1, 3], "a_ij": 0.2, "a_ji": 0.4},
]


@pytest.fixture
def workdir(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return tmp_path, write


def test_load_graph_and_weights_roundtrip(workdir):
    tmp, write = workdir
    g = files.load_graph(write("g.json", TRIANGLE_GRAPH))
    assert g.n == 3
    ws = files.load_weights(write("w.json", BALANCED_RATIONAL), g)
    assert ws.exact
    assert ws.weight(1, 2) == F(1, 5)
    out = tmp / "back.json"
    out.write_text(files.weights_to_json(ws))
    ws2 = files.load_weights(out, g)
    assert ws2.items() == ws.items()


def _indent_encoder_text(ws) -> str:
    """The weights file as ``json.dumps(indent=2)`` writes it, the reference
    for ``files.weights_to_json``."""
    def scalar(v):
        return f"{v.numerator}/{v.denominator}" if isinstance(v, F) else float(v)
    records = [{"edge": list(e), "a_ij": scalar(w.a_ij), "a_ji": scalar(w.a_ji)}
               for e, w in ws.items()]
    return json.dumps(records, indent=2) + "\n"


BIG = 10**400 + 7
WRITER_CASES = {
    "float extremes": {(1, 2): (5e-324, 1e-300), (3, 2): (1 - 2**-53, 0.1), (3, 4): (0.1, 0.5)},
    "float tiny pairs": {(1, 2): (1e-300, 5e-324), (2, 3): (5e-324, 5e-324), (3, 4): (0.25, 0.75)},
    "exact 400 digits": {(1, 2): (F(1, BIG), F(BIG - 1, BIG)), (2, 3): (F(3, 10**400), F(1, 3)),
                         (4, 3): (F(2 * BIG - 1, 2 * BIG), F(1, 2))},
}


@pytest.mark.parametrize("name", sorted(WRITER_CASES))
def test_weights_to_json_is_the_indent_encoders_text(workdir, name):
    g = build_graph(4, [(1, 2), (2, 3), (3, 4)])
    ws = WeightSet(g, WRITER_CASES[name])
    text = files.weights_to_json(ws)
    assert text == _indent_encoder_text(ws)
    tmp, _ = workdir
    (tmp / "w.json").write_text(text)
    back = files.load_weights(tmp / "w.json", g)
    assert back.exact == ws.exact and back.items() == ws.items()
    assert [type(v) for _, w in back.items() for v in w] == [type(v) for _, w in ws.items() for v in w]


def test_weights_to_json_without_edges():
    g = build_graph(1, [])
    ws = WeightSet(g, {})
    assert files.weights_to_json(ws) == _indent_encoder_text(ws) == "[]\n"


UNIT = st.floats(0, 1, exclude_min=True, exclude_max=True)
UNIT_FRACTION = st.fractions(0, 1).filter(lambda f: 0 < f < 1)


@settings(max_examples=60, deadline=None)
@given(values=st.one_of(st.lists(UNIT, min_size=6, max_size=6),
                        st.lists(UNIT_FRACTION, min_size=6, max_size=6)))
def test_weights_to_json_matches_the_indent_encoder_on_drawn_sets(values):
    g = build_graph(4, [(1, 2), (2, 3), (3, 4)])
    ws = WeightSet(g, {e: (values[2 * k], values[2 * k + 1]) for k, e in enumerate(g.sorted_edges)})
    assert files.weights_to_json(ws) == _indent_encoder_text(ws)


@pytest.mark.parametrize("text", [" 1 / 3 ", "1\t/3", "1/\u00a03", "\u2003+1/3\n", "1\r\n/ 3"])
def test_parse_scalar_leaves_out_every_whitespace_the_grammar_admits(workdir, capsys, text):
    assert files.parse_scalar(text, "w") == F(1, 3)
    tmp, write = workdir
    g = write("g.json", {"n": 2, "edges": [[1, 2]]})
    w = write("w.json", [{"edge": [1, 2], "a_ij": text, "a_ji": "1/3"}])
    assert main(["check", g, w]) == 0
    assert capsys.readouterr().err == ""


def test_load_weights_float_kind(workdir):
    _, write = workdir
    g = files.load_graph(write("g.json", TRIANGLE_GRAPH))
    ws = files.load_weights(write("w.json", UNBALANCED_FLOAT), g)
    assert not ws.exact


def test_malformed_json_reports_line(workdir):
    tmp, _ = workdir
    bad = tmp / "bad.json"
    bad.write_text('{"n": 3,\n "edges": [[1, 2],]}')
    with pytest.raises(errors.FileFormatError) as err:
        files.load_graph(bad)
    assert "2:" in str(err.value)  # line-precise


def test_weights_validation_errors(workdir):
    _, write = workdir
    g = files.load_graph(write("g.json", TRIANGLE_GRAPH))
    mixed = [dict(rec) for rec in BALANCED_RATIONAL]
    mixed[1] = {"edge": [2, 3], "a_ij": 0.25, "a_ji": 0.5}
    with pytest.raises(errors.MixedScalarKinds):
        files.load_weights(write("mixed.json", mixed), g)
    with pytest.raises(errors.UnknownEdge):
        files.load_weights(write("missing.json", BALANCED_RATIONAL[:2]), g)
    with pytest.raises(errors.FileFormatError):
        files.load_weights(write("dupe.json", BALANCED_RATIONAL + [BALANCED_RATIONAL[0]]), g)
    with pytest.raises(errors.FileFormatError):
        files.load_weights(write("badstr.json", [{"edge": [1, 2], "a_ij": "x/y", "a_ji": 0.5}]), g)


def test_schedule_files(workdir):
    _, write = workdir
    g = files.load_graph(write("g.json", TRIANGLE_GRAPH))
    s = files.load_schedule(
        write("explicit.json", {"type": "explicit", "edges": [[1, 2], [3, 2]]}), g
    )
    assert s.kind == "explicit" and s.edges == ((1, 2), (2, 3))
    s = files.load_schedule(
        write("periodic.json", {"type": "periodic", "period": [[1, 2], [2, 3]], "repetitions": 4}),
        g,
    )
    assert len(s) == 8
    with pytest.raises(errors.FileFormatError,
                       match=r"noseed.json: random schedules need an explicit seed$"):
        files.load_schedule(write("noseed.json", {"type": "random", "steps": 10}), g)
    s = files.load_schedule(write("noseed2.json", {"type": "random", "steps": 10}), g, seed_override=3)
    assert s.seed == 3
    with pytest.raises(errors.FileFormatError, match="neg.json: seed must be >= 0"):
        files.load_schedule(write("neg.json", {"type": "random", "steps": 10, "seed": -1}), g)
    with pytest.raises(errors.FileFormatError, match="e5.json: 'edges' must be a list"):
        files.load_schedule(write("e5.json", {"type": "explicit", "edges": 5}), g)
    with pytest.raises(errors.FileFormatError, match="p5.json: 'period' must be a list"):
        files.load_schedule(write("p5.json", {"type": "periodic", "period": 5, "repetitions": 2}), g)


@pytest.mark.parametrize("doc, message", [
    ({"edges": [[1, 2]]}, "schedule needs a 'type' field"),
    ([{"type": "explicit"}], "schedule needs a 'type' field"),
    ({"type": "periodic", "period": [[1, 2]]}, "'repetitions' must be a positive integer"),
    ({"type": "periodic", "period": [[1, 2]], "repetitions": 0}, "'repetitions' must be a positive integer"),
    ({"type": "periodic", "period": [[1, 2]], "repetitions": "3"}, "'repetitions' must be a positive integer"),
    ({"type": "periodic", "period": [[1, 2]], "repetitions": True}, "'repetitions' must be a positive integer"),
    ({"type": "random", "seed": 1}, "'steps' must be a positive integer"),
    ({"type": "random", "steps": -4, "seed": 1}, "'steps' must be a positive integer"),
    ({"type": "random", "steps": 2.0, "seed": 1}, "'steps' must be a positive integer"),
    ({"type": "spiral", "edges": [[1, 2]]}, "unknown schedule type 'spiral'"),
    ({"type": None}, "unknown schedule type None"),
])
def test_schedule_file_errors(workdir, doc, message):
    _, write = workdir
    g = files.load_graph(write("g.json", TRIANGLE_GRAPH))
    path = write("s.json", doc)
    with pytest.raises(errors.FileFormatError) as err:
        files.load_schedule(path, g)
    assert str(err.value) == f"{path}: {message}"


def test_trace_and_report_formats(balanced_float, triangle, tmp_path):
    schedule = Schedule.periodic(triangle, [(1, 2), (2, 3), (1, 3)], 40)
    report = run(balanced_float, schedule, RunOptions(tol=0.0))
    text = files.trace_to_text(report)
    header, first = text.splitlines()[:2]
    assert header.split("\t") == ["t", "edge", "seminorm", "bound", "min_entry"]
    assert first.startswith("1\t(1,2)\t")
    assert len(first.split("\t")) == 5
    doc = files.report_to_dict(report)
    assert doc["arithmetic"] == "float64"
    assert doc["m_spanning"] == 2
    assert doc["max_bound_violation"] <= 0
    files.save_report(report, tmp_path / "r.json")
    assert json.loads((tmp_path / "r.json").read_text())["steps"] == report.steps


# -- CLI surface ---------------------------------------------------------------

def test_cmd_check_exit_codes(workdir, capsys):
    _, write = workdir
    g = write("g.json", TRIANGLE_GRAPH)
    assert main(["check", g, write("w.json", BALANCED_RATIONAL)]) == 0
    assert "holonomic: true" in capsys.readouterr().out
    assert main(["check", g, write("u.json", UNBALANCED_FLOAT)]) == 1
    out = capsys.readouterr().out
    assert "holonomic: false" in out
    assert "witness cycle: 2→1→3→2" in out
    bad = write("bad.json", {"n": 3, "edges": [[1, 5]]})
    assert main(["check", bad, g]) == 2


def test_cmd_check_prints_margin_second(workdir, capsys):
    _, write = workdir
    g = write("g.json", TRIANGLE_GRAPH)
    assert main(["check", g, write("w.json", BALANCED_RATIONAL)]) == 0
    assert capsys.readouterr().out.splitlines() == ["holonomic: true", "holonomy margin: 0.000e+00"]
    assert main(["check", g, write("u.json", UNBALANCED_FLOAT)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["holonomic: false", "holonomy margin: 6.931e-01"]  # |log(1/2)|


def test_cmd_limit_float_range(workdir, capsys):
    _, write = workdir

    def path(n, a, b):
        graph = write(f"p{n}.json", {"n": n, "edges": [[i, i + 1] for i in range(1, n)]})
        weights = [{"edge": [i, i + 1], "a_ij": a, "a_ji": b} for i in range(1, n)]
        return graph, write(f"w{n}_{a}.json", weights)

    assert main(["limit", *path(1800, 0.6, 0.4)]) == 0
    assert len(capsys.readouterr().out.split()) == 1800
    assert main(["limit", *path(400, 0.1, 0.9)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    # a directed ratio of 0.5 / 5e-324 overflows to inf before any potential exists
    tiny = write("tiny.json", [{"edge": [1, 2], "a_ij": 5e-324, "a_ji": 0.5}])
    assert main(["limit", path(2, 0.5, 0.5)[0], tiny, "--base", "2"]) in (0, 2)


def test_cmd_limit_output(workdir, capsys):
    _, write = workdir
    g = write("g.json", TRIANGLE_GRAPH)
    assert main(["limit", g, write("w.json", BALANCED_RATIONAL)]) == 0
    assert capsys.readouterr().out.strip() == "1/2 1/3 1/6"
    assert main(["limit", g, write("u.json", UNBALANCED_FLOAT)]) == 1
    assert "witness" in capsys.readouterr().err


def test_cmd_limit_base_flag_and_float_rendering(workdir, capsys):
    _, write = workdir
    g = write("g.json", TRIANGLE_GRAPH)
    w = write(
        "wf.json",
        [
            {"edge": [1, 2], "a_ij": 0.2, "a_ji": 0.3},
            {"edge": [2, 3], "a_ij": 0.25, "a_ji": 0.5},
            {"edge": [1, 3], "a_ij": 0.2, "a_ji": 0.6},
        ],
    )
    assert main(["limit", g, w]) == 0
    out1 = capsys.readouterr().out.strip()
    vals = [float(v) for v in out1.split()]
    assert max(abs(a - b) for a, b in zip(vals, [0.5, 1 / 3, 1 / 6])) < 1e-12
    assert main(["limit", g, w, "--base", "2"]) == 0
    assert capsys.readouterr().out.strip() == out1
    assert main(["limit", g, w, "--base", "9"]) == 2


def test_cmd_limit_missing_base_exits_2_on_unbalanced_set(workdir, capsys):
    _, write = workdir
    g, w = write("g.json", TRIANGLE_GRAPH), write("u.json", UNBALANCED_FLOAT)
    for base in ("9", "0"):  # malformed input, as on a balanced set
        assert main(["limit", g, w, "--base", base]) == 2
        assert capsys.readouterr().err == f"error: root {base} outside 1..3\n"


def test_cmd_limit_witness_cycle_is_from_base_tree(workdir, capsys):
    _, write = workdir
    g, w = write("g.json", TRIANGLE_GRAPH), write("u.json", UNBALANCED_FLOAT)
    assert main(["limit", g, w, "--base", "2"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: weights are not cycle-balanced: cycle 1→2→3→1 has ratio 2.0\n")


def test_check_and_limit_run_one_bfs_from_node_1(workdir, capsys, monkeypatch):
    # build_graph's BFS from node 1 is kept for the check pass's tree; with a
    # fresh BFS at every read instead, every output is the same
    _, write = workdir
    g = write("g.json", TRIANGLE_GRAPH)
    runs = [[cmd, g, write(f"{name}.json", ws)] for cmd in ("check", "limit")
            for name, ws in (("w", BALANCED_RATIONAL), ("u", UNBALANCED_FLOAT))]
    roots, bfs = [], graph.bfs_parents
    monkeypatch.setattr(graph, "bfs_parents", lambda root, adj: roots.append(root) or bfs(root, adj))
    outputs = []
    for argv in runs:
        roots.clear()
        outputs.append((main(argv), capsys.readouterr()))
        assert roots == [1]
    monkeypatch.setattr(graph.Graph, "parents_from_1", property(lambda g: bfs(1, g.adjacency)))
    assert [(main(argv), capsys.readouterr()) for argv in runs] == outputs
    assert [code for code, _ in outputs] == [0, 1, 0, 1]


def test_cmd_limit_standard_gossip(workdir, capsys):
    _, write = workdir
    g = write("g.json", TRIANGLE_GRAPH)
    w = write(
        "half.json",
        [{"edge": e, "a_ij": "1/2", "a_ji": "1/2"} for e in TRIANGLE_GRAPH["edges"]],
    )
    assert main(["limit", g, w]) == 0
    assert capsys.readouterr().out.strip() == "1/3 1/3 1/3"


def test_cmd_design_worked(workdir, capsys, tmp_path):
    _, write = workdir
    g = write("g.json", TRIANGLE_GRAPH)
    out = str(tmp_path / "designed.json")
    rc = main(
        ["design", g, "--target", "1/2,1/3,1/6", "--x", "3/10,3/5,1/2", "-o", out]
    )
    assert rc == 0
    # x follows ascending edge order (1,2), (1,3), (2,3)
    doc = json.loads(open(out).read())
    by_edge = {tuple(rec["edge"]): (rec["a_ij"], rec["a_ji"]) for rec in doc}
    assert by_edge[(1, 2)] == ("1/5", "3/10")
    assert by_edge[(2, 3)] == ("1/4", "1/2")
    assert by_edge[(1, 3)] == ("1/5", "3/5")
    assert main(["check", g, out]) == 0
    assert main(["limit", g, out]) == 0
    assert capsys.readouterr().out.splitlines()[-1].strip() == "1/2 1/3 1/6"


def test_cmd_design_uniform_half_gives_plain_averaging(workdir, tmp_path):
    _, write = workdir
    g = write("g.json", TRIANGLE_GRAPH)
    out = str(tmp_path / "half.json")
    assert main(["design", g, "--target", "1/3,1/3,1/3", "--x", "1/2,1/2,1/2",
                 "-o", out]) == 0
    doc = json.loads(open(out).read())
    assert all(rec["a_ij"] == "1/2" and rec["a_ji"] == "1/2" for rec in doc)


def test_cmd_design_rejects_boundary_and_bad_sum(workdir):
    _, write = workdir
    g = write("g.json", TRIANGLE_GRAPH)
    assert main(["design", g, "--target", "1/2,1/2,0", "--seed", "1"]) == 1
    assert main(["design", g, "--target", "0.5,0.4,0.3", "--seed", "1"]) == 2
    assert main(["design", g, "--target", "nan,0.5,0.5", "--seed", "1"]) == 2
    assert main(["design", g, "--target", "1e400,1/3,1/3", "--seed", "1"]) == 2  # exact sum
    assert main(["design", g, "--target", "1/2,1/3,1/6"]) == 2  # no x, no seed


@pytest.mark.parametrize("target, tiny_edges", [
    ("5e-324,0.5,0.5", {(1, 2): 1, (1, 3): 1}),  # p_j / p_i = inf: the weight a_ji is tiny
    ("0.5,5e-324,0.5", {(1, 2): 0, (2, 3): 1}),  # both orders on one target
    ("1e-300,0.5,0.5", {(1, 2): 1, (1, 3): 1}),  # no overflow: the output of before
], ids=["5e-324-first", "5e-324-second", "1e-300-first"])
def test_cmd_design_tiny_target_entry(workdir, capsys, tmp_path, target, tiny_edges):
    _, write = workdir
    g = write("g.json", TRIANGLE_GRAPH)
    out = str(tmp_path / "designed.json")
    assert main(["design", g, "--target", target, "--x", "0.5,0.5,0.5", "-o", out]) == 0
    tiny = min(map(float, target.split(",")))
    for rec in json.loads(open(out).read()):
        pair = [0.5, 0.5]
        if tuple(rec["edge"]) in tiny_edges:
            pair[tiny_edges[tuple(rec["edge"])]] = tiny
        assert [rec["a_ij"], rec["a_ji"]] == pair
    assert main(["limit", g, out]) == 0
    assert capsys.readouterr().out == " ".join(
        "4.94065645841247e-324" if v == "5e-324" else v for v in target.split(",")) + "\n"


@pytest.mark.parametrize("target, x, edge", [
    ("5e-324,0.5,0.5", "0.2,0.2,0.2", "(1, 2)"),  # t * p_1 / p_2 = 2e-324
    ("0.5,0.5,5e-324", "0.2,0.2,0.2", "(1, 3)"),  # t * p_3 / p_1 = 2e-324
    (f"1/{10**400},1/2,1/2", "0.5,0.5,0.5", "(1, 2)"),  # exact target, float x
], ids=["tiny-p_i", "tiny-p_j", "exact-target"])
def test_cmd_design_unrepresentable_weight_exits_2(workdir, capsys, target, x, edge):
    _, write = workdir
    g = write("g.json", TRIANGLE_GRAPH)
    assert main(["design", g, "--target", target, "--x", x]) == 2
    err = capsys.readouterr().err
    assert err == f"error: edge {edge} needs a weight below the float64 range\n"


@contextlib.contextmanager
def _no_int_str_limit():
    """Python's int-to-str digit limit lifted inside the block only: the
    reference text of values whose parts pass 4,300 digits."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _reference_text(entries) -> str:
    with _no_int_str_limit():
        return " ".join(f"{v.numerator}/{v.denominator}" for v in entries)


def _digits(entries) -> int:
    """Digits of the longest numerator or denominator."""
    with _no_int_str_limit():
        return max(len(str(abs(x))) for v in entries for x in v.as_integer_ratio())


#: Readable weights, "1/d…d" with 4,000 digits d, whose products pass 4,300 digits.
LONG = {d: "1/" + str(d) * 4000 for d in (3, 7, 9)}


def test_cmd_limit_and_check_print_exact_values_past_the_digit_limit(workdir, capsys):
    _, write = workdir
    g = write("g.json", {"n": 3, "edges": [[1, 2], [2, 3]]})
    for second in (LONG[3], LONG[7]):
        w = write("w.json", [{"edge": [1, 2], "a_ij": LONG[3], "a_ji": "1/2"},
                             {"edge": [2, 3], "a_ij": second, "a_ji": "1/2"}])
        ws = files.load_weights(w, files.load_graph(g))
        _, p = consensus_limit(ws)
        assert _digits(p.entries) > 4300
        assert main(["limit", g, w]) == 0
        assert capsys.readouterr() == (_reference_text(p.entries) + "\n", "")
    # the cycle 1-2-3-1 with every ratio's long part on the same side
    g = write("t.json", TRIANGLE_GRAPH)
    w = write("u.json", [{"edge": [1, 2], "a_ij": "1/2", "a_ji": LONG[3]},
                         {"edge": [2, 3], "a_ij": "1/2", "a_ji": LONG[7]},
                         {"edge": [1, 3], "a_ij": LONG[9], "a_ji": "1/2"}])
    ratio = check_holonomy(files.load_weights(w, files.load_graph(g))).witness.ratio
    assert _digits([ratio]) > 4300
    assert main(["check", g, w]) == 1
    out, err = capsys.readouterr()
    assert err == "" and out.splitlines()[-1] == f"cycle ratio: {_reference_text([ratio])}"


def test_cmd_witness_prints_exact_values_past_the_digit_limit(workdir, capsys):
    _, write = workdir
    g = write("t.json", TRIANGLE_GRAPH)
    w = write("w.json", [{"edge": [1, 2], "a_ij": LONG[3], "a_ji": "1/2"},
                         {"edge": [2, 3], "a_ij": LONG[7], "a_ji": "1/2"},
                         {"edge": [1, 3], "a_ij": LONG[9], "a_ji": "1/2"}])
    wt = nonholonomy_witness_trees(files.load_weights(w, files.load_graph(g)))
    assert _digits(wt.path_vector.entries + wt.chord_vector.entries) > 4300
    assert main(["witness", g, w]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[1] == f"vector 1: {_reference_text(wt.path_vector.entries)}"
    assert out.splitlines()[3] == f"vector 2: {_reference_text(wt.chord_vector.entries)}"


def _design_past_the_digit_limit(g) -> list:
    """design argv whose weights need about 4,600 digits, from a 2,300-digit target."""
    d = (10 ** 2300 - 1) // 9 * 7
    p1 = F(d + 3, 3 * d)
    target = f"{p1.numerator}/{p1.denominator},{(1 - p1).numerator}/{(1 - p1).denominator}"
    return ["design", g, "--target", target, "--x", "1/" + "9" * 2300]


def test_cmd_design_refuses_weights_past_the_digit_limit(workdir, capsys, tmp_path):
    # the weights need about 4,600 digits, which load_weights would refuse
    _, write = workdir
    argv = _design_past_the_digit_limit(write("g.json", {"n": 2, "edges": [[1, 2]]}))
    path = tmp_path / "w.json"
    assert main(argv + ["-o", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: edge (1, 2): not writable as a rational: Exceeds ")
    assert len(err.splitlines()) == 1
    assert not path.exists()
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


def test_digit_limit_errors_leave_out_pythons_advice(workdir, capsys):
    tmp, write = workdir
    g, w = write("g.json", TRIANGLE_GRAPH), write("w.json", BALANCED_RATIONAL)
    long_rational = write("long.json", [{"edge": [1, 2], "a_ij": "1/" + "9" * 5000,
                                         "a_ji": "1/2"}])
    long_int = tmp / "n.json"
    long_int.write_bytes(b'{"n": ' + b"1" * 5000 + b', "edges": []}')
    pair = write("pair.json", {"n": 2, "edges": [[1, 2]]})
    for argv, where in (
            (["check", g, long_rational], f"{long_rational}: record 0: a_ij: not readable"),
            (["check", str(long_int), w], f"{long_int}: not readable as JSON"),
            (_design_past_the_digit_limit(pair), "edge (1, 2): not writable")):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith(f"error: {where}") and "Exceeds the limit" in err
        assert "set_int_max_str_digits" not in err


def test_cmd_simulate_zero_random_steps(workdir, capsys):
    _, write = workdir
    g, w = write("g.json", TRIANGLE_GRAPH), write("w.json", BALANCED_RATIONAL)
    assert main(["simulate", g, w, "--random-steps", "0", "--seed", "1"]) == 2
    assert capsys.readouterr() == ("", "error: steps must be >= 1, got 0\n")
    s = write("s.json", {"type": "explicit", "edges": [[1, 2]]})
    assert main(["simulate", g, w, "--schedule", s, "--random-steps", "0"]) == 2
    assert capsys.readouterr() == ("", "error: give either --schedule or --random-steps, not both\n")


def test_cmd_simulate_and_reports(workdir, tmp_path, capsys, monkeypatch):
    traced = []
    monkeypatch.setattr(cli, "run", lambda *a: traced.append(a[2].trace) or run(*a))
    _, write = workdir
    g = write("g.json", TRIANGLE_GRAPH)
    w = write("w.json", BALANCED_RATIONAL)
    report7 = str(tmp_path / "r7.json")
    rc = main(
        ["simulate", g, w, "--random-steps", "10000", "--seed", "7",
         "--report", report7, "--trace", str(tmp_path / "t7.tsv")]
    )
    assert rc == 0
    doc7 = json.loads(open(report7).read())
    assert doc7["converged"] is True
    expected = [0.5, 1 / 3, 1 / 6]
    assert max(abs(a - b) for a, b in zip(doc7["p_hat"], expected)) < 1e-8
    assert (tmp_path / "t7.tsv").read_text().startswith("t\tedge")

    report8 = str(tmp_path / "r8.json")
    assert main(["simulate", g, w, "--random-steps", "10000", "--seed", "8",
                 "--report", report8]) == 0
    doc8 = json.loads(open(report8).read())
    assert max(abs(a - b) for a, b in zip(doc7["p_hat"], doc8["p_hat"])) < 1e-8

    capsys.readouterr()
    assert main(["simulate", g, w, "--random-steps", "3", "--seed", "7"]) == 1
    assert "converged: false" in capsys.readouterr().out
    assert traced == [True, False, False]  # only --trace reads the row of every step


def _run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own exits: usage errors and --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_reused_across_commands(workdir, capsys):
    _, write = workdir
    g = write("g.json", TRIANGLE_GRAPH)
    w = write("w.json", BALANCED_RATIONAL)
    commands = [["simulate"], ["check", "--help"], ["check", g, w],
                ["simulate", g, w, "--random-steps", "500", "--seed", "3"]]
    first = []
    for argv in commands:  # each command first on a freshly built parser
        build_parser.cache_clear()
        first.append(_run_cli(argv, capsys))
    assert [code for code, _, _ in first] == [2, 0, 0, 0]
    assert "the following arguments are required" in first[0][2]
    assert first[1][1].startswith("usage: hologossip check")
    # then all of them in a row on one parser, after its usage error and its help exit
    assert build_parser() is build_parser()
    assert [_run_cli(argv, capsys) for argv in commands] == first


def test_cmd_simulate_config_errors(workdir, capsys):
    _, write = workdir
    g = write("g.json", TRIANGLE_GRAPH)
    w = write("w.json", BALANCED_RATIONAL)
    assert main(["simulate", g, w, "--random-steps", "10"]) == 2  # missing seed
    capsys.readouterr()
    s = write("s.json", {"type": "explicit", "edges": [[1, 2]]})
    assert main(["simulate", g, w, "--schedule", s, "--random-steps", "10", "--seed", "1"]) == 2
    assert capsys.readouterr() == ("", "error: give either --schedule or --random-steps, not both\n")
    assert main(["simulate", g, w, "--random-steps", "10", "--seed", "1", "--tol", "0"]) == 2
    assert main(["simulate", g, w]) == 2
    capsys.readouterr()
    # a seed on an explicit or periodic schedule would be ignored: refused, whatever its value
    p = write("p.json", {"type": "periodic", "period": [[1, 2], [2, 3]], "repetitions": 4})
    for schedule, seed in ((s, "5"), (p, "5"), (p, "-3")):
        assert main(["simulate", g, w, "--schedule", schedule, "--seed", seed]) == 2
        assert capsys.readouterr() == ("", "error: --seed applies only to random schedules\n")
    r = write("r.json", {"type": "random", "steps": 10, "seed": 1})
    assert main(["simulate", g, w, "--schedule", r, "--seed", "-3"]) == 2
    assert capsys.readouterr().err == f"error: {r}: seed must be >= 0, got -3\n"
    assert main(["simulate", g, w, "--schedule", r, "--seed", "3"]) == 1  # 10 steps: not converged


@pytest.mark.parametrize("flags, error", [
    (["--trace", "{tmp}/missing/t.tsv"], "{tmp}/missing/t.tsv: No such file or directory"),
    (["--report", "{tmp}/missing/r.json"], "{tmp}/missing/r.json: No such file or directory"),
    (["--trace", "{tmp}"], "{tmp}: Is a directory"),
    (["--report", "{tmp}"], "{tmp}: Is a directory"),
    (["--trace", ""], ": No such file or directory"),
    (["--report", ""], ": No such file or directory"),
    (["--trace", "{tmp}/t.tsv", "--report", "{tmp}/missing/r.json"],
     "{tmp}/missing/r.json: No such file or directory"),
])
def test_cmd_simulate_unwritable_output_exits_2(workdir, capsys, monkeypatch, flags, error):
    tmp, write = workdir
    g, w = write("g.json", TRIANGLE_GRAPH), write("w.json", BALANCED_RATIONAL)
    runs = []
    monkeypatch.setattr(cli, "run", lambda *a: runs.append(a))
    argv = ["simulate", g, w, "--random-steps", "100", "--seed", "1", *flags]
    assert main([a.format(tmp=tmp) for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {error.format(tmp=tmp)}\n")
    assert runs == []  # refused before the run
    if "{tmp}/t.tsv" in flags:  # the writable trace path was opened first, and is left empty
        assert (tmp / "t.tsv").read_text() == ""


@pytest.mark.parametrize("output, error", [
    ("{tmp}/missing/w.json", "{tmp}/missing/w.json: No such file or directory"),
    ("{tmp}", "{tmp}: Is a directory"),
    ("", ": No such file or directory"),  # an empty path is a path, not stdout
])
def test_cmd_design_unwritable_output_exits_2(workdir, capsys, output, error):
    tmp, write = workdir
    g = write("g.json", TRIANGLE_GRAPH)
    argv = ["design", g, "--target", "1/2,1/3,1/6", "--x", "1/2,1/2,1/2", "-o", output]
    assert main([a.format(tmp=tmp) for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {error.format(tmp=tmp)}\n")


def test_cmd_simulate_empty_schedule_path_is_a_path(workdir, capsys):
    _, write = workdir
    g, w = write("g.json", TRIANGLE_GRAPH), write("w.json", BALANCED_RATIONAL)
    assert main(["simulate", g, w, "--schedule", "", "--random-steps", "10", "--seed", "1"]) == 2
    assert capsys.readouterr() == ("", "error: give either --schedule or --random-steps, not both\n")
    assert main(["simulate", g, w, "--schedule", ""]) == 2
    assert capsys.readouterr() == ("", "error: : No such file or directory\n")


@pytest.mark.parametrize("argv", [
    ["simulate", "{g}", "{w}", "--random-steps", "-5", "--seed", "1"],
    ["simulate", "{g}", "{w}", "--random-steps", "100", "--seed", "-1"],
    ["simulate", "{g}", "{w}", "--random-steps", "100", "--seed", "1", "--tol", "nan"],
    ["simulate", "{g}", "{w}", "--schedule", "{negseed}"],
    ["simulate", "{g}", "{w}", "--schedule", "{strseed}"],
    ["design", "{g}", "--target", "0.5,0.3,0.2", "--seed", "-3"],
    ["simulate", "{g}", "{w}", "--random-steps", "100", "--seed", "1", "--tol", "2"],
    ["simulate", "{g}", "{w}", "--random-steps", "100", "--seed", "1", "--tol", "inf"],
    ["simulate", "{g}", "{w}", "--schedule", "{edges5}"],
    ["simulate", "{g}", "{w}", "--schedule", "{period5}"],
])
def test_cli_rejects_bad_numbers_with_exit_2(workdir, capsys, argv):
    _, write = workdir
    paths = {
        "g": write("g.json", TRIANGLE_GRAPH),
        "w": write("w.json", BALANCED_RATIONAL),
        "negseed": write("neg.json", {"type": "random", "steps": 10, "seed": -1}),
        "strseed": write("str.json", {"type": "random", "steps": 10, "seed": "x"}),
        "edges5": write("edges5.json", {"type": "explicit", "edges": 5}),
        "period5": write("period5.json", {"type": "periodic", "period": 5, "repetitions": 2}),
    }
    assert main([a.format(**paths) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("name, raw", [
    ("g.json", b"\xff\xfe{}"),  # not UTF-8
    ("g.json", b"[" * 100_000),  # nesting past the recursion limit
    ("g.json", b'{"n": ' + b"1" * 5000 + b', "edges": []}'),  # int past 4300 digits
    ("g.json", json.dumps({"n": 10**30, "edges": [[1, 2]]}).encode()),
    ("w.json", json.dumps([{"edge": [1, 2], "a_ij": 10**400, "a_ji": 0.5}]).encode()),
    ("w.json", json.dumps([{"edge": [1, 2], "a_ij": "1/" + "9" * 5000, "a_ji": "1/2"}]).encode()),
])
def test_cli_rejects_unreadable_and_extreme_files_with_exit_2(workdir, capsys, name, raw):
    tmp, write = workdir
    g, w = write("g.json", TRIANGLE_GRAPH), write("w.json", BALANCED_RATIONAL)
    (tmp / name).write_bytes(raw)
    assert main(["check", g, w]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("pair", [(0.5, 5e-324), (5e-324, 0.5)])
def test_limit_with_overflowing_ratio_is_base_independent(workdir, capsys, pair):
    # the directed ratio 0.5 / 5e-324 = 2**1073 is past float64; the limit is not
    _, write = workdir
    g = write("g.json", {"n": 2, "edges": [[1, 2]]})
    w = write("w.json", [{"edge": [1, 2], "a_ij": pair[0], "a_ji": pair[1]}])
    outs = []
    for base in ("1", "2"):
        assert main(["limit", g, w, "--base", base]) == 0
        outs.append(capsys.readouterr().out)
    tiny = "9.88131291682493e-324"
    assert outs == [f"{tiny} 1\n" if pair[0] == 0.5 else f"1 {tiny}\n"] * 2


def test_cmd_witness(workdir, capsys):
    _, write = workdir
    g = write("g.json", TRIANGLE_GRAPH)
    assert main(["witness", g, write("u.json", UNBALANCED_FLOAT)]) == 0
    out = capsys.readouterr().out
    assert "tree 1 (cycle path edges): (1,2) (1,3)" in out
    assert "tree 2 (cycle chord edge): (1,2) (2,3)" in out
    assert "0.4 0.4 0.2" in out
    assert main(["witness", g, write("w.json", BALANCED_RATIONAL)]) == 0
    assert "holonomic: no witness" in capsys.readouterr().out
    tree_g = write("tg.json", {"n": 3, "edges": [[1, 2], [2, 3]]})
    tree_w = write("tw.json", [
        {"edge": [1, 2], "a_ij": 0.9, "a_ji": 0.1},
        {"edge": [2, 3], "a_ij": 0.3, "a_ji": 0.8},
    ])
    assert main(["witness", tree_g, tree_w]) == 0
    assert "holonomic: no witness" in capsys.readouterr().out


def test_cmd_verify_subset(capsys):
    assert main(["verify", "--criteria", "10"]) == 0
    out = capsys.readouterr().out
    assert "criterion 10" in out and "PASS" in out


@pytest.mark.parametrize("criteria", ["x", "99", "1,x", ","])
def test_cmd_verify_rejects_bad_criteria(criteria, capsys):
    assert main(["verify", "--criteria", criteria]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --criteria") and "Traceback" not in captured.err


def test_log_env_smoke(workdir, monkeypatch, capsys):
    tmp, write = workdir
    g, out = write("g.json", TRIANGLE_GRAPH), str(tmp / "out.json")
    for level, logs in [("info", True), (" DEBUG ", True), ("off", False), ("verbose", False)]:
        monkeypatch.setenv("HOLOGOSSIP_LOG", level)
        assert main(["check", g, write("w.json", BALANCED_RATIONAL)]) == 0
        assert capsys.readouterr().err == ""
        assert main(["design", g, "--target", "1/2,1/3,1/6", "--x", "3/10,3/5,1/2",
                     "-o", out]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"INFO wrote weights for 3 edges to {out}\n" if logs else "")


def test_pipeline_closure_25_seeded_cases(tmp_path, capsys):
    rng = np.random.default_rng(20260)
    for case in range(25):
        n = 3 + case % 5
        g = random_connected_graph(rng, n, extra=2)
        gpath = tmp_path / f"g{case}.json"
        gpath.write_text(json.dumps({"n": g.n, "edges": [list(e) for e in g.sorted_edges]}))
        target = rng.dirichlet(np.full(n, 4.0))
        target = np.clip(target, 0.02, None)
        target = target / target.sum()
        tstr = ",".join(f"{v:.17g}" for v in target)
        wpath = tmp_path / f"w{case}.json"
        assert main(["design", str(gpath), "--target", tstr, "--seed", str(case),
                     "-o", str(wpath)]) == 0
        assert main(["check", str(gpath), str(wpath)]) == 0
        capsys.readouterr()
        assert main(["limit", str(gpath), str(wpath)]) == 0
        got = [float(v) for v in capsys.readouterr().out.split()]
        renorm = [float(v) for v in target]
        assert max(abs(a - b) for a, b in zip(got, renorm)) <= 1e-12

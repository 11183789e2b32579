"""The exit-code contract of the CLI on generated inputs: every command exits
0, 1 or 2, and none raises (a traceback, from the installed entry point).

Graphs, weights, schedules and option values are drawn malformed, extreme or
valid, so that each layer (file grammar, graph, weights, limit, design,
engine) is reached. Step budgets stay in the thousands: a schedule of 10^30
steps that does not converge is a valid long run, not an input error.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hologossip.cli import main

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# -- files --------------------------------------------------------------------

odd_int = st.sampled_from([-1, 0, 2**31, 2**64, 10**30, 10**400])
node = st.one_of(st.integers(0, 7), odd_int)
odd_edge = st.one_of(
    st.lists(node, max_size=3),
    st.sampled_from(["1-2", [1.0, 2.0], [True, 2], None, {"i": 1}]),
)


#: File contents that are not JSON documents: bytes that are not UTF-8, a trailing
#: comma, nesting past the recursion limit, an integer past 4300 digits.
RAW = [b"\xff\xfe{}", b'{"n": 3, "edges": [[1, 2],]}', b"[" * 100_000, b"1" * 5000, b""]


def _shapes(n: int) -> list:
    path = [[k, k + 1] for k in range(1, n)]
    return [path, path + [[1, n]] if n > 2 else path,
            [[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1)]]


connected = st.integers(1, 5).flatmap(
    lambda n: st.sampled_from(_shapes(n)).map(lambda edges: {"n": n, "edges": edges}))
graph_doc = st.one_of(
    connected,
    connected,
    st.builds(lambda n, edges: {"n": n, "edges": edges},
              st.one_of(st.integers(-2, 7), odd_int, st.sampled_from([2.0, "3", True, None])),
              st.one_of(st.lists(st.one_of(odd_edge, st.lists(st.integers(1, 7), min_size=2,
                                                                   max_size=2)), max_size=6),
                        st.sampled_from([5, "edges", None]))),
    st.sampled_from([[], 3, None, "graph", {"edges": [[1, 2]]}]),
    st.sampled_from(RAW),
)

big_fraction = "1/" + "9" * 400
scalar = st.one_of(
    st.floats(0, 1, exclude_min=True, exclude_max=True),
    st.fractions(0, 1).map(lambda f: f"{f.numerator}/{f.denominator}"),
    st.sampled_from([0.0, 1.0, -0.5, 1.5, math.nan, math.inf, -math.inf, 5e-324, 1e-300,
                     1 - 2**-53, 3, 10**400, True, None, [0.5], "1/0", "0/1", "-1/2", "2/1",
                     big_fraction, "abc", "1e-3", " 1 / 3 "]),
)


def _pairs(graph) -> list:
    """The graph document's edges when they are all pairs, else []."""
    edges = graph.get("edges") if isinstance(graph, dict) else None
    if isinstance(edges, list) and all(isinstance(e, list) and len(e) == 2 for e in edges):
        return edges
    return []


def _records(edges, draw_scalar, draw_edge, flip, drop):
    out = []
    for k, e in enumerate(edges):
        if k in drop:
            continue
        edge = list(reversed(e)) if k in flip else e
        out.append({"edge": draw_edge(edge), "a_ij": draw_scalar(), "a_ji": draw_scalar()})
    return out


@st.composite
def weights_doc(draw, graph):
    edges = _pairs(graph)
    if not edges or draw(st.integers(0, 9)) == 0:
        return draw(st.one_of(st.sampled_from([{}, "w", 3, None, [[1, 2, 0.5, 0.5]]] + RAW),
                              st.lists(st.fixed_dictionaries(
                                  {"edge": odd_edge, "a_ij": scalar, "a_ji": scalar}),
                                  max_size=3)))
    # most files keep to one kind of value, so that most examples get past the file grammar
    kind = draw(st.sampled_from(["float", "exact", "any"]))
    own = {"float": st.floats(1e-3, 1 - 1e-3),
           "exact": st.fractions(0, 1).filter(lambda f: 0 < f < 1).map(
               lambda f: f"{f.numerator}/{f.denominator}"),
           "any": scalar}[kind]
    values = st.one_of(own, own, own, scalar) if kind != "any" else scalar
    recs = _records(edges, lambda: draw(values),
                    lambda e: draw(st.one_of(st.just(e), st.just(e), st.just(e), odd_edge)),
                    flip=draw(st.sets(st.integers(0, len(edges) - 1))),
                    drop=draw(st.sets(st.integers(0, len(edges) - 1), max_size=1)))
    if draw(st.booleans()) and recs:
        recs.append(dict(recs[0]))  # a duplicate record
    return recs


odd_count = st.sampled_from([2.5, "3", True, None])
count = st.one_of(st.integers(-2, 3000), odd_count)
seed = st.one_of(st.integers(-2, 2**31), st.sampled_from([2**64, 2**200, 1.5, "7", None]))


@st.composite
def schedule_doc(draw, graph):
    pool = _pairs(graph) or [[1, 2]]
    edge_list = st.one_of(st.lists(st.sampled_from(pool), max_size=9),
                          st.lists(odd_edge, max_size=3), st.sampled_from([5, None, "e"]))
    doc = {"type": draw(st.sampled_from(["explicit", "periodic", "random", "bogus", 3]))}
    for key, values in (("edges", edge_list), ("period", edge_list),
                        ("repetitions", st.one_of(st.integers(-1, 300), odd_count)),
                        ("steps", count), ("seed", seed)):
        if draw(st.booleans()):
            doc[key] = draw(values)
    return draw(st.one_of(st.just(doc), st.just(doc), st.just(doc),
                          st.sampled_from([[], "random", None] + RAW)))


# -- option values --------------------------------------------------------------

number_text = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.fractions(-1, 2).map(lambda f: f"{f.numerator}/{f.denominator}"),
    st.integers(-3, 10**30).map(str),
    st.sampled_from(["0", "1", "1e400", "1e-400", "5e-324", "1/0", "1/3", big_fraction,
                     "abc", "", "0x1p-3", "--", "1,,2"]),
)
vector_text = st.lists(number_text, max_size=6).flatmap(
    lambda parts: st.sampled_from([",", " ", ", "]).map(lambda sep: sep.join(parts)))


def _run(tmp, argv, docs) -> tuple:
    for name, doc in docs.items():
        raw = doc if isinstance(doc, bytes) else json.dumps(doc).encode()
        (tmp / name).write_bytes(raw)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main([str(tmp / a) if a in docs or a.endswith(".out") else a for a in argv])
        except SystemExit as exc:  # argparse rejects an option value
            code = exc.code
    return code, err.getvalue()


def _assert_contract(tmp, argv, docs):
    code, err = _run(tmp, argv, docs)
    assert code in (0, 1, 2), (argv, docs, code, err)
    assert "Traceback" not in err, (argv, docs, err)


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@SETTINGS
@given(data=st.data(), command=st.sampled_from(["check", "witness", "limit"]))
def test_closed_form_commands_keep_exit_contract(tmp, data, command):
    graph = data.draw(graph_doc)
    argv = [command, "g.json", "w.json"]
    if command == "limit" and data.draw(st.booleans()):
        argv += ["--base", data.draw(st.one_of(st.integers(-1, 6), odd_int).map(str)
                                     | st.just("x"))]
    _assert_contract(tmp, argv, {"g.json": graph, "w.json": data.draw(weights_doc(graph))})


@SETTINGS
@given(data=st.data())
def test_design_keeps_exit_contract(tmp, data):
    graph = data.draw(graph_doc)
    n = graph.get("n") if isinstance(graph, dict) else None
    size = n if isinstance(n, int) and 0 < n < 8 else 3
    interior = st.lists(st.integers(1, 9), min_size=size, max_size=size).map(
        lambda ws: ",".join(f"{w}/{sum(ws)}" for w in ws))
    argv = ["design", "g.json", "--target", data.draw(st.one_of(interior, vector_text))]
    box = st.lists(st.floats(0, 1, exclude_min=True, exclude_max=True).map(repr),
                   min_size=size, max_size=size + 1).map(",".join)
    choice = data.draw(st.sampled_from(["x", "seed", "both", "none"]))
    if choice in ("x", "both"):
        argv += ["--x", data.draw(st.one_of(box, vector_text))]
    if choice in ("seed", "both"):
        argv += ["--seed", data.draw(seed.map(str))]
    if data.draw(st.booleans()):
        argv += ["-o", "d.out"]
    _assert_contract(tmp, argv, {"g.json": graph})


@SETTINGS
@given(data=st.data())
def test_simulate_keeps_exit_contract(tmp, data):
    graph = data.draw(graph_doc)
    argv = ["simulate", "g.json", "w.json"]
    docs = {"g.json": graph, "w.json": data.draw(weights_doc(graph))}
    choice = data.draw(st.sampled_from(["schedule", "random", "both", "none"]))
    if choice in ("schedule", "both"):
        argv += ["--schedule", "s.json"]
        docs["s.json"] = data.draw(schedule_doc(graph))
    if choice in ("random", "both"):
        argv += ["--random-steps", data.draw(count.map(str))]
    if choice != "schedule" or data.draw(st.booleans()):
        argv += ["--seed", data.draw(seed.map(str))]
    if data.draw(st.booleans()):
        argv += ["--tol", data.draw(number_text)]
    if data.draw(st.booleans()):
        argv += ["--trace", "t.out", "--report", "r.out"]
    _assert_contract(tmp, argv, docs)

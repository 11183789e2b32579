"""The one-pass file loaders against the loaders they replaced.

``reference_load_graph`` and ``reference_load_weights`` below are the
per-record loaders of ``hologossip.files`` and the ``build_graph`` and
``WeightSet`` validation loops as they were before the single-pass
rewrite, with the two parsing fixes that came with it: every whitespace
that the 'p/q' grammar admits is left out, and a part past Python's
4300-digit conversion limit is a ``FileFormatError``, whose message leaves out
Python's advice to raise that limit. On every input, both
must give an equal graph or weight set, or raise the same first error with
the same message.
"""

import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hologossip import errors, files
from hologossip.graph import Graph, bfs_parents
from hologossip.weights import EdgeWeights, WeightSet
from test_cli_contract import connected, graph_doc, weights_doc

_RATIONAL_RE = re.compile(r"^\s*[+-]?\d+\s*/\s*[1-9]\d*\s*$")


def _parse_scalar(value, where):
    if isinstance(value, bool):
        raise errors.FileFormatError(f"{where}: expected a number, got a boolean")
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError as exc:
            raise errors.FileFormatError(f"{where}: integer outside the float64 range") from exc
    if isinstance(value, str):
        if _RATIONAL_RE.match(value):
            try:
                return Fraction("".join(value.split()))
            except ValueError as exc:
                advice = "; use sys.set_int_max_str_digits() to increase the limit"
                raise errors.FileFormatError(
                    f"{where}: not readable as a rational: {str(exc).removesuffix(advice)}") from exc
        raise errors.FileFormatError(f"{where}: {value!r} is not a rational 'p/q' string")
    raise errors.FileFormatError(f"{where}: expected a number or 'p/q' string")


def _edge_pair(raw, where):
    if (
        not isinstance(raw, (list, tuple))
        or len(raw) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in raw)
    ):
        raise errors.FileFormatError(f"{where}: edge must be a pair of integers")
    return int(raw[0]), int(raw[1])


def _edge_list(doc, key, where):
    raw = doc.get(key, [])
    if not isinstance(raw, list):
        raise errors.FileFormatError(f"{where}: '{key}' must be a list of pairs")
    return [_edge_pair(pair, f"{where}: {key}[{k}]") for k, pair in enumerate(raw)]


def _build_graph(n, edges):
    if n < 1:
        raise errors.EmptyGraph("graph needs at least one node")
    seen = set()
    for pair in edges:
        i, j = int(pair[0]), int(pair[1])
        if not (1 <= i <= n) or not (1 <= j <= n):
            raise errors.InvalidNode(f"edge ({i},{j}) uses a node outside 1..{n}")
        if i == j:
            raise errors.SelfLoop(f"self-loop ({i},{i}) not allowed")
        e = (min(i, j), max(i, j))
        if e in seen:
            raise errors.DuplicateEdge(f"edge ({e[0]},{e[1]}) given more than once")
        seen.add(e)
    g = Graph(n=n, edges=frozenset(seen))
    adj = {}
    for i, j in g.edges:
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    adj = {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}
    reached = bfs_parents(1, adj)
    if len(reached) != n:
        missing = next(v for v in range(1, n + 1) if v not in reached)
        raise errors.DisconnectedGraph(f"node {missing} unreachable from node 1")
    return g, adj


def reference_load_graph(path):
    """(graph, sorted adjacency) as the per-edge loader built them."""
    doc = files._load_json(path)
    if not isinstance(doc, dict):
        raise errors.FileFormatError(f"{path}: graph file must be a JSON object")
    if "n" not in doc or not isinstance(doc["n"], int) or isinstance(doc["n"], bool):
        raise errors.FileFormatError(f"{path}: missing integer field 'n'")
    return _build_graph(doc["n"], _edge_list(doc, "edges", path))


def _weight_store(graph, pairs):
    store = {}
    for key, pair in pairs.items():
        i, j = int(key[0]), int(key[1])
        e = graph.require_edge(i, j)
        if e in store:
            raise errors.UnknownEdge(f"edge ({i},{j}) given more than once")
        for v in pair:
            if not (0 < v < 1):
                raise errors.WeightOutOfRange(f"weight {v} on edge {e} outside (0,1)")
        w = EdgeWeights(*pair)
        store[e] = EdgeWeights(w.a_ji, w.a_ij) if i > j else w
    if len(store) < len(graph.edges):
        raise errors.UnknownEdge(f"no weights for edges {sorted(graph.edges - set(store))}")
    kinds = {isinstance(v, Fraction) for w in store.values() for v in w}
    if len(kinds) > 1:
        raise errors.MixedScalarKinds("weight set mixes exact rationals and floats")
    return store, kinds == {True}


def reference_load_weights(path, graph):
    """(store, exact) as the per-record loader and ``WeightSet`` built them."""
    doc = files._load_json(path)
    if not isinstance(doc, list):
        raise errors.FileFormatError(f"{path}: weights file must be a JSON list")
    pairs = {}
    kinds = set()
    for k, rec in enumerate(doc):
        where = f"{path}: record {k}"
        if not isinstance(rec, dict) or not {"edge", "a_ij", "a_ji"} <= set(rec):
            raise errors.FileFormatError(f"{where}: needs fields edge, a_ij, a_ji")
        edge = _edge_pair(rec["edge"], where)
        a = _parse_scalar(rec["a_ij"], f"{where}: a_ij")
        b = _parse_scalar(rec["a_ji"], f"{where}: a_ji")
        for v in (a, b):
            kinds.add("exact" if isinstance(v, Fraction) else "float")
        if edge in pairs or (edge[1], edge[0]) in pairs:
            raise errors.FileFormatError(f"{where}: duplicate edge {list(edge)}")
        pairs[edge] = (a, b)
    if len(kinds) > 1:
        raise errors.MixedScalarKinds(f"{path}: mixes rational 'p/q' strings and plain numbers")
    return _weight_store(graph, pairs)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except errors.HologossipError as exc:
        return type(exc), str(exc)


def _typed(store) -> list:
    """A weight store with the type of every key, pair and value, so that
    0.5 and Fraction(1, 2) differ."""
    return sorted((e, tuple(map(type, e)), type(w), tuple((type(v), v) for v in w))
                  for e, w in store.items())


def _write(path, doc):
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    return path


def assert_same_loads(tmp, graph, weights):
    """Both loaders give equal results, or the same first error, on the two files."""
    gpath, wpath = _write(tmp / "g.json", graph), _write(tmp / "w.json", weights)
    new, ref = _outcome(files.load_graph, gpath), _outcome(reference_load_graph, gpath)
    if ref[0] != "ok":
        assert new == ref
        return ref
    g, adjacency = ref[1]
    assert new[0] == "ok" and new[1] == g and new[1].adjacency == adjacency
    new, ref = _outcome(files.load_weights, wpath, g), _outcome(reference_load_weights, wpath, g)
    if ref[0] != "ok":
        assert new == ref
        return ref
    store, exact = ref[1]
    ws = new[1]
    assert new[0] == "ok" and ws.exact == exact and _typed(ws._pairs) == _typed(store)
    return ref


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("loaders")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_loaders_match_the_per_record_reference(tmp, data):
    graph = data.draw(graph_doc)
    assert_same_loads(tmp, graph, data.draw(weights_doc(graph)))


FAULTS = {
    "range": lambda draw, rec, n: {**rec, draw(st.sampled_from(["a_ij", "a_ji"])): draw(
        st.sampled_from([0.0, 1.0, 1.5, -0.25, "3/2", "0/1", "-1/2", float("nan")]))},
    "unknown edge": lambda draw, rec, n: {**rec, "edge": [1, n + 1]},
    "edge grammar": lambda draw, rec, n: {**rec, "edge": draw(
        st.sampled_from([[1], [1, True], "1-2", [1.0, 2], [1, 2, 3]]))},
    "other kind": lambda draw, rec, n: {**rec, "a_ij": 0.5 if isinstance(rec["a_ij"], str)
                                        else "1/2"},
    "missing field": lambda draw, rec, n: {k: v for k, v in rec.items() if k != "a_ji"},
    "value grammar": lambda draw, rec, n: {**rec, "a_ji": draw(
        st.sampled_from([True, None, "1/0", "x", 10**400, [0.5]]))},
}


@st.composite
def faulty_weights(draw):
    """A connected graph and a full weight set for it, in shuffled records
    with edges in either orientation, and up to three faults in random
    records: wrong values or edges, or a record dropped or repeated."""
    graph = draw(connected)
    n, edges = graph["n"], graph["edges"]
    value = draw(st.sampled_from([
        st.floats(5e-324, 1 - 2**-53),
        st.fractions(0, 1).filter(lambda f: 0 < f < 1).map(
            lambda f: f"{f.numerator}/{f.denominator}")]))
    recs = draw(st.permutations([{"edge": draw(st.sampled_from([e, e[::-1]])),
                                  "a_ij": draw(value), "a_ji": draw(value)} for e in edges]))
    for _ in range(draw(st.integers(0, 3))):
        if not recs:
            break
        k = draw(st.integers(0, len(recs) - 1))
        fault = draw(st.sampled_from(sorted(FAULTS) + ["drop", "repeat"]))
        if fault == "drop":
            del recs[k]
        elif fault == "repeat":
            recs.append({**recs[k], "edge": draw(st.sampled_from([recs[k]["edge"],
                                                                  recs[k]["edge"][::-1]]))})
        else:
            recs[k] = FAULTS[fault](draw, recs[k], n)
    return graph, recs


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=faulty_weights())
def test_loaders_match_the_per_record_reference_on_faulty_sets(tmp, case):
    assert_same_loads(tmp, *case)


TRIANGLE = {"n": 3, "edges": [[1, 2], [2, 3], [1, 3]]}


def _recs(*values):
    """Triangle records with the given (edge, a_ij, a_ji) triples."""
    return [{"edge": e, "a_ij": a, "a_ji": b} for e, a, b in values]


#: (graph, weights, first error) with faults in several records, each
#: behind an earlier-ranked fault in a later record or the other way round.
MULTI_FAULT = [
    ({"n": 0, "edges": [[1, 2], [2, True]]}, [], errors.FileFormatError),
    ({"n": 0, "edges": [[1, 2]]}, [], errors.EmptyGraph),
    ({"n": 3, "edges": [[1, 2], [2, 2], [1, 4]]}, [], errors.SelfLoop),
    ({"n": 3, "edges": [[1, 4], [2, 2]]}, [], errors.InvalidNode),
    ({"n": 3, "edges": [[1, 2], [2, 1], [2, 3], [3, 2.0]]}, [], errors.FileFormatError),
    ({"n": 4, "edges": [[1, 2], [3, 4], [2, 1]]}, [], errors.DuplicateEdge),
    ({"n": 4, "edges": [[1, 2], [3, 4]]}, [], errors.DisconnectedGraph),
    ({"n": True, "edges": [[1, 2]]}, [], errors.FileFormatError),
    ({"edges": "x"}, [], errors.FileFormatError),
    (TRIANGLE, _recs(([1, 2], 1.5, 0.5), ([2, 3], 0.5, 0.5), ([1, 3], 0.5, [0.5])),
     errors.FileFormatError),
    (TRIANGLE, _recs(([1, 5], 0.5, 0.5), ([2, 3], 0.5, 0.5), ([3, 2], 0.5, 0.5)),
     errors.FileFormatError),
    (TRIANGLE, _recs(([1, 2], "1/2", "1/2"), ([2, 3], 0.5, 0.5)) + [{"edge": [1, 3]}],
     errors.FileFormatError),
    (TRIANGLE, _recs(([1, 2], "1/2", "1/2"), ([2, 3], 0.5, 0.5), ([1, 4], 0.5, 0.5)),
     errors.MixedScalarKinds),
    (TRIANGLE, _recs(([1, 2], "3/2", "1/2"), ([2, 3], "1/2", 0.5), ([1, 3], 0.5, 0.5)),
     errors.MixedScalarKinds),
    (TRIANGLE, _recs(([1, 2], 0.5, 0.5), ([2, 1], 0.5, 0.5)), errors.FileFormatError),
    (TRIANGLE, _recs(([1, 2], 0.0, 0.5), ([2, 4], 0.5, 0.5), ([1, 3], 0.5, 0.5)),
     errors.WeightOutOfRange),
    (TRIANGLE, _recs(([2, 4], 0.5, 0.5), ([1, 2], 0.0, 0.5)), errors.UnknownEdge),
    (TRIANGLE, _recs(([3, 1], 0.5, float("nan")), ([2, 3], 0.5, 0.5)), errors.WeightOutOfRange),
    (TRIANGLE, _recs(([1, 2], 0.5, 0.5), ([2, 3], 0.5, 0.5)), errors.UnknownEdge),
    (TRIANGLE, _recs(([1, 2], True, "x/y"), ([2, 3], 0.5, 0.5)), errors.FileFormatError),
    (TRIANGLE, _recs(([1, 2], 0.5, 10**400), ([2, 3], "1/3", 0.5)), errors.FileFormatError),
    (TRIANGLE, _recs(([1, 2], "1/2", "1/" + "9" * 5000), ([2, 3], 0.5, 0.5)),
     errors.FileFormatError),
    (TRIANGLE, _recs(([2, 1], "3/10", " 1 / 5"), ([3, 2], "1\t/2", "1/ 4"),
                     ([1, 3], "1/5", "3/5")), "ok"),
    (TRIANGLE, _recs(([1, 2], 1, 0.5), ([2, 3], 0.5, 0.5), ([1, 3], 0.5, 0.5)),
     errors.WeightOutOfRange),
    (TRIANGLE, _recs(([1, 2], 0.25, 0.5), ([3, 2], 0.5, 0.75), ([3, 1], 5e-324, 1 - 2**-53)),
     "ok"),
    ({"n": 1}, [], "ok"),
]


@pytest.mark.parametrize("graph, weights, first", MULTI_FAULT)
def test_loaders_raise_the_same_first_error(tmp, graph, weights, first):
    assert assert_same_loads(tmp, graph, weights)[0] == first


def test_weight_set_counts_float_subclasses_as_floats(tmp):
    g = files.load_graph(_write(tmp / "g.json", TRIANGLE))
    half = np.float64(0.5)
    pairs = {(2, 1): (half, 0.25), (2, 3): (0.5, half), (1, 3): (half, half)}
    ws = WeightSet(g, pairs)
    assert not ws.exact and _typed(ws._pairs) == _typed(_weight_store(g, pairs)[0])
    pairs[2, 3] = (Fraction(1, 2), Fraction(1, 2))
    assert _outcome(WeightSet, g, pairs) == (errors.MixedScalarKinds,
                                            "weight set mixes exact rationals and floats")
    assert _outcome(_weight_store, g, pairs)[0] is errors.MixedScalarKinds
    for pair in ((0.5, Fraction(1, 2)), (Fraction(1, 2), 0.5)):  # mixed inside every pair
        pairs = dict.fromkeys(g.sorted_edges, pair)
        assert _outcome(WeightSet, g, pairs)[0] is errors.MixedScalarKinds
        assert _outcome(_weight_store, g, pairs)[0] is errors.MixedScalarKinds


@pytest.mark.parametrize("pairs", [
    {(1, 2): (0.5, 0.5), (2, 1): (0.5, 0.5), (2, 3): (0.5, 0.5)},
    {(1, 2): (0.5, 0.5), (2, 3): (0.5, 0.5), (1, 3): (0.5, 0.5), (3, 1): (2.0, 0.5)},
    {(2, 1): (0.5, 1.0), (1, 4): (0.5, 0.5)},
    {(1.0, 2.0): (0.25, 0.5), (3, 2): (0.5, 0.75), (np.int64(1), np.int64(3)): (0.5, 0.5)},
    {(1, 2): (Fraction(1, 2), Fraction(1, 3)), (3, 2): (Fraction(1, 4), Fraction(3, 4)),
     (3, 1): (Fraction(1, 2), Fraction(1, 2))},
])
def test_weight_set_matches_the_reference_on_direct_pairs(tmp, pairs):
    g = files.load_graph(_write(tmp / "g.json", TRIANGLE))
    new, ref = _outcome(WeightSet, g, pairs), _outcome(_weight_store, g, pairs)
    if ref[0] != "ok":
        assert new == ref
    else:
        assert new[1].exact == ref[1][1] and _typed(new[1]._pairs) == _typed(ref[1][0])

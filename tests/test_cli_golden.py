"""Golden CLI outputs: exit code, stdout, stderr and written files of fixed
commands on small inputs, compared with ``golden_cli.json``.

The inputs are written to a temporary directory and the commands run there
with relative paths, so the recorded output holds no absolute path. Written
files are compared by SHA-256. ``python tests/test_cli_golden.py`` records
the expectations again from the current sources.
"""

import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest

from hologossip.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")


def _text(v) -> str:
    return f"{v.numerator}/{v.denominator}"


def _cycle_weights(n: int, exact: bool, perturb: bool = False) -> list:
    """Balanced weights on the n-cycle with limit proportional to 1..n. With
    ``perturb`` the chord (1, n) gets a_ij scaled by 3/4."""
    edges = [(k, k + 1) for k in range(1, n)] + [(1, n)]
    return _index_weights(edges, exact, (1, n) if perturb else None)


def _index_weights(edges, exact: bool, perturb=None) -> list:
    """Balanced weights with limit proportional to the node labels: on edge
    (i, j) the ratio a_ij/a_ji is j/i, the larger weight is 1/2. The edge
    ``perturb`` gets a_ij scaled by 3/4."""
    recs = []
    for i, j in edges:
        r = F(j, i)
        a, b = (r / 2, F(1, 2)) if r <= 1 else (F(1, 2), 1 / (2 * r))
        if (i, j) == perturb:
            a = a * F(3, 4)
        recs.append({"edge": [i, j], "a_ij": _text(a) if exact else float(a),
                     "a_ji": _text(b) if exact else float(b)})
    return recs


def _triangle_weights(pairs: dict, exact: bool) -> list:
    return [{"edge": list(e), "a_ij": _text(a) if exact else float(a),
             "a_ji": _text(b) if exact else float(b)} for e, (a, b) in pairs.items()]


BALANCED = {(1, 2): (F(1, 5), F(3, 10)), (2, 3): (F(1, 4), F(1, 2)), (1, 3): (F(1, 5), F(3, 5))}
UNBALANCED = {(1, 2): (F(1, 2), F(1, 2)), (2, 3): (F(1, 2), F(1, 2)), (1, 3): (F(1, 5), F(2, 5))}

#: A binary tree on 1..40 plus four chords.
TREE40 = sorted({(k // 2, k) for k in range(2, 41)} | {(3, 40), (7, 29), (12, 33), (1, 25)})

#: The 8-cycle plus two chords.
RING8 = [(k, k + 1) for k in range(1, 8)] + [(1, 8), (2, 6), (3, 7)]

#: The edges of the 20-cycle, (1, 20) last.
CYCLE20 = [[k, k + 1] for k in range(1, 20)] + [[1, 20]]

INPUTS = {
    "tri.json": {"n": 3, "edges": [[1, 2], [2, 3], [1, 3]]},
    "path4.json": {"n": 4, "edges": [[1, 2], [2, 3], [3, 4]]},
    "cyc50.json": {"n": 50, "edges": [[k, k + 1] for k in range(1, 50)] + [[1, 50]]},
    "cyc20.json": {"n": 20, "edges": CYCLE20},
    "bal_exact.json": _triangle_weights(BALANCED, True),
    "bal_float.json": _triangle_weights(BALANCED, False),
    "unbal_exact.json": _triangle_weights(UNBALANCED, True),
    "unbal_float.json": _triangle_weights(UNBALANCED, False),
    "c50_exact.json": _cycle_weights(50, True),
    "c50_float.json": _cycle_weights(50, False),
    "c50_unbal_exact.json": _cycle_weights(50, True, perturb=True),
    "c50_unbal_float.json": _cycle_weights(50, False, perturb=True),
    "c20_float.json": _cycle_weights(20, False),
    "explicit.json": {"type": "explicit", "edges": [[1, 2], [3, 2], [1, 3], [2, 1]]},
    "periodic.json": {"type": "periodic", "period": [[1, 2], [2, 3], [1, 3]], "repetitions": 400},
    "random.json": {"type": "random", "steps": 5000, "seed": 11},
    "periodic20.json": {"type": "periodic", "period": CYCLE20, "repetitions": 200},
    "dup.json": _triangle_weights(BALANCED, False) + [{"edge": [2, 1], "a_ij": 0.3, "a_ji": 0.2}],
    "short.json": _triangle_weights(BALANCED, True)[:2],
    "range.json": [{"edge": [1, 2], "a_ij": 1.5, "a_ji": 0.3}] + _triangle_weights(BALANCED, False)[1:],
    # the path keeps zeros in its product to the end; the tree plus chords has full
    # support from step 251 and stops between two recorded steps (2186)
    "path100.json": {"n": 100, "edges": [[k, k + 1] for k in range(1, 100)]},
    "p100_float.json": _index_weights([(k, k + 1) for k in range(1, 100)], False),
    "tree40.json": {"n": 40, "edges": [list(e) for e in TREE40]},
    "t40_float.json": _index_weights(TREE40, False),
    "periodic_t40.json": {"type": "periodic", "repetitions": 69,
                          "period": [list(e) for e in sorted(
                              TREE40, key=lambda e: (7 * e[0] + 3 * e[1]) % 11)]},
    # the 20-cycle's edges in order: 1000 edges end at the last densely recorded step;
    # 1101 end one edge past a sparse checkpoint, on an edge that takes the seminorm
    # below every earlier one (0.02749, against 0.02783 at step 1100)
    "e1000.json": {"type": "explicit", "edges": CYCLE20 * 50},
    "e1101.json": {"type": "explicit", "edges": CYCLE20 * 55 + [[4, 5]]},
    "ring8.json": {"n": 8, "edges": [list(e) for e in RING8]},
    "r8_float.json": _index_weights(RING8, False),
}
RAW_INPUTS = {"broken.json": '{"n": 3,\n "edges": [[1, 2],]}'}

#: (argv, files the command writes)
COMMANDS = [
    (["check", "tri.json", "bal_exact.json"], []),
    (["check", "tri.json", "bal_float.json"], []),
    (["check", "tri.json", "unbal_exact.json"], []),
    (["check", "tri.json", "unbal_float.json"], []),
    (["limit", "tri.json", "bal_exact.json"], []),
    (["limit", "tri.json", "bal_float.json"], []),
    (["limit", "tri.json", "bal_float.json", "--base", "3"], []),
    (["limit", "tri.json", "unbal_exact.json"], []),
    (["witness", "tri.json", "bal_exact.json"], []),
    (["witness", "tri.json", "unbal_exact.json"], []),
    (["witness", "tri.json", "unbal_float.json"], []),
    (["check", "cyc50.json", "c50_exact.json"], []),
    (["check", "cyc50.json", "c50_unbal_float.json"], []),
    (["limit", "cyc50.json", "c50_exact.json"], []),
    (["limit", "cyc50.json", "c50_float.json"], []),
    (["limit", "cyc50.json", "c50_float.json", "--base", "25"], []),
    (["limit", "cyc50.json", "c50_unbal_float.json"], []),
    (["witness", "cyc50.json", "c50_unbal_exact.json"], []),
    (["witness", "cyc50.json", "c50_unbal_float.json"], []),
    (["design", "tri.json", "--target", "1/2,1/3,1/6", "--x", "3/10,3/5,1/2"], []),
    (["design", "tri.json", "--target", "0.5 0.3 0.2", "--seed", "4", "-o", "d.json"],
     ["d.json"]),
    (["design", "path4.json", "--target", "0.1,0.2,0.3,0.4", "--x", "0.5,0.25,0.75"], []),
    (["simulate", "tri.json", "bal_float.json", "--schedule", "explicit.json"], []),
    (["simulate", "tri.json", "bal_float.json", "--schedule", "periodic.json",
      "--trace", "p.tsv", "--report", "p.json"], ["p.tsv", "p.json"]),
    (["simulate", "tri.json", "bal_exact.json", "--random-steps", "5000", "--seed", "7",
      "--trace", "r.tsv", "--report", "r.json"], ["r.tsv", "r.json"]),
    (["simulate", "tri.json", "bal_float.json", "--schedule", "random.json", "--tol", "1e-6"],
     []),
    (["simulate", "tri.json", "unbal_float.json", "--schedule", "periodic.json"], []),
    (["check", "tri.json", "missing.json"], []),
    (["check", "broken.json", "bal_float.json"], []),
    (["limit", "tri.json", "dup.json"], []),
    (["limit", "tri.json", "short.json"], []),
    (["check", "tri.json", "range.json"], []),
    (["simulate", "tri.json", "bal_float.json", "--random-steps", "100"], []),
    (["design", "tri.json", "--target", "1/2,1/2", "--seed", "1"], []),
    # both stop past the dense trace zone, between two recorded steps (6153 and 3464)
    (["simulate", "cyc20.json", "c20_float.json", "--random-steps", "200000", "--seed", "0",
      "--tol", "1e-4"], []),
    (["simulate", "cyc20.json", "c20_float.json", "--schedule", "periodic20.json",
      "--tol", "1e-4", "--trace", "p20.tsv", "--report", "p20.json"], ["p20.tsv", "p20.json"]),
    (["simulate", "path100.json", "p100_float.json", "--random-steps", "2500", "--seed", "5",
      "--trace", "q100.tsv", "--report", "q100.json"], ["q100.tsv", "q100.json"]),
    (["simulate", "tree40.json", "t40_float.json", "--schedule", "periodic_t40.json",
      "--tol", "0.15", "--trace", "t40.tsv", "--report", "t40.json"], ["t40.tsv", "t40.json"]),
    (["simulate", "cyc20.json", "c20_float.json", "--schedule", "e1000.json",
      "--trace", "x1000.tsv", "--report", "x1000.json"], ["x1000.tsv", "x1000.json"]),
    (["simulate", "cyc20.json", "c20_float.json", "--schedule", "e1101.json", "--tol", "0.0276",
      "--trace", "x1101.tsv", "--report", "x1101.json"], ["x1101.tsv", "x1101.json"]),
    # a quotient past float64 makes every ratio exact; exact box parameters then give
    # Fraction weights, float ones float weights
    (["design", "tri.json", "--target", "5e-324,0.5,0.5", "--x", "0.5,0.5,0.5"], []),
    (["design", "tri.json", "--target", "5e-324,0.5,0.5", "--x", "1/2,1/3,1/4"], []),
    (["design", "tri.json", "--target", "0.5,5e-324,0.5", "--x", "0.5,0.25,0.5"], []),
    (["design", "tri.json", "--target", "5e-324,0.5,0.5", "--x", "0.2,0.2,0.2"], []),
    (["design", "tri.json", "--target", "5e-324,0.5,0.5", "--x", "0.5,0.5"], []),
    (["design", "tri.json", "--target", "5e-324,0.5,0.5", "--x", "0.5,1.5,0.5"], []),
    (["design", "tri.json", "--target", "5e-324,0.5,0.5", "--x", "0.5,nan,0.5"], []),
    (["design", "tri.json", "--target", "1/2,1/3,1/6", "--seed", "3"], []),
    # untraced runs that stop before the end of the dense trace zone (steps 19 and 765,
    # neither a multiple of 100), and the 20-cycle's stop one edge past step 1100
    (["simulate", "tri.json", "bal_float.json", "--random-steps", "5000", "--seed", "3",
      "--tol", "1e-3"], []),
    (["simulate", "ring8.json", "r8_float.json", "--random-steps", "150000", "--seed", "3",
      "--report", "r8.json"], ["r8.json"]),
    (["simulate", "cyc20.json", "c20_float.json", "--schedule", "e1101.json", "--tol", "0.0276"],
     []),
]


def _run(argv, written) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {
        "argv": argv,
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "files": {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
                  for name in written},
    }


def _outputs(directory: Path) -> list:
    for name, doc in INPUTS.items():
        (directory / name).write_text(json.dumps(doc))
    for name, text in RAW_INPUTS.items():
        (directory / name).write_text(text)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        return [_run(argv, written) for argv, written in COMMANDS]
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return _outputs(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def expected():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(recorded) == len(COMMANDS)
    return recorded


@pytest.mark.parametrize("k", range(len(COMMANDS)))
def test_cli_output_matches_golden(outputs, expected, k):
    assert outputs[k] == expected[k]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        text = json.dumps(_outputs(Path(tmp)), indent=1, ensure_ascii=False) + "\n"
        GOLDEN.write_text(text, encoding="utf-8")

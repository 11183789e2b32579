"""Self-tests of the benchmark: generator determinism, oracle rejections and
the round plan of the worker.

    python3 -m pytest -q perfbench
"""

import json
import os
from fractions import Fraction

import pytest

import gen
import oracle
import worker


def _files(d):
    return {name: open(os.path.join(d, name), "rb").read() for name in sorted(os.listdir(d))}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_files(tmp_path, workload):
    gen.generate(workload, 7, str(tmp_path / "a"))
    gen.generate(workload, 7, str(tmp_path / "b"))
    gen.generate(workload, 8, str(tmp_path / "c"))
    a, b, c = (_files(str(tmp_path / k)) for k in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c


def _command(manifest, check, **match):
    return next(c for c in manifest["commands"]
                if c["check"] == check and all(c.get(k) == v for k, v in match.items()))


@pytest.fixture(scope="module")
def closed_form(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("cf"))
    return d, gen.generate("closed-form", 3, d)


@pytest.mark.parametrize("kind", ["float", "exact"])
def test_oracle_rejects_wrong_limit(closed_form, kind):
    d, m = closed_form
    cmd = _command(m, "limit", kind=kind, balanced=True, n=50)
    right = " ".join(cmd["target"]) + "\n"
    assert oracle.check(cmd, 0, right, "", d) is None
    entries = [oracle.parse_scalar(t) for t in cmd["target"]]
    entries[0] += Fraction(1, 10**9) if kind == "exact" else 1e-9
    wrong = " ".join(gen.scalar_text(v) for v in entries) + "\n"
    assert oracle.check(cmd, 0, wrong, "", d) is not None
    assert oracle.check(cmd, 1, right, "", d) is not None  # wrong exit code


def test_oracle_rejects_wrong_design(closed_form):
    d, m = closed_form
    cmd = _command(m, "design", kind="exact", n=50, family="cycle")
    p = [oracle.parse_scalar(t) for t in cmd["target"]]
    edges = [tuple(e) for e in json.load(open(os.path.join(d, cmd["argv"][1])))["edges"]]
    pairs = gen.designed(edges, p, [Fraction(1, 2)] * len(edges))
    gen.write_weights(d, cmd["output"], pairs)
    assert oracle.check(cmd, 0, "", "", d) is None
    a, b = pairs[edges[0]]
    pairs[edges[0]] = (a * Fraction(9, 10), b)
    gen.write_weights(d, cmd["output"], pairs)
    assert "a_ij/a_ji" in oracle.check(cmd, 0, "", "", d)


def test_oracle_rejects_wrong_check_and_witness(closed_form):
    d, m = closed_form
    check = _command(m, "check", balanced=False)
    assert oracle.check(check, 1, "holonomic: false\n", "", d) is None
    assert oracle.check(check, 0, "holonomic: true\n", "", d) is not None
    assert oracle.check(check, 1, "", "Traceback (most recent call last):\n", d) is not None
    witness = _command(m, "witness", balanced=False, family="cycle")
    n = witness["n"]
    tree = " ".join(f"({i},{i + 1})" for i in range(1, n))  # the cycle minus (1,n)
    uniform = " ".join([f"1/{n}"] * n)
    skewed = " ".join([f"2/{n + 1}"] + [f"1/{n + 1}"] * (n - 1))

    def output(v2):
        return (f"tree 1 (cycle path edges): {tree}\nvector 1: {uniform}\n"
                f"tree 2 (cycle chord edge): {tree}\nvector 2: {v2}\n")

    assert oracle.check(witness, 0, output(skewed), "", d) is None
    assert "not distinct" in oracle.check(witness, 0, output(uniform), "", d)


def test_oracle_rejects_simulate_off_target(tmp_path):
    d = str(tmp_path)
    m = gen.generate("sim-small", 3, d)
    cmd = m["commands"][0]
    p = [float(oracle.parse_scalar(t)) for t in cmd["target"]]
    out = ("p_hat: " + " ".join(repr(v) for v in p) + "\nsteps: 400\n"
           "converged: true (seminorm 9.000e-11, tol 1.000e-10)\n")
    assert oracle.check(cmd, 0, out, "", d) is None
    p[0] += 1e-6
    off = "p_hat: " + " ".join(repr(v) for v in p) + out[out.index("\n"):]
    assert "off target" in oracle.check(cmd, 0, off, "", d)


def test_round_plan_spreads_heavy_commands(closed_form):
    _, m = closed_form
    heavy = [c["id"] for c in m["commands"] if c.get("heavy")]
    assert len(heavy) == 2  # the balanced float limits on the 2000-node path and cycle
    plan = worker.round_plan(m["commands"], m["heavy_every"])
    assert len(plan) == m["heavy_every"]
    rounds_of = {cid: [r for r, todo in enumerate(plan) if cid in {c["id"] for c in todo}]
                 for cid in range(len(m["commands"]))}
    assert [len(rounds_of[cid]) for cid in heavy] == [1, 1]
    assert rounds_of[heavy[0]] != rounds_of[heavy[1]]
    assert all(len(r) == len(plan) for cid, r in rounds_of.items() if cid not in heavy)
    assert worker.round_plan(m["commands"], 1) == [m["commands"]]

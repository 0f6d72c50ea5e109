"""The output checks pass on the program's outputs and fail on corrupted ones.

Run with ``python3 -m pytest dgbench``.  The workloads are built here at
small sizes; the corruptions are the ones a wrong program would produce:
a dimension off by one, a datum with two positions swapped, a dropped
point, a wrong word.
"""

from __future__ import annotations

import importlib
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from run import MODULES  # noqa: E402
from speed import REF_S, at_reference_speed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Desing, SweepGF, VerifyQ, WeakOrder  # noqa: E402

PROG = SimpleNamespace(**{
    m: importlib.import_module("dgorbits." + m) for m in MODULES
})


def outputs_of(workload, seed=0):
    inputs = workload.setup(PROG, random.Random(seed))
    return inputs, [workload.op(PROG, inp) for inp in inputs]


def swap_two(datum):
    """Exchange an alpha position with a position outside alpha."""
    alpha, beta, pairs = datum
    outside = next(x for x in range(1, 10) if x not in alpha)
    alpha = tuple(sorted(alpha[1:] + (outside,)))
    return alpha, beta, pairs


def edit_json(text, change):
    obj = json.loads(text)
    change(obj)
    return json.dumps(obj)


# ---------------------------------------------------------------------------
# the independent computations


def test_gaussian_binomials():
    assert checks.gaussian_binomial(4, 2) == [1, 1, 2, 1, 1]
    assert checks.gaussian_binomial(5, 0) == [1]
    assert checks.orbit_point_count(3, 1) == [0, 0, -1, 1]


@pytest.mark.parametrize("nkl", [(2, 1, 1), (4, 2, 2), (5, 2, 3), (6, 3, 2)])
def test_orbit_data_match_the_definition(nkl):
    mine = checks.orbit_data(*nkl)
    assert all(checks.is_datum(*nkl, d) for d in mine)
    program = PROG.poset.enumerate_orbits(*nkl)
    assert sorted(mine) == [(d.alpha, d.beta, d.pairs) for d in program]


# ---------------------------------------------------------------------------
# weak_order


WEAK = WeakOrder(triples=((4, 2, 2), (5, 2, 3)))


@pytest.fixture(scope="module")
def weak_outputs():
    return outputs_of(WEAK)


def weak_problems(inputs, outputs):
    return WEAK.check(PROG, inputs, outputs)


def test_weak_order_passes(weak_outputs):
    assert weak_problems(*weak_outputs) == []


def corrupt_graph(outputs, change):
    (text, table), *rest = outputs
    return [(edit_json(text, change), table)] + rest


def _drop_last_node(obj):
    last = obj["nodes"].pop()["id"]
    obj["edges"] = [e for e in obj["edges"]
                    if last not in (e["source"], e["target"])]


def _swap_in_node(obj):
    node = obj["nodes"][len(obj["nodes"]) // 2]["datum"]
    node["alpha"] = list(swap_two((tuple(node["alpha"]), (), ()))[0])


@pytest.mark.parametrize("change", [
    lambda obj: obj["nodes"][3].update(dim=obj["nodes"][3]["dim"] + 1),
    _drop_last_node,
    _swap_in_node,
    lambda obj: obj["edges"][0].update(
        kind="PLAIN" if obj["edges"][0]["kind"] != "PLAIN" else "RANK_RAISING"
    ),
    lambda obj: obj["edges"].pop(),
], ids=["dim_off_by_one", "dropped_node", "swapped_positions", "edge_kind",
        "dropped_edge"])
def test_weak_order_catches_corrupted_graph(weak_outputs, change):
    inputs, outputs = weak_outputs
    assert weak_problems(inputs, corrupt_graph(outputs, change))


def test_weak_order_catches_wrong_word(weak_outputs):
    inputs, outputs = weak_outputs
    text, table = outputs[0]
    vid = max(table, key=lambda v: len(table[v][0]))
    word, mid = table[vid]
    bad = dict(table)
    bad[vid] = (word[:-1] + (word[-1] % (inputs[0][0] - 1) + 1,), mid)
    assert weak_problems(inputs, [(text, bad)] + outputs[1:])


# ---------------------------------------------------------------------------
# desing


DESING = Desing(triple=(5, 2, 2), per_cell=1)


@pytest.fixture(scope="module")
def desing_outputs():
    return outputs_of(DESING)


def test_desing_passes(desing_outputs):
    assert DESING.check(PROG, *desing_outputs) == []


def _longest(inputs, outputs):
    return max(range(len(outputs)),
               key=lambda i: len(json.loads(outputs[i])["word"]))


@pytest.mark.parametrize("change", [
    lambda obj: obj["word"].__setitem__(-1, obj["word"][-1] % 4 + 1),
    lambda obj: obj["word"].pop(),
    lambda obj: obj["minimal"]["derived"].update(
        dim=obj["minimal"]["derived"]["dim"] + 1),
    lambda obj: obj["bsFirst"].append(1),
    lambda obj: obj["bsSecond"].append(obj["bsSecond"][-1]),
    lambda obj: obj["target"].update(
        alpha=list(swap_two((tuple(obj["target"]["alpha"]), (), ()))[0])),
], ids=["wrong_letter", "short_word", "minimal_dim_off_by_one",
        "first_word_extra_letter", "second_word_not_reduced",
        "swapped_target"])
def test_desing_catches_corruption(desing_outputs, change):
    inputs, outputs = desing_outputs
    i = _longest(inputs, outputs)
    bad = list(outputs)
    bad[i] = edit_json(outputs[i], change)
    assert DESING.check(PROG, inputs, bad)


# ---------------------------------------------------------------------------
# sweep_gf


SWEEP = SweepGF(n=3, k=1, l=2, q=3)


@pytest.fixture(scope="module")
def sweep_outputs():
    return outputs_of(SWEEP)


def test_sweep_passes(sweep_outputs):
    inputs, outputs = sweep_outputs
    assert len(outputs) == 13 * 13
    assert SWEEP.check(PROG, inputs, outputs) == []


def test_sweep_catches_dropped_point(sweep_outputs):
    inputs, outputs = sweep_outputs
    assert SWEEP.check(PROG, inputs[1:], outputs[1:])


def test_sweep_catches_swapped_positions(sweep_outputs):
    inputs, outputs = sweep_outputs
    bad = list(outputs)
    d = bad[0]
    bad[0] = PROG.young.OrbitDatum(d.n, d.k, d.l, *swap_two(
        (d.alpha, d.beta, d.pairs)))
    assert SWEEP.check(PROG, inputs, bad)


def test_sweep_catches_misclassified_point(sweep_outputs):
    inputs, outputs = sweep_outputs
    bad = list(outputs)
    other = next(d for d in bad if d != bad[0])
    bad[0] = other
    assert SWEEP.check(PROG, inputs, bad)


# ---------------------------------------------------------------------------
# verify_q


VERIFY = VerifyQ(triple=(4, 2, 2), fraction=4)


@pytest.fixture(scope="module")
def verify_outputs():
    return outputs_of(VERIFY)


def test_verify_passes(verify_outputs):
    assert VERIFY.check(PROG, *verify_outputs) == []


@pytest.mark.parametrize("position", [0, 1, 2])
def test_verify_catches_dimension_off_by_one(verify_outputs, position):
    inputs, outputs = verify_outputs
    bad = list(outputs)
    record = list(bad[0])
    record[position] += 1
    bad[0] = tuple(record)
    assert VERIFY.check(PROG, inputs, bad)


def test_verify_catches_swapped_classification(verify_outputs):
    inputs, outputs = verify_outputs
    bad = list(outputs)
    hook, system, oracle, d = bad[0]
    swapped = PROG.young.OrbitDatum(d.n, d.k, d.l, *swap_two(
        (d.alpha, d.beta, d.pairs)))
    bad[0] = (hook, system, oracle, swapped)
    assert VERIFY.check(PROG, inputs, bad)


# ---------------------------------------------------------------------------
# speed scaling, tracer and command


def test_scaling_uses_the_references_on_both_sides():
    # the machine at half, then full, then half reference speed
    refs = [2 * REF_S, REF_S, 2 * REF_S]
    scaled = at_reference_speed([3.0, 1.5, 4.0], refs, [0, 0, 1])
    assert scaled == pytest.approx([2.0, 1.0, 8 / 3])


def test_tracer_self_time_and_restore():
    module = SimpleNamespace()

    def leaf(x):
        return x + 1

    def outer(x):
        return module.leaf(module.leaf(x))

    module.__dict__.update(leaf=leaf, outer=outer)
    tracer = Tracer([(module, "outer", "outer", None),
                     (module, "leaf", "leaf", lambda r: r)])
    tracer.install()
    assert module.outer(1) == 3
    tracer.uninstall()
    assert module.leaf is leaf and module.outer is outer
    calls, self_s, total_s, counted = tracer.layer("leaf")
    assert (calls, counted) == (2, 2 + 3)
    outer_calls, outer_self, outer_total, _ = tracer.layer("outer")
    assert outer_calls == 1
    assert outer_self == pytest.approx(outer_total - total_s)
    ids = {s[0]: s for s in tracer.spans}
    assert [ids[s[1]][2] for s in tracer.spans if s[2] == "leaf"] == [
        "outer", "outer"]


def test_run_prints_one_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "verify_q",
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["linalg.rref.calls"]["value"] > 0
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "dgbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "dgbench/run.py", "--workload", "sweep_gf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

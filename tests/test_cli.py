"""CLI subcommands, serialization formats, and the verify harness."""

import io
import json
import random
import time

import pytest

from dgorbits import verify, young
from dgorbits.canonical import canonical_point
from dgorbits.cli import main
from dgorbits.linalg import Field, QQ
from dgorbits.poset import DESING_BUDGET, MINIMAL_BUDGET, build_graph
from dgorbits.serialize import (
    datum_from_json,
    datum_to_json,
    format_matrix_text,
    graph_to_dot,
    graph_to_json,
    parse_matrix_text,
)
from dgorbits.verify import check_dimension_agreement, run_suites
from dgorbits.young import MAX_N, OrbitDatum


DATUM9 = OrbitDatum.make(9, 4, 3, (3, 5, 6, 9), (2, 5), [(7, 9)])
OPEN2 = OrbitDatum.make(2, 1, 1, (2,), (), [(1, 2)])

MATRIX2 = "field Q\n2 1 1\n0 1\n\n1 1\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# serialization units


def test_datum_json_round_trip():
    obj = datum_to_json(DATUM9, derived=True)
    assert obj["sigma_pairs"] == [[7, 9]]
    assert obj["derived"] == {"dim": 20, "rank": 1, "stratum": 1}
    assert datum_from_json(json.loads(json.dumps(obj))) == DATUM9


def test_datum_json_rejects_bad_derived():
    obj = datum_to_json(DATUM9, derived=True)
    obj["derived"]["dim"] = 19
    with pytest.raises(ValueError, match="does not match recomputation"):
        datum_from_json(obj)


def test_datum_json_rejects_invalid():
    with pytest.raises(ValueError, match="invalid orbit datum"):
        datum_from_json(
            {"n": 2, "k": 1, "l": 1, "alpha": [1], "beta": [],
             "sigma_pairs": [[1, 1]]}
        )
    with pytest.raises(ValueError, match="malformed"):
        datum_from_json({"n": 2})


@pytest.mark.parametrize("key, value", [
    ("n", 2.9),
    ("k", True),
    ("alpha", ["2"]),
    ("sigma_pairs", [[1.0, 2]]),
    ("derived", {"dim": 2.0, "rank": 1, "stratum": 0}),
], ids=["float", "bool", "string", "float_pair", "float_derived"])
def test_datum_json_rejects_non_integers(key, value):
    obj = datum_to_json(OPEN2)
    obj[key] = value
    with pytest.raises(ValueError, match="must be an integer"):
        datum_from_json(obj)


def test_matrix_text_round_trip():
    for field in (QQ, Field(5)):
        U, W = canonical_point(DATUM9, field)
        U2, W2 = parse_matrix_text(format_matrix_text(U, W))
        for old, new in ((U, U2), (W, W2)):
            assert (new.field, new.n, new.columns) == (
                old.field, old.n, old.columns
            )


def test_matrix_text_parse_errors():
    with pytest.raises(ValueError, match="field line"):
        parse_matrix_text("2 1 1\n0 1\n\n1 1\n")
    with pytest.raises(ValueError, match="bad field"):
        parse_matrix_text("field 6\n2 1 1\n0 1\n\n1 1\n")
    with pytest.raises(ValueError, match="expected 2 x 1"):
        parse_matrix_text("field Q\n2 1 1\n0 1 1\n\n1 1\n")
    for token in ("x", "1e3", "0.5", "1_000"):
        with pytest.raises(ValueError, match=f"bad matrix entry '{token}'"):
            parse_matrix_text(f"field Q\n2 1 1\n0 {token}\n\n1 1\n")
    for token in ("1_3", "\u0661\u0663"):
        with pytest.raises(ValueError, match=f"bad field '{token}'"):
            parse_matrix_text(f"field {token}\n2 1 1\n0 1\n\n1 1\n")
    for size, token in (("\u0662 1 1", "\u0662"), ("2 1 1_0", "1_0")):
        with pytest.raises(ValueError, match=f"bad size '{token}'"):
            parse_matrix_text(f"field Q\n{size}\n0 1\n\n1 1\n")
    with pytest.raises(ValueError, match="two blank-line-separated"):
        parse_matrix_text("field Q\n2 1 1\n0 1 1 1\n")


def test_graph_dot_output():
    graph = build_graph(2, 1, 1)
    dot = graph_to_dot(graph)
    assert dot.startswith("digraph")
    assert dot.count("->") == len(graph.edges) == 3
    assert dot.count("label=") == len(graph.vertices) + len(graph.edges)
    assert dot.rstrip().endswith("}")


# ---------------------------------------------------------------------------
# subcommands


def test_cli_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "2", "--k", "1",
                           "--l", "1")
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert len(records) == 5
    assert all(datum_from_json(r).n == 2 for r in records)


def test_cli_enumerate_stratum_filter(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "2", "--k", "1",
                           "--l", "1", "--d", "1")
    assert code == 0
    assert len(out.splitlines()) == 2


@pytest.mark.parametrize("command", ["enumerate", "minimal"])
@pytest.mark.parametrize("d", ["7", "-1"])
def test_cli_refuses_stratum_out_of_bounds(capsys, command, d):
    code, out, err = run_cli(capsys, command, "--n", "4", "--k", "2",
                             "--l", "2", "--d", d)
    assert (code, out) == (2, "")
    assert f"stratum d={d} out of bounds for (n,k,l)=(4,2,2)" in err


@pytest.mark.parametrize("command", ["enumerate", "graph", "minimal",
                                     "verify"])
def test_cli_bad_bounds(capsys, command):
    code, out, err = run_cli(capsys, command, "--n", "2", "--k", "3",
                             "--l", "1")
    assert (code, out) == (2, "")
    assert "0 < k < n" in err


@pytest.mark.parametrize("command", ["dim", "desing"])
@pytest.mark.parametrize("n", [MAX_N + 1, 10**18], ids=["MAX_N+1", "1e18"])
def test_cli_refuses_n_over_limit(monkeypatch, capsys, command, n):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
        {"n": n, "k": 1, "l": 1, "alpha": [1], "beta": [1]}
    )))
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, command)
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert f"n={n} is over the limit MAX_N={MAX_N}" in err


@pytest.mark.parametrize("field, name", [
    ("Q", "CANONICAL_MAX_N_Q"),
    ("1009", "CANONICAL_MAX_N_GF"),
])
def test_cli_canonical_refuses_n_over_field_limit(tmp_path, capsys, field,
                                                  name):
    # a whole dense pair one size over the field's bound, refused before
    # any entry is read
    limit = getattr(young, name)
    n = limit + 1
    k = l = n // 2
    rng = random.Random(n)
    blocks = [
        "\n".join(
            " ".join(str(rng.randint(-9, 9)) for _ in range(n))
            for _ in range(dim)
        )
        for dim in (k, l)
    ]
    path = tmp_path / "pair.txt"
    path.write_text(f"field {field}\n{n} {k} {l}\n" + "\n\n".join(blocks)
                    + "\n")
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "canonical", str(path))
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert f"n={n} is over the limit {name}={limit}" in err


def test_cli_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--n", "2"])
    capsys.readouterr()
    assert exc.value.code == 2


def test_cli_canonical(tmp_path, capsys):
    path = tmp_path / "pair.txt"
    path.write_text(MATRIX2)
    code, out, _ = run_cli(capsys, "canonical", str(path))
    assert code == 0
    obj = json.loads(out)
    assert datum_from_json(obj) == OPEN2
    assert obj["derived"]["dim"] == 2


def test_cli_canonical_reference_point(tmp_path, capsys):
    U, W = canonical_point(DATUM9)
    path = tmp_path / "pair9.txt"
    path.write_text(format_matrix_text(U, W))
    code, out, _ = run_cli(capsys, "canonical", str(path))
    assert code == 0
    obj = json.loads(out)
    assert datum_from_json(obj) == DATUM9
    assert obj["derived"]["dim"] == 20


def test_cli_canonical_dependent_columns(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("field Q\n3 2 1\n1 0 0 2 0 0\n\n0 1 0\n")
    code, _, err = run_cli(capsys, "canonical", str(path))
    assert code == 2
    assert "column 2" in err


def test_cli_canonical_denominator_divisible_by_p(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("field 7\n2 1 1\n1/7 1\n\n0 1\n")
    code, out, err = run_cli(capsys, "canonical", str(path))
    assert (code, out) == (2, "")
    assert "1/7" in err


@pytest.mark.parametrize("header, token", [
    ("field 1_3\n2 1 1", "1_3"),
    ("field Q\n\u0662 1 1", "\u0662"),
])
def test_cli_canonical_rejects_non_ascii_header(tmp_path, capsys, header,
                                                token):
    path = tmp_path / "bad.txt"
    path.write_text(header + "\n0 1\n\n1 1\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "canonical", str(path))
    assert (code, out) == (2, "")
    assert repr(token) in err


def test_cli_dim_stdin(monkeypatch, capsys):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO(json.dumps(datum_to_json(DATUM9)))
    )
    code, out, _ = run_cli(capsys, "dim")
    assert code == 0
    assert json.loads(out) == {"dim": 20, "rank": 1, "stratum": 1}


def test_cli_dim_rejects_non_integers(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(
        '{"n": 2.9, "k": true, "l": 1, "alpha": ["2"], "beta": [1], '
        '"sigma_pairs": []}'
    ))
    code, out, err = run_cli(capsys, "dim")
    assert (code, out) == (2, "")
    assert "n must be an integer, got 2.9" in err


def test_cli_graph_dot(capsys):
    code, out, _ = run_cli(capsys, "graph", "--n", "2", "--k", "1",
                           "--l", "1", "--format", "dot")
    assert code == 0
    assert out.count("->") == 3


def test_cli_graph_json(capsys):
    code, out, _ = run_cli(capsys, "graph", "--n", "3", "--k", "1",
                           "--l", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == graph_to_json(build_graph(3, 1, 1))


def test_cli_minimal(capsys):
    code, out, _ = run_cli(capsys, "minimal", "--n", "9", "--k", "4",
                           "--l", "3")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [(r["d"], r["count"], r["orbit_dim"]) for r in rows] == [
        (0, 35, 12), (1, 10, 6), (2, 3, 2), (3, 1, 0)
    ]


def test_cli_desing_stdin(monkeypatch, capsys):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO(json.dumps(datum_to_json(OPEN2)))
    )
    code, out, _ = run_cli(capsys, "desing")
    assert code == 0
    obj = json.loads(out)
    assert obj["word"] == [1]
    assert obj["bsFirst"] == []
    assert obj["bsSecond"] == [1]


MISSPELLED = ('{"n":4,"k":2,"l":2,"alpha":[3,4],"beta":[1,2],'
              '"sigma_pair":[[1,3]]}')
EXTRA_DERIVED = json.dumps({
    **datum_to_json(OPEN2, derived=True),
    "derived": {"dim": 2, "rank": 1, "stratum": 0, "codim": 1},
})


@pytest.mark.parametrize("command", ["dim", "desing"])
@pytest.mark.parametrize("text, key", [
    (MISSPELLED, "sigma_pair"),
    (EXTRA_DERIVED, "codim"),
], ids=["datum_key", "derived_key"])
def test_cli_refuses_unknown_keys(monkeypatch, capsys, command, text, key):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, command)
    assert (code, out) == (2, "")
    assert f"unknown key {key!r}" in err


def test_cli_desing_invalid_datum(monkeypatch, capsys):
    monkeypatch.setattr(
        "sys.stdin",
        io.StringIO('{"n":2,"k":1,"l":1,"alpha":[1],"beta":[],'
                    '"sigma_pairs":[[1,1]]}'),
    )
    code, _, err = run_cli(capsys, "desing")
    assert code == 2
    assert "invalid orbit datum" in err


def test_cli_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "3", "--k", "2",
                           "--l", "1")
    assert code == 0
    suites = [json.loads(line) for line in out.splitlines()]
    assert all(s["passed"] for s in suites)
    names = {s["suite"] for s in suites}
    assert "dimension_agreement" in names
    assert "field_sweep_q2" in names


def test_cli_verify_prints_each_suite_as_it_finishes(monkeypatch, capsys):
    def broken(n, k, l):
        raise RuntimeError("the round trip suite broke")

    monkeypatch.setattr(verify, "check_roundtrip", broken)
    with pytest.raises(RuntimeError, match="round trip suite broke"):
        main(["verify", "--n", "3", "--k", "2", "--l", "1"])
    out = capsys.readouterr().out
    assert [json.loads(line)["suite"] for line in out.splitlines()] == [
        "dimension_agreement", "minimal_orbits", "desing_replay",
        "b_invariance",
    ]


def test_cli_verify_refuses_absurd_sweep(capsys):
    code, out, err = run_cli(capsys, "verify", "--n", "6", "--k", "3",
                             "--l", "3")
    assert (code, out) == (2, "")
    assert "1,149,800,425 subspace pairs" in err


@pytest.mark.parametrize("knob", [["--trials", "5"], ["--prime", "13"]],
                         ids=["trials", "prime"])
def test_cli_verify_takes_only_the_triple(capsys, knob):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "2", "--k", "1", "--l", "1", *knob])
    assert (exc.value.code, capsys.readouterr().out) == (2, "")


def test_verify_checks_dimensions_at_n7():
    # every admitted triple runs the stabilizer-oracle suite first
    record = next(run_suites(7, 1, 1))
    assert (record["suite"], record["passed"]) == ("dimension_agreement", True)
    assert record["checked"] == 70


def test_cli_minimal_refuses_over_budget(capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "minimal", "--n", "40", "--k", "20",
                             "--l", "20")
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert f"over the budget MINIMAL_BUDGET={MINIMAL_BUDGET:,}" in err


def test_cli_desing_refuses_over_budget(monkeypatch, capsys):
    # the open (100,2,2) orbit: its lower interval is a whole stratum
    open100 = OrbitDatum.make(100, 2, 2, (99, 100), (), [(97, 100), (98, 99)])
    monkeypatch.setattr(
        "sys.stdin", io.StringIO(json.dumps(datum_to_json(open100)))
    )
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "desing")
    assert time.perf_counter() - t0 < 5
    assert (code, out) == (2, "")
    assert f"DESING_BUDGET={DESING_BUDGET:,}" in err


@pytest.mark.parametrize("command", ["dim", "desing"])
def test_cli_rejects_deeply_nested_json(monkeypatch, capsys, command):
    monkeypatch.setattr("sys.stdin", io.StringIO("[" * 200_000))
    code, out, err = run_cli(capsys, command)
    assert (code, out) == (2, "")
    assert "nested too deeply" in err


# ---------------------------------------------------------------------------
# fault injection: a wrong hook direction must trip the dimension suite


def test_fault_injection_hook_direction(monkeypatch):
    import dgorbits.young as young

    def outward_hooks(cd):
        covered = set()
        for g, d in cd.dots:
            covered.update((v, d) for v in cd.v_steps if v <= g)
            covered.update((g, h) for h in cd.h_steps if h >= d)
        return frozenset(covered & cd.boxes)

    checked, failure = check_dimension_agreement(4, 2, 2)
    assert failure is None and checked > 0
    monkeypatch.setattr(young, "hook_union", outward_hooks)
    _, failure = check_dimension_agreement(4, 2, 2)
    assert failure is not None
    assert "dimension mismatch" in failure

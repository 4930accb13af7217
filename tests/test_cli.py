import argparse
import json
from fractions import Fraction

import pytest

from tightcycle.cli import CAMPAIGNS, build_parser, main
from tightcycle.hypergraph import complete_3graph, write_hypergraph


@pytest.fixture
def k5_file(tmp_path):
    path = tmp_path / "k5.3g"
    path.write_text(write_hypergraph(complete_3graph(5)))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info(capsys, k5_file):
    code, out, _ = run_cli(capsys, "info", k5_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 5
    assert payload["edges"] == 10
    assert payload["min_degree_1"] == 6
    assert payload["tightly_connected"] is True


def test_info_text_format(capsys, k5_file):
    code, out, _ = run_cli(capsys, "info", k5_file, "--format", "text")
    assert code == 0
    assert "min_degree_1: 6" in out


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.3g"
    bad.write_text("3 3\n1 2 3\n1 2 3\n")
    code, _, err = run_cli(capsys, "info", str(bad))
    assert code == 2
    assert "line 3" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "info", "/nonexistent/file.3g")
    assert code == 2 and "cannot read" in err


def test_extremal_pipe_to_cycle(capsys, tmp_path, monkeypatch):
    code, out, _ = run_cli(capsys, "extremal", "--n", "9", "--a", "2")
    assert code == 0
    assert out.startswith("# generator: extremal")
    path = tmp_path / "ext.3g"
    path.write_text(out)
    code, out2, _ = run_cli(capsys, "cycle", str(path))
    assert code == 0
    assert json.loads(out2)["length"] == 6


def test_cycle_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(write_hypergraph(complete_3graph(5))))
    code, out, _ = run_cli(capsys, "cycle", "-")
    assert code == 0
    assert json.loads(out)["length"] == 5


def test_link_and_match_roundtrip(capsys, k5_file, tmp_path):
    code, out, _ = run_cli(capsys, "link", k5_file, "1")
    assert code == 0
    g = tmp_path / "link.2g"
    g.write_text(out)
    code, out2, _ = run_cli(capsys, "match", str(g))
    assert code == 0
    assert json.loads(out2)["size"] == 2


def test_components_command(capsys, k5_file):
    code, out, _ = run_cli(capsys, "components", k5_file)
    assert code == 0
    assert json.loads(out)["component_count"] == 1


def test_fracmatch_command(capsys, tmp_path):
    path = tmp_path / "k9.3g"
    path.write_text(write_hypergraph(complete_3graph(9)))
    code, out, _ = run_cli(capsys, "fracmatch", str(path))
    assert code == 0
    assert json.loads(out)["matching"]["total_weight"] == "3"


def test_fracmatch_precondition_exit_2(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "extremal", "--n", "9", "--a", "2")
    path = tmp_path / "ext.3g"
    path.write_text(out)
    code, _, err = run_cli(capsys, "fracmatch", str(path))
    assert code == 2 and "min degree" in err


def test_graphmeet_command(capsys, tmp_path):
    from tightcycle.hypergraph import complete_graph, write_graph

    path = tmp_path / "k9.2g"
    path.write_text(write_graph(complete_graph(9)))
    code, out, _ = run_cli(capsys, "graphmeet", str(path), str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["all_true"] and payload["shared_edge"] == [1, 2]


def test_egcheck_command(capsys, tmp_path):
    from tightcycle.hypergraph import complete_graph, write_graph

    path = tmp_path / "k6.2g"
    path.write_text(write_graph(complete_graph(6)))
    code, out, _ = run_cli(capsys, "egcheck", str(path))
    assert code == 0
    assert json.loads(out)["matching_number"] == 3


@pytest.mark.parametrize("k,expected", [
    (None, [(1, 0, True, True), (2, 6, True, True), (3, 11, False, True), (4, 21, False, True)]),
    (0, [(1, 0, True, True), (2, 6, True, True), (3, 11, False, True), (4, 21, False, True)]),
    (2, [(2, 6, True, True)]),
    (4, [(4, 21, False, True)]),
])
def test_egcheck_rows(capsys, tmp_path, k, expected):
    path = tmp_path / "g7.2g"
    path.write_text("2 7\n1 2\n1 4\n1 7\n2 3\n2 5\n2 6\n4 5\n")
    code, out, _ = run_cli(capsys, "egcheck", str(path), *([] if k is None else ["--k", str(k)]))
    payload = json.loads(out)
    assert code == 0
    assert (payload["n"], payload["edges"], payload["matching_number"]) == (7, 7, 3)
    assert [(r["k"], r["threshold"], r["edges_above"], r["matching_ok"]) for r in payload["checks"]] == expected


def test_random_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("TCL_SEED", "123")
    code, out1, _ = run_cli(capsys, "random", "--n", "8", "--p", "0.5")
    monkeypatch.setenv("TCL_SEED", "123")
    code, out2, _ = run_cli(capsys, "random", "--n", "8", "--p", "0.5")
    assert out1 == out2 and "seed=123" in out1


@pytest.mark.parametrize("n", [0, 1, 2])
def test_random_min_degree_on_fewer_than_three_vertices_prints_an_empty_host(capsys, n):
    code, out, err = run_cli(capsys, "random", "--n", str(n), "--delta-target", "0", "--seed", "1")
    assert (code, err) == (0, "")
    assert out == f"# generator: random-min-degree delta=0 n={n} seed=1\n3 {n}\n"


def test_maxfrac_component_on_edgeless_host_says_it_has_no_components(capsys, tmp_path):
    path = tmp_path / "e.3g"
    path.write_text("3 4\n")
    _, _, err = run_cli(capsys, "maxfrac", str(path), "--component", "0")
    assert "no tight components" in err and "0..-1" not in err


def test_verify_graphmeet_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "graphmeet", "--n", "9",
                           "--trials", "25", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] and payload["trials"] == 25


def test_verify_reduced_degree(capsys):
    code, out, _ = run_cli(capsys, "verify", "reduced-degree", "--trials", "200", "--seed", "1")
    assert code == 0 and json.loads(out)["passed"]


def test_each_campaign_declares_exactly_the_options_it_reads():
    def choices(parser):
        return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices

    parsers = choices(choices(build_parser())["verify"])
    assert list(parsers) == list(CAMPAIGNS)
    for name, (reads, _) in CAMPAIGNS.items():
        options = [a for a in parsers[name]._actions if a.option_strings and a.dest != "help"]
        assert all(a.option_strings == [f"--{a.dest.replace('_', '-')}"] for a in options), name
        assert {a.dest: a.default for a in options} == {"format": "json", "seed": None, "jobs": 1,
                                                         **reads}, name


def _unread_options():
    every = dict.fromkeys(dest for reads, _ in CAMPAIGNS.values() for dest in reads)
    # -1 is out of range for every option: argparse refuses it before any range check
    return [pytest.param([name, f"--{dest.replace('_', '-')}", "-1"],
                         id=f"{name} --{dest.replace('_', '-')}")
            for name, (reads, _) in CAMPAIGNS.items() for dest in every if dest not in reads]


@pytest.mark.parametrize("argv", _unread_options() + [
    # after an option the campaign reads, with a valid value and with the default value
    pytest.param(["pipeline", "--n", "18", "--trials", "50"], id="argv1---trials"),
    pytest.param(["pipeline", "--n", "18", "--trials", "100"], id="argv2---trials"),
])
def test_verify_rejects_options_the_campaign_does_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["extremal-bound", "--max-n", "5", "--jobs", "-3"], "--jobs must be >= 1, got -3"),
    (["pipeline", "--n", "18", "--jobs", "0"], "--jobs must be >= 1, got 0"),
    (["cycle-oracle", "--trials", "-1"], "--trials must be >= 0, got -1"),
    (["graphmeet", "--n", "0", "--trials", "2"], "--n must be >= 1, got 0"),
    (["pipeline", "--n", "0"], "--n must be >= 1, got 0"),
    (["cycle-oracle", "--trials", "3", "--max-n", "10"], "cycle oracle needs 4 <= max_n <= 9, got 10"),
    (["erdos-gallai", "--trials", "3", "--exhaustive-n", "8"], "the exhaustive check covers 1 to 7 vertices, got 8"),
])
def test_verify_range_errors_name_the_option(capsys, argv, message):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_verify_accepts_seed_and_jobs_for_every_campaign(capsys):
    code, out, _ = run_cli(capsys, "verify", "extremal-bound", "--max-n", "5")
    code2, out2, _ = run_cli(capsys, "verify", "extremal-bound", "--max-n", "5",
                             "--seed", "3", "--jobs", "2")
    assert code == code2 == 0 and out == out2


def test_verify_cycle_oracle_runs_at_the_max_n_it_reports(capsys):
    code, out, _ = run_cli(capsys, "verify", "cycle-oracle", "--trials", "3", "--seed", "2")
    code2, out2, _ = run_cli(capsys, "verify", "cycle-oracle", "--trials", "3", "--seed", "2",
                             "--max-n", "9")
    assert code == code2 == 0 and out == out2
    assert json.loads(out)["stats"]["max_n"] == 9


def test_pipeline_command_canonical(capsys, tmp_path):
    path = tmp_path / "k12.3g"
    path.write_text(write_hypergraph(complete_3graph(12)))
    code, out1, _ = run_cli(capsys, "pipeline", str(path), "--t", "6",
                            "--seed", "3", "--canonical")
    code2, out2, _ = run_cli(capsys, "pipeline", str(path), "--t", "6",
                             "--seed", "3", "--canonical")
    assert code == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["ok"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pipeline_canonical_is_run_pipeline(capsys, tmp_path, seed):
    from fractions import Fraction

    from tightcycle.generators import random_3graph
    from tightcycle.pipeline import run_pipeline

    H = random_3graph(30, 0.8, 11)
    path = tmp_path / "h.3g"
    path.write_text(write_hypergraph(H))
    code, out, _ = run_cli(capsys, "pipeline", str(path), "--t", "6", "--seed", str(seed), "--canonical")
    report = run_pipeline(H, 6, Fraction(1, 20), 0.25, 40, seed)
    assert report.ok and code == 0
    assert out == report.canonical_json() + "\n"


def test_stage_options_agree_across_commands():
    """slice, reduce and pipeline read the same stage options; each option
    has one default and one help text wherever it is declared."""
    import argparse

    from tightcycle.cli import build_parser

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))

    def declared(command):
        return {a.option_strings[0]: (a.default, a.help)
                for a in sub.choices[command]._actions if a.option_strings}

    for option, commands in ((("--t", "--seed"), ("slice", "reduce", "pipeline")),
                             (("--d", "--eps", "--samples"), ("reduce", "pipeline"))):
        for name in option:
            assert len({declared(c)[name] for c in commands}) == 1, name


def test_pipeline_has_no_restarts_option(capsys, k5_file):
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", k5_file, "--restarts", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --restarts" in capsys.readouterr().err


def test_slice_and_reduce_commands(capsys, tmp_path):
    path = tmp_path / "k12.3g"
    path.write_text(write_hypergraph(complete_3graph(12)))
    code, out, _ = run_cli(capsys, "slice", str(path), "--t", "3", "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["t"] == 3 and payload["m"] == 4 and payload["deleted"] == []
    code, out, _ = run_cli(capsys, "reduce", str(path), "--t", "4", "--seed", "5")
    assert code == 0
    assert all(item["d"] == "1" for item in json.loads(out)["triples"])


@pytest.mark.parametrize("seed", ["1", "4"])
def test_reduce_prints_the_reduced_graph_of_the_pipeline(capsys, tmp_path, seed):
    from tightcycle.generators import random_3graph

    path = tmp_path / "h.3g"
    path.write_text(write_hypergraph(random_3graph(18, 0.5, 1)))
    code, out, _ = run_cli(capsys, "reduce", str(path), "--t", "6", "--seed", seed)
    assert code == 0
    triples = json.loads(out)["triples"]
    regular = sum(item["regular"] for item in triples)
    kept = sum(item["regular"] and Fraction(item["d"]) >= Fraction(1, 20) for item in triples)
    _, out, _ = run_cli(capsys, "pipeline", str(path), "--t", "6", "--seed", seed)
    stages = {stage["name"]: stage for stage in json.loads(out)["stages"]}
    assert stages["reduce"]["status"] == "ok"
    detail = stages["reduce"]["detail"]
    assert (regular, kept) == (detail["regular"], detail["thresholded_edges"])


def test_validate_command_verdict_exit(capsys, tmp_path):
    path = tmp_path / "k5.3g"
    path.write_text(write_hypergraph(complete_3graph(5)))
    code, out, _ = run_cli(capsys, "validate", str(path), "1,2,3,4,5")
    assert code == 0 and json.loads(out)["valid"]
    code, out, _ = run_cli(capsys, "validate", str(path), "1,2,3,1")
    assert code == 1 and not json.loads(out)["valid"]


BAD_INPUT_CASES = [
    # (id, argv with {file} for the host file, environment, host file bytes)
    ("validate-non-integer", ["validate", "{file}", "1 2 x"], {}, None),
    ("seed-env-non-integer", ["random", "--n", "5", "--p", "0.5"], {"TCL_SEED": "abc"}, None),
    ("file-not-utf8", ["info", "{file}"], {}, b"3 4\n1 2 3\n\xff\xfe\n"),
    ("threshold-not-a-number", ["reduce", "{file}", "--t", "3", "--d", "abc"], {}, None),
    ("threshold-zero-denominator", ["pipeline", "{file}", "--t", "3", "--d", "1/0"], {}, None),
    ("threshold-nan", ["reduce", "{file}", "--t", "3", "--d", "nan"], {}, None),
    ("threshold-inf", ["pipeline", "{file}", "--t", "3", "--d", "inf"], {}, None),
    ("eta-nan", ["extremal", "--n", "9", "--eta", "nan"], {}, None),
    ("eta-inf", ["extremal", "--n", "9", "--eta", "inf"], {}, None),
    ("verify-negative-trials", ["verify", "graphmeet", "--trials", "-5"], {}, None),
    ("verify-zero-jobs", ["verify", "reduced-degree", "--trials", "3", "--jobs", "0"], {}, None),
    ("verify-negative-jobs", ["verify", "farkas", "--trials", "3", "--jobs", "-2"], {}, None),
    ("verify-cycle-oracle-max-n", ["verify", "cycle-oracle", "--trials", "3", "--max-n", "3"], {}, None),
    ("verify-cycle-oracle-max-n-above", ["verify", "cycle-oracle", "--trials", "3", "--max-n", "10"], {}, None),
    ("verify-erdos-gallai-max-n", ["verify", "erdos-gallai", "--trials", "3", "--max-n", "1"], {}, None),
    ("verify-exhaustive-n", ["verify", "erdos-gallai", "--trials", "3", "--exhaustive-n", "8"], {}, None),
    ("verify-extremal-bound-max-n-above", ["verify", "extremal-bound", "--max-n", "23"], {}, None),
    ("verify-extremal-bound-max-n-two", ["verify", "extremal-bound", "--max-n", "2"], {}, None),
    ("verify-extremal-bound-max-n-negative", ["verify", "extremal-bound", "--max-n", "-5"], {}, None),
    ("verify-exhaustive-n-zero", ["verify", "erdos-gallai", "--trials", "3", "--exhaustive-n", "0"], {}, None),
    ("random-negative-delta-target", ["random", "--n", "5", "--delta-target", "-3"], {}, None),
    ("verify-extremal-bound-trials-jobs", ["verify", "extremal-bound", "--max-n", "5", "--jobs", "-3"], {}, None),
    ("verify-pipeline-zero-jobs", ["verify", "pipeline", "--n", "18", "--jobs", "0"], {}, None),
    ("verify-graphmeet-zero-n", ["verify", "graphmeet", "--n", "0", "--trials", "2"], {}, None),
    ("verify-pipeline-zero-n", ["verify", "pipeline", "--n", "0"], {}, None),
    ("pipeline-eps-negative", ["pipeline", "{file}", "--eps", "-0.5"], {}, None),
    ("pipeline-eps-above-one", ["pipeline", "{file}", "--eps", "1.5"], {}, None),
    ("pipeline-eps-nan", ["pipeline", "{file}", "--eps", "nan"], {}, None),
    ("pipeline-eps-not-a-number", ["pipeline", "{file}", "--eps", "abc"], {}, None),
    ("pipeline-zero-samples", ["pipeline", "{file}", "--samples", "0"], {}, None),
    ("pipeline-t-two", ["pipeline", "{file}", "--t", "2"], {}, None),
    ("reduce-d-negative", ["reduce", "{file}", "--t", "3", "--d", "-1"], {}, None),
    ("reduce-d-negative-rational", ["reduce", "{file}", "--t", "3", "--d", "-1/20"], {}, None),
    ("pipeline-eps-negative-rational", ["pipeline", "{file}", "--eps", "-1/2"], {}, None),
    ("pipeline-eps-negative-exponent", ["pipeline", "{file}", "--eps", "-1e-3"], {}, None),
    ("eta-negative-exponent", ["extremal", "--n", "9", "--eta", "-1e400"], {}, None),
    ("eta-gives-a-below-one", ["extremal", "--n", "9", "--eta", "0.9"], {}, None),
    ("eta-huge-exponent", ["extremal", "--n", "7", "--eta", "1e400"], {}, None),
    ("pipeline-d-above-one", ["pipeline", "{file}", "--t", "3", "--d", "2"], {}, None),
    ("egcheck-negative-k", ["egcheck", "{file}", "--k", "-3"], {}, b"2 4\n1 2\n3 4\n"),
    # n = 7 < 2k - 1: no threshold applies
    ("egcheck-k-above-range", ["egcheck", "{file}", "--k", "5"], {}, b"2 7\n1 2\n1 4\n1 7\n2 3\n2 5\n2 6\n4 5\n"),
    ("extremal-a-and-eta", ["extremal", "--n", "9", "--a", "2", "--eta", "0.5"], {}, None),
    ("extremal-neither-a-nor-eta", ["extremal", "--n", "9"], {}, None),
    ("maxfrac-component-edgeless", ["maxfrac", "{file}", "--component", "0"], {}, b"3 4\n"),
]


@pytest.mark.parametrize("argv,env,content", [c[1:] for c in BAD_INPUT_CASES],
                         ids=[c[0] for c in BAD_INPUT_CASES])
def test_bad_input_is_one_line_error_exit_2(capsys, tmp_path, monkeypatch, argv, env, content):
    path = tmp_path / "h.3g"
    path.write_bytes(content if content is not None else write_hypergraph(complete_3graph(6)).encode())
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, out, err = run_cli(capsys, *(a.format(file=path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_csv_rows_have_two_fields(capsys, tmp_path):
    import csv
    import io

    path = tmp_path / "k6.3g"
    path.write_text(write_hypergraph(complete_3graph(6)))
    code, out, _ = run_cli(capsys, "cycle", str(path), "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key", "value"]
    assert all(len(row) == 2 for row in rows)
    code, out, _ = run_cli(capsys, "cycle", str(path))
    assert json.loads(dict(rows)["order"]) == json.loads(out)["order"]


def test_internal_failure_exits_3(capsys, k5_file, monkeypatch):
    from tightcycle import cli
    from tightcycle.errors import InvariantViolation

    def broken(H):
        raise InvariantViolation("labeling lost an edge", witness=(1, 2, 3))

    monkeypatch.setattr(cli, "tight_components", broken)
    code, out, err = run_cli(capsys, "info", k5_file)
    assert code == 3
    assert out == ""
    assert err == "internal error: labeling lost an edge\n"


def test_decimal_and_rational_threshold_agree(capsys, tmp_path):
    import itertools
    import random

    from tightcycle.cli import _parse_exact
    from tightcycle.hypergraph import Hypergraph3
    from tightcycle.slices import build_reduced_graph, build_weak_slice

    # 50 of the 1000 crossing triples of a 30-vertex, t-3 slice: density
    # exactly 1/20, which the threshold 0.05 must keep just as 1/20 does.
    S = build_weak_slice(Hypergraph3(30, []), 3, 5)
    crossing = list(itertools.product(*S.clusters))
    H = Hypergraph3(30, random.Random(5).sample(crossing, 50))
    path = tmp_path / "h.3g"
    path.write_text(write_hypergraph(H))
    outs = []
    for d in ("0.05", "1/20", "5e-2"):
        code, out, _ = run_cli(capsys, "reduce", str(path), "--t", "3", "--seed", "5", "--d", d)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    report = json.loads(outs[0])
    assert report["d_threshold"] == "1/20"
    assert report["triples"] == [{"X": [0, 1, 2], "d": "1/20", "regular": True}]
    R = build_reduced_graph(H, S, _parse_exact("0.05", "--d"), 0.25, 40, 5)
    assert R.thresholded_edges() == [(0, 1, 2)]


@pytest.mark.parametrize("command", [["link", "{file}", "1"], ["extremal", "--n", "6", "--a", "2"],
                                     ["random", "--n", "6", "--p", "0.5"]])
def test_format_only_on_report_commands(capsys, k5_file, command):
    with pytest.raises(SystemExit) as exc:
        main([a.format(file=k5_file) for a in command] + ["--format", "text"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err


def test_pipeline_internal_failure_exits_3(capsys, tmp_path, monkeypatch):
    from tightcycle import pipeline
    from tightcycle.errors import InvariantViolation

    def broken(H):
        raise InvariantViolation("support left the component", witness=(1, 2, 3))

    monkeypatch.setattr(pipeline, "tight_perfect_fractional_matching", broken)
    path = tmp_path / "k12.3g"
    path.write_text(write_hypergraph(complete_3graph(12)))
    code, out, err = run_cli(capsys, "pipeline", str(path), "--t", "3", "--seed", "1")
    assert code == 3
    assert out == ""
    assert err == "internal error: stage reduced-matching: support left the component\n"


def test_eps_is_read_exactly(capsys, tmp_path):
    path = tmp_path / "k12.3g"
    path.write_text(write_hypergraph(complete_3graph(12)))
    outs = []
    for eps in ("1/4", "0.25"):
        code, out, _ = run_cli(capsys, "pipeline", str(path), "--t", "6", "--seed", "1",
                               "--eps", eps, "--canonical")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["parameters"]["eps"] == 0.25


def test_eta_is_read_exactly(capsys):
    # a = floor(((1 - eta) n - 1) / 3) = floor((22 - 1) / 3) = 7 at n 50, eta 0.56;
    # the float 0.56 lies just above 14/25 and gives 6
    for eta in ("0.56", "14/25"):
        code, out, _ = run_cli(capsys, "extremal", "--n", "50", "--eta", eta)
        assert code == 0
        assert out.splitlines()[0] == "# generator: extremal a=7 n=50"


@pytest.mark.parametrize("n,eta", [("9", "0.9"), ("7", "1e400"), ("9", "-1e400")])
def test_eta_out_of_range_names_eta_not_a(capsys, n, eta):
    code, _, err = run_cli(capsys, "extremal", "--n", n, "--eta", eta)
    assert code == 2
    assert f"eta = {eta} " in err
    assert "a=" not in err


def test_cycle_size_limit_names_the_cli_heuristic(capsys, tmp_path):
    path = tmp_path / "n23.3g"
    path.write_text("3 23\n1 2 3\n")
    code, out, err = run_cli(capsys, "cycle", str(path))
    assert code == 2 and out == ""
    assert "n <= 22; got n = 23" in err
    assert "tcl pipeline" in err


def test_verify_erdos_gallai_keeps_the_truncation_flag(capsys, monkeypatch):
    from tightcycle import campaigns
    from tightcycle.matching import GraphMatching

    monkeypatch.setattr(campaigns, "max_matching", lambda G: GraphMatching(()))
    argv = ("--trials", "200", "--exhaustive-n", "3", "--seed", "1")
    code, out, _ = run_cli(capsys, "verify", "erdos-gallai", *argv)
    assert code == 1
    report = json.loads(out)
    assert len(report["failures"]) == campaigns.MAX_RECORDED_FAILURES
    assert report["stats"]["failures_truncated"] is True


def test_one_parser_per_process_carries_nothing_between_calls(capsys, k5_file, monkeypatch):
    """`main` reuses one parser; an option given to one call (here --format)
    must not become the default of the next."""
    from tightcycle import cli

    calls = [["components", k5_file, "--format", "text"], ["components", k5_file],
             ["info", k5_file]]
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli.build_parser)  # a fresh parser per call
        fresh = [run_cli(capsys, *argv) for argv in calls]
    cli._parser.cache_clear()
    shared = [run_cli(capsys, *argv) for argv in calls]
    assert cli._parser() is cli._parser()
    assert shared == fresh
    assert json.loads(shared[1][1])["component_count"] == 1
    assert shared[0][1].startswith("component_count: 1\n")

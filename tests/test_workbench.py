"""Generators, file formats, experiment batches, and the CLI."""

import csv
import json

import pytest

from matchsim import (
    AlgorithmSpec,
    DegenerateInstance,
    ExperimentConfig,
    GeneratorSpec,
    InvalidMatching,
    InvalidProfile,
    Matching,
    MatchingSubroutineSpec,
    PreferenceProfile,
    generate,
    instance_to_json,
    load_instance,
    load_matching,
    men_degree_ratio,
    run_experiment,
    save_instance,
    save_matching,
)
from matchsim.cli import main, parse_seeds
from matchsim.engine import Engine, MsgKind, Topology
from matchsim.model import Side
from matchsim.workbench import _LONG_METRICS, CSV_COLUMNS, write_message_log


def test_complete_family_degrees():
    prof = generate(GeneratorSpec.parse("complete", n=3, seed=0))
    assert all(len(l) == 3 for l in prof.men_prefs)
    assert prof.num_edges == 9


def test_random_p_one_equals_complete_edges():
    a = generate(GeneratorSpec.parse("random:1", n=5, seed=1))
    assert a.num_edges == 25
    assert all(set(l) == set(range(5)) for l in a.men_prefs)


def test_random_family_has_no_isolated_players():
    for seed in range(20):
        prof = generate(GeneratorSpec.parse("random:0.15", n=12, seed=seed))
        assert all(prof.men_prefs[m] for m in range(12))
        assert all(prof.women_prefs[w] for w in range(12))


def test_bounded_family_degree_range():
    prof = generate(GeneratorSpec.parse("bounded:4", n=20, seed=3))
    for lst in list(prof.men_prefs) + list(prof.women_prefs):
        assert 1 <= len(lst) <= 4


def test_aregular_family_ratio():
    prof = generate(GeneratorSpec.parse("aregular:2,4", n=16, seed=5))
    degs = prof.men_degrees()
    assert all(4 <= d <= 8 for d in degs)
    assert men_degree_ratio(prof) <= 2.0
    assert all(prof.women_prefs[w] for w in range(16))


def test_generation_deterministic_in_seed():
    a = generate(GeneratorSpec.parse("random:0.4", n=10, seed=9))
    b = generate(GeneratorSpec.parse("random:0.4", n=10, seed=9))
    c = generate(GeneratorSpec.parse("random:0.4", n=10, seed=10))
    assert a == b
    assert a != c


def test_generator_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec.parse("random:0", n=4, seed=0)
    with pytest.raises(ValueError):
        GeneratorSpec.parse("aregular:0.5,4", n=4, seed=0)
    with pytest.raises(ValueError):
        GeneratorSpec.parse("nope", n=4, seed=0)
    # extra text, and alphas whose degree cap int(alpha * base) does not exist
    for text in ("complete:7", "aregular:inf,2", "aregular:nan,2", "aregular:1e308,2"):
        with pytest.raises(ValueError):
            GeneratorSpec.parse(text, n=4, seed=0)


def test_instance_round_trip_is_byte_identical(tmp_path):
    prof = generate(GeneratorSpec.parse("random:0.5", n=8, seed=2))
    path = tmp_path / "inst.json"
    save_instance(prof, path)
    raw = path.read_bytes()
    again = load_instance(path)
    assert again == prof
    save_instance(again, path)
    assert path.read_bytes() == raw
    assert instance_to_json(prof).encode() == raw


def test_load_instance_names_violated_invariant(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "men": [[0], []], "women": [[], []]}))
    with pytest.raises(InvalidProfile, match="asymmetric"):
        load_instance(path)
    path.write_text("{not json")
    with pytest.raises(InvalidProfile, match="JSON"):
        load_instance(path)
    path.write_text(json.dumps({"n": 1, "men": [[]]}))
    with pytest.raises(InvalidProfile, match="women"):
        load_instance(path)


def test_matching_file_round_trip(tmp_path):
    m = Matching.of([(0, 1), (2, 0)])
    path = tmp_path / "m.json"
    save_matching(m, path)
    assert load_matching(path).pairs == m.pairs


def _config(tmp_path, **kw):
    defaults = dict(
        algorithm=AlgorithmSpec.parse("asm:0.5"),
        seeds=list(range(5)),
        generator=GeneratorSpec.parse("complete", n=12, seed=0),
        csv_path=str(tmp_path / "out.csv"),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_run_experiment_rows_and_pass_flags(tmp_path):
    outcome = run_experiment(
        _config(
            tmp_path,
            seeds=list(range(10)),
            generator=GeneratorSpec.parse("complete", n=32, seed=0),
        )
    )
    assert len(outcome.rows) == 10
    assert outcome.ok
    for r in outcome.rows:
        assert r.row["thm41_pass"] == "true"
        assert r.row["status"] == "ok"
    header = (tmp_path / "out.csv").read_text().splitlines()[0]
    assert header.split(",") == CSV_COLUMNS


def test_generation_gives_up_on_hopeless_density():
    with pytest.raises(DegenerateInstance):
        generate(GeneratorSpec.parse("random:1e-9", n=4, seed=0))


def test_run_experiment_deterministic(tmp_path):
    a = run_experiment(_config(tmp_path, csv_path=str(tmp_path / "a.csv")))
    b = run_experiment(_config(tmp_path, csv_path=str(tmp_path / "b.csv")))
    assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()
    assert [r.row for r in a.rows] == [r.row for r in b.rows]


def test_run_experiment_round_cap_row_isolated(tmp_path):
    outcome = run_experiment(_config(tmp_path, round_cap=2, seeds=[0, 1]))
    assert not outcome.ok
    assert all(r.row["status"] == "round_cap" for r in outcome.rows)
    assert all(r.row["rounds"] == 2 for r in outcome.rows)


def test_run_experiment_schedule_overflow_is_a_row_error(tmp_path):
    # n = 1 sizes this subroutine, so the spec is accepted; at n = 1024 the union bound overflows
    spec = AlgorithmSpec.parse("randasm:1e-100,0.1")
    generator = GeneratorSpec.parse("bounded:2", n=1024, seed=0)
    outcome = run_experiment(_config(tmp_path, algorithm=spec, seeds=[0], generator=generator))
    assert not outcome.ok
    assert outcome.rows[0].row["status"].startswith("error:cannot build a schedule for randasm:1e-100,0.1 with n=1024")


def test_run_experiment_config_validation(tmp_path):
    with pytest.raises(ValueError):
        ExperimentConfig(algorithm=AlgorithmSpec.parse("gs"), seeds=[1])
    with pytest.raises(ValueError):
        ExperimentConfig(
            algorithm=AlgorithmSpec.parse("gs"),
            seeds=[],
            generator=GeneratorSpec.parse("complete", n=4, seed=0),
        )


def test_parse_seeds_forms():
    assert parse_seeds("0..3") == [0, 1, 2, 3]
    assert parse_seeds("5,7,9") == [5, 7, 9]
    with pytest.raises(ValueError):
        parse_seeds("9..5")


def test_cli_generate_run_verify(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    csv_out = tmp_path / "runs.csv"
    log = tmp_path / "messages.ndjson"
    assert main(["generate", "--family", "random:0.5", "--n", "10", "--seed", "4", "-o", str(inst)]) == 0
    assert (
        main(
            [
                "run",
                "--alg",
                "gs",
                "--instance",
                str(inst),
                "--seeds",
                "0..2",
                "-o",
                str(csv_out),
                "--message-log",
                str(log),
            ]
        )
        == 0
    )
    lines = csv_out.read_text().splitlines()
    assert len(lines) == 4  # header + 3 seeds
    entries = [json.loads(l) for l in log.read_text().splitlines()]
    assert entries and all(
        set(e) == {"round", "from", "to", "kind", "payload_bits"} for e in entries
    )

    # write the run's matching out and verify it through the CLI
    from matchsim import run_algorithm, save_matching

    res = run_algorithm(load_instance(inst), "gs")
    mfile = tmp_path / "m.json"
    save_matching(res.matching, mfile)
    rc = main(["verify", "--instance", str(inst), "--matching", mfile.as_posix(), "--eps", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert '"passed": true' in out


def test_cli_bench(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(
        [
            "bench",
            "--alg",
            "aregasm:0.5,0.1,1",
            "--n-list",
            "8,16",
            "--seeds",
            "0..0",
            "-o",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3


def test_message_log_lines_equal_json_dumps(tmp_path):
    n = 12
    prof = PreferenceProfile.from_lists([list(range(n))] * n, [list(range(n))] * n)
    log: list = []
    eng = Engine(Topology.from_profile(prof), seed=0, message_log=log)

    def step(ctx):
        r = eng.trace.rounds
        if ctx.side is Side.MAN:
            ctx.send_many([(ctx.index + r + j) % n for j in range(2)], MsgKind.PROPOSE)
        elif r >= 9 and ctx.index == 11:
            ctx.send(10, MsgKind.CONTROL, payload=5)

    for _ in range(12):
        eng.run_round(step)
    assert max(e["round"] for e in log) >= 10
    assert any(e["kind"] == "CONTROL" and e["payload_bits"] > 3 for e in log)
    assert any(e["from"] == "W11" and e["to"] == "M10" for e in log)
    path = tmp_path / "log.ndjson"
    write_message_log(log, path)
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines.pop() == ""
    assert lines == [json.dumps(e, separators=(",", ":")) for e in log]


def test_cli_rejects_invalid_algorithm_parameter_up_front(tmp_path, capsys):
    out = tmp_path / "bad.csv"
    base = ["run", "--family", "complete", "--n", "8", "--seeds", "0..2", "-o", str(out)]
    # out of range, extra text, non-finite, or too small for the derived counts to exist
    algs = ("asm:2", "randasm:0.5,1", "aregasm:0.5,0.1,0.5", "gs:0.5", "aregasm:0.5,0.1,inf",
            "aregasm:0.5,0.1,nan", "asm:1e-300", "aregasm:1e-90,0.1,1")
    cases = [base + ["--alg", alg] for alg in algs]
    cases += [base + ["--alg", "asm:0.5", "--mm", mm] for mm in ("det:junk", "amm:1e-200,1e-200")]
    for family in ("complete:7", "aregular:inf,2"):
        cases.append(["generate", "--family", family, "--n", "8", "-o", str(out)])
        cases.append(["run", "--alg", "gs", "--family", family, "--n", "8", "--seeds", "0", "-o", str(out)])
    for argv in cases:
        rc = main(argv)
        assert rc == 2, argv
        out_text, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("error") == 1 and err.count("\n") == 1, err
        assert "Traceback" not in err and out_text == ""
        assert not out.exists()


@pytest.mark.parametrize("flag", ["--eps", "--delta", "--alpha"])
@pytest.mark.parametrize("command", ["run", "bench"])
def test_cli_run_and_bench_take_parameters_only_from_the_descriptor(tmp_path, capsys, command, flag):
    out = tmp_path / "x.csv"
    sizes = ["--family", "complete", "--n", "8", "--seeds", "0"] if command == "run" else ["--n-list", "8"]
    with pytest.raises(SystemExit) as exc:
        main([command, "--alg", "asm:0.5", *sizes, flag, "0.5", "-o", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 0.5" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_bare_algorithm_name(tmp_path, capsys):
    rc = main(["run", "--alg", "asm", "--family", "complete", "--n", "8", "--seeds", "0",
               "-o", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err == "error: cannot parse algorithm descriptor 'asm'\n"


@pytest.mark.parametrize(
    "flag, value", [("--eps", "nan"), ("--eps", "inf"), ("--threshold", "nan"), ("--threshold", "-inf")]
)
def test_cli_verify_rejects_non_finite_parameters_up_front(tmp_path, capsys, flag, value):
    # the files do not exist: the check runs before either is read
    params = {"--eps": "0.25", "--threshold": "0.125", flag: value}
    argv = ["verify", "--instance", str(tmp_path / "i.json"), "--matching", str(tmp_path / "m.json")]
    rc = main(argv + [f"{name}={text}" for name, text in params.items()])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {flag} must be a finite number, got {float(value)}\n"


def test_cli_reports_errors(tmp_path, capsys):
    rc = main(["run", "--alg", "asm:0.5", "--seeds", "0..1", "-o", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "instance, matching, error",
    [
        ({"n": 1, "men": [[0]], "women": [[0]]}, {"matches": [[0, 0]]}, InvalidMatching),
        ({"n": 1, "men": [0], "women": [[0]]}, {"pairs": [[0, 0]]}, InvalidProfile),
        # float numbers were once truncated by int(), so each of these verified as a valid file
        ({"n": 2.5, "men": [[0], [1]], "women": [[0], [1]]}, {"pairs": [[0, 0]]}, InvalidProfile),
        ({"n": 1, "men": [[0.9]], "women": [[0]]}, {"pairs": [[0, 0]]}, InvalidProfile),
        ({"n": 2, "men": [[1], []], "women": [[], [0]]}, {"pairs": [[0.7, 1.9]]}, InvalidMatching),
    ],
    ids=["matching-without-pairs", "preference-list-is-int", "float-n", "float-entry", "float-pair"],
)
def test_cli_verify_rejects_malformed_files(tmp_path, capsys, instance, matching, error):
    inst, mfile = tmp_path / "inst.json", tmp_path / "m.json"
    inst.write_text(json.dumps(instance))
    mfile.write_text(json.dumps(matching))
    with pytest.raises(error):
        load_matching(mfile) if error is InvalidMatching else load_instance(inst)
    rc = main(["verify", "--instance", str(inst), "--matching", str(mfile), "--eps", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_plot_data_is_the_wide_csv_in_long_format(tmp_path):
    wide, long = tmp_path / "wide.csv", tmp_path / "long.csv"
    # gs has no k, so its two_over_k_blocking cell is empty and gets no record
    rc = main(["run", "--alg", "gs", "--family", "complete", "--n", "6", "--seeds", "0..1",
               "-o", str(wide), "--plot-data", str(long)])
    assert rc == 0
    with open(wide, newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(long, newline="") as fh:
        reader = csv.DictReader(fh)
        records = list(reader)
    assert reader.fieldnames == ["algorithm", "n", "seed", "metric", "value"]
    expected = [
        {"algorithm": row["algorithm"], "n": row["n"], "seed": row["seed"], "metric": metric, "value": row[metric]}
        for row in rows
        for metric in _LONG_METRICS
        if row[metric] != ""
    ]
    assert len(rows) == 2 and rows[0]["two_over_k_blocking"] == ""
    assert records == expected
    assert [r["metric"] for r in records[:6]] == [m for m in _LONG_METRICS if m != "two_over_k_blocking"]


def test_cli_subroutine_override(tmp_path):
    rc = main(
        [
            "run",
            "--alg",
            "asm:0.5",
            "--mm",
            "rand:40",
            "--family",
            "complete",
            "--n",
            "8",
            "--seeds",
            "0..1",
            "-o",
            str(tmp_path / "r.csv"),
        ]
    )
    assert rc == 0


@pytest.mark.parametrize("alg", ["gs", "aregasm:0.5,0.1,2"])
def test_algorithm_spec_rejects_subroutine_override_for_gs_and_aregasm(alg):
    rand = MatchingSubroutineSpec.randomized(3)
    with pytest.raises(ValueError, match="asm and randasm only"):
        AlgorithmSpec.parse(alg, mm=rand)
    for name in ("asm:0.5", "randasm:0.5,0.1"):
        assert AlgorithmSpec.parse(name, mm=rand).mm == rand


@pytest.mark.parametrize("alg", ["gs", "aregasm:0.5,0.1,1"])
def test_cli_rejects_subroutine_override_for_gs_and_aregasm(tmp_path, capsys, alg):
    out = tmp_path / "x.csv"
    rc = main(["run", "--alg", alg, "--mm", "rand:3", "--family", "complete", "--n", "8",
               "--seeds", "0", "-o", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "asm and randasm only" in err
    assert not out.exists()


def test_cli_exit_code_reflects_failed_rows(tmp_path):
    rc = main(
        [
            "run",
            "--alg",
            "gs",
            "--family",
            "complete",
            "--n",
            "16",
            "--seeds",
            "0..1",
            "--round-cap",
            "3",
            "-o",
            str(tmp_path / "capped.csv"),
        ]
    )
    assert rc == 1
    rows = (tmp_path / "capped.csv").read_text().splitlines()
    assert all("round_cap" in r for r in rows[1:])

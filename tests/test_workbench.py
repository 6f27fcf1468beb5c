"""Generators, file formats, experiment batches, and the CLI."""

import csv
import json
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import instance_to_json, traced_peak
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
    iterations_for_almost_maximal,
    iterations_for_maximal,
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
from matchsim.analysis import blocking_pairs, count_blocking_pairs, eps_blocking_pairs
from matchsim import workbench
from matchsim.workbench import _LONG_METRICS, CSV_COLUMNS, _shuffle, write_message_log


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
    degs = [len(lst) for lst in prof.men_prefs]
    assert all(4 <= d <= 8 for d in degs)
    assert men_degree_ratio(prof) <= 2.0
    assert all(prof.women_prefs[w] for w in range(16))


def test_generation_deterministic_in_seed():
    a = generate(GeneratorSpec.parse("random:0.4", n=10, seed=9))
    b = generate(GeneratorSpec.parse("random:0.4", n=10, seed=9))
    c = generate(GeneratorSpec.parse("random:0.4", n=10, seed=10))
    assert a == b
    assert a != c


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2000), st.integers(0, 2**64))
def test_inline_shuffle_equals_random_shuffle(length, seed):
    ref, fast = random.Random(seed), random.Random(seed)
    expected, got = list(range(length)), list(range(length))
    ref.shuffle(expected)
    _shuffle(got, fast.getrandbits)
    assert got == expected
    assert fast.getstate() == ref.getstate()


def test_generator_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec.parse("random:0", n=4, seed=0)
    with pytest.raises(ValueError):
        GeneratorSpec.parse("aregular:0.5,4", n=4, seed=0)
    with pytest.raises(ValueError):
        GeneratorSpec.parse("nope", n=4, seed=0)
    # extra text, and alphas whose degree cap int(alpha * base) does not exist
    for text in ("complete:7", "aregular:inf,2", "aregular:nan,2", "aregular:1e308,2", "aregular:2,5"):
        with pytest.raises(ValueError):
            GeneratorSpec.parse(text, n=4, seed=0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: MatchingSubroutineSpec("foo"), "unknown subroutine flavor 'foo'"),
        (lambda: MatchingSubroutineSpec("amm", eta=0.5, delta=1.0), "amm flavor needs 0 < delta < 1"),
        (lambda: iterations_for_maximal(8, 0.0), "need eta > 0"),
        (lambda: iterations_for_almost_maximal(0.0, 0.5), "need 0 < eta <= 1 and 0 < delta < 1"),
        (lambda: GeneratorSpec("complete", 0, 0), "n must be >= 1"),
        (lambda: GeneratorSpec("nope", 4, 0), "unknown family 'nope'"),
        (lambda: GeneratorSpec("bounded", 4, 0, d=0), "bounded family needs degree bound d >= 1"),
        (lambda: AlgorithmSpec("nope"), "unknown algorithm 'nope'"),
    ],
    ids=["flavor", "amm-delta", "maximal-eta", "almost-maximal-eta", "n", "family", "bounded-d", "algorithm"],
)
def test_direct_construction_refuses_what_parse_never_passes(build, message):
    # parse refuses an unknown head or a missing field first, so only direct calls reach these
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_instance_round_trip_is_byte_identical(tmp_path):
    # every family, n=1, and players with empty lists; the file is written one list at a
    # time and must equal the canonical dump of the whole object
    profiles = [generate(GeneratorSpec.parse(family, n=n, seed=3))
                for family in ("complete", "random:0.5", "bounded:3", "aregular:2,1") for n in (1, 8)]
    profiles += [PreferenceProfile.from_lists([[], [1, 2], [1]], [[], [2, 1], [1]]),
                 PreferenceProfile.from_lists([[], []], [[], []])]
    path = tmp_path / "inst.json"
    for prof in profiles:
        save_instance(prof, path)
        raw = path.read_bytes()
        again = load_instance(path)
        assert again == prof
        save_instance(again, path)
        assert path.read_bytes() == raw
        obj = {"n": prof.n, "men": [list(l) for l in prof.men_prefs], "women": [list(l) for l in prof.women_prefs]}
        assert raw == instance_to_json(prof).encode() == (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _complete_files(tmp_path, n=256):
    """A complete instance saved to a file, and a file of every other pair of its stable matching."""
    from matchsim import gale_shapley_oracle

    prof = generate(GeneratorSpec.parse("complete", n=n, seed=0))
    inst, mfile = tmp_path / "inst.json", tmp_path / "m.json"
    save_instance(prof, inst)
    save_matching(Matching.of(gale_shapley_oracle(prof).sorted_pairs()[::2]), mfile)
    return prof, inst, mfile


def test_save_instance_streams_the_file(tmp_path):
    # built as one JSON string from list copies, saving peaked at about 73 bytes per edge
    prof, inst, _ = _complete_files(tmp_path)
    assert traced_peak(save_instance, prof, inst)[0] <= 8 * prof.num_edges


def test_cli_verify_holds_no_whole_file_or_pair_list(tmp_path, capsys):
    # with the file text, the parsed lists and the listed pairs alive, verify peaked at
    # about 74 bytes per edge; it now peaks at about 39, in the profile and the head
    # sets of the eps scan
    prof, inst, mfile = _complete_files(tmp_path)
    argv = ["verify", "--instance", str(inst), "--matching", str(mfile), "--eps", "0.25", "--threshold", "0.125"]
    assert traced_peak(main, argv)[0] <= 60 * prof.num_edges
    printed = json.loads(capsys.readouterr().out)
    matching = load_matching(mfile)
    assert printed["blocking_pairs"] == len(blocking_pairs(prof, matching)) > 0
    assert printed["eps_blocking_pairs"] == len(eps_blocking_pairs(prof, matching, 0.125)) > 0


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


def _loaded(tmp_path, family, n, seed=0):
    path = tmp_path / "inst.json"
    save_instance(generate(GeneratorSpec.parse(family, n=n, seed=seed)), path)
    return load_instance(path)


def test_loaded_profile_shares_equal_entries(tmp_path):
    prof = _loaded(tmp_path, "complete", 300)  # indices above 256, which Python does not cache
    first: dict[int, int] = {}
    for lst in prof.men_prefs + prof.women_prefs + ((prof.n,),):
        for x in lst:
            assert x is first.setdefault(x, x)
    assert len(first) == 301


def test_verify_scans_on_a_loaded_profile_build_no_rank_table(tmp_path):
    prof = _loaded(tmp_path, "random:0.5", 40, seed=3)
    pairs = sorted((m, lst[0]) for m, lst in enumerate(prof.men_prefs) if lst)
    matching = Matching.of({w: (m, w) for m, w in pairs}.values())
    blocking_pairs(prof, matching)
    eps_blocking_pairs(prof, matching, 0.125)
    assert "_man_rank" not in prof.__dict__
    assert "_woman_rank" not in prof.__dict__


@pytest.mark.parametrize(
    "instance, message",
    [
        ({"n": 2, "men": [[-1], []], "women": [[], []]}, "man 0 ranks out-of-range partner -1"),
        ({"n": 2, "men": [[], []], "women": [[2], []]}, "woman 0 ranks out-of-range partner 2"),
        ({"n": 2, "men": [[[0]], []], "women": [[0], []]},
         "int() argument must be a string, a bytes-like object or a real number, not 'list'"),
        ({"n": 2, "men": [[0], [None]], "women": [[0], []]},
         "int() argument must be a string, a bytes-like object or a real number, not 'NoneType'"),
        ({"n": 2, "men": [["1"], []], "women": [[], [0]]}, 'expected an integer, got "1"'),
        ({"n": 2, "men": [[1], []], "women": [[], [False]]}, "expected an integer, got false"),
        ({"n": True, "men": [[0]], "women": [[0]]}, "expected an integer, got true"),
        ({"n": "1", "men": [[0]], "women": [[0]]}, 'expected an integer, got "1"'),
        # a list-count error still comes from the profile once every entry is an integer
        ({"n": 3, "men": [[0]], "women": [[0]]}, "expected 3 men preference lists, got 1"),
        # containers other than a list of lists are read as the entry-by-entry path iterates them
        ({"n": 1, "men": {"0": [0]}, "women": [[0]]}, 'expected an integer, got "0"'),
        ({"n": 1, "men": "0", "women": [[0]]}, 'expected an integer, got "0"'),
        ({"n": 2, "men": [[0], 1], "women": [[0], []]}, "'int' object is not iterable"),
        ({"n": 2, "men": [[0], {"1": 1}], "women": [[0], [1]]}, 'expected an integer, got "1"'),
        ({"n": 2, "men": [[0], "1"], "women": [[0], [1]]}, 'expected an integer, got "1"'),
    ],
    ids=["negative", "index-n", "nested-list", "null", "string", "bool", "bool-n", "string-n", "list-count",
         "men-object", "men-string", "entry-int", "entry-object", "entry-string"],
)
def test_load_instance_rejects_non_integer_and_out_of_range_entries(tmp_path, instance, message):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance))
    with pytest.raises(InvalidProfile) as exc:
        load_instance(path)
    assert str(exc.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([["0", 1]], 'expected an integer, got "0"'),
        ([[0, True]], "expected an integer, got true"),
        ([[[0], 1]], "int() argument must be a string, a bytes-like object or a real number, not 'list'"),
    ],
    ids=["string", "bool", "nested-list"],
)
def test_load_matching_rejects_non_integer_entries(tmp_path, pairs, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"pairs": pairs}))
    with pytest.raises(InvalidMatching) as exc:
        load_matching(path)
    assert str(exc.value) == f"{path}: {message}"


def test_cli_verify_rejects_strings_and_booleans(tmp_path, capsys):
    # int() once read these files as the edge (0, 1), and verify printed "passed": true
    inst, mfile = tmp_path / "inst.json", tmp_path / "m.json"
    inst.write_text('{"n": 2, "men": [["1"], []], "women": [[], [false]]}')
    mfile.write_text('{"pairs": [["0", true]]}')
    rc = main(["verify", "--instance", str(inst), "--matching", str(mfile), "--eps", "0"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == f'error: {inst}: expected an integer, got "1"\n'


@pytest.mark.parametrize(
    "instance, pairs, error, message",
    [
        ([[0], [0]], [[0, 0]], InvalidProfile, "{inst}: expected a JSON object"),
        ({"n": 2, "men": [[0], []], "women": [[0], []]}, [[5, 0]], InvalidMatching,
         "pair (5, 0) is out of range for n=2"),
    ],
    ids=["instance-array", "pair-out-of-range"],
)
def test_cli_verify_names_a_malformed_input(tmp_path, capsys, instance, pairs, error, message):
    inst, mfile = tmp_path / "inst.json", tmp_path / "m.json"
    inst.write_text(json.dumps(instance))
    mfile.write_text(json.dumps({"pairs": pairs}))
    message = message.format(inst=inst)
    with pytest.raises(error) as exc:
        count_blocking_pairs(load_instance(inst), load_matching(mfile))
    assert str(exc.value) == message
    rc = main(["verify", "--instance", str(inst), "--matching", str(mfile), "--eps", "0"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == f"error: {message}\n"


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
    for row in outcome.rows:
        assert row["thm41_pass"] == "true"
        assert row["status"] == "ok"
    header = (tmp_path / "out.csv").read_text().splitlines()[0]
    assert header.split(",") == CSV_COLUMNS


def test_batch_keeps_only_its_rows(tmp_path):
    # a batch that held every seed's run and report retained about 5.6 MB here
    prof = generate(GeneratorSpec.parse("complete", n=128, seed=0))
    inst = tmp_path / "inst.json"
    save_instance(prof, inst)
    del prof
    config = ExperimentConfig(algorithm=AlgorithmSpec.parse("gs"), seeds=list(range(10)), instance_path=str(inst))
    tracemalloc.start()
    try:
        outcome = run_experiment(config)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert outcome.ok and len(outcome.rows) == 10
    assert retained <= 0.5e6


def test_generation_gives_up_on_hopeless_density():
    with pytest.raises(DegenerateInstance):
        generate(GeneratorSpec.parse("random:1e-9", n=4, seed=0))


def test_run_experiment_deterministic(tmp_path):
    a = run_experiment(_config(tmp_path, csv_path=str(tmp_path / "a.csv")))
    b = run_experiment(_config(tmp_path, csv_path=str(tmp_path / "b.csv")))
    assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()
    assert a.rows == b.rows


def test_run_experiment_round_cap_row_isolated(tmp_path):
    outcome = run_experiment(_config(tmp_path, round_cap=2, seeds=[0, 1]))
    assert not outcome.ok
    assert outcome.failures == 2
    assert all(row["status"] == "round_cap" for row in outcome.rows)
    assert all(row["rounds"] == 2 for row in outcome.rows)


def test_run_experiment_schedule_overflow_is_a_row_error(tmp_path):
    # n = 1 sizes this subroutine, so the spec is accepted; at n = 1024 the union bound overflows
    spec = AlgorithmSpec.parse("randasm:1e-100,0.1")
    generator = GeneratorSpec.parse("bounded:2", n=1024, seed=0)
    outcome = run_experiment(_config(tmp_path, algorithm=spec, seeds=[0], generator=generator))
    assert not outcome.ok
    assert outcome.rows[0]["status"].startswith("error:cannot build a schedule for randasm:1e-100,0.1 with n=1024")


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
        # a round carries one kind: from round 10 on, every other round is W11's REJECT
        if r >= 9 and r % 2:
            if ctx.side is Side.WOMAN and ctx.index == 11:
                ctx.send(10, MsgKind.REJECT)
        elif ctx.side is Side.MAN:
            ctx.send_many([(ctx.index + r + j) % n for j in range(2)], MsgKind.PROPOSE)

    for _ in range(12):
        eng.run_round(step)
    path = tmp_path / "log.ndjson"
    write_message_log(log, path)
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines.pop() == ""
    records = [json.loads(line) for line in lines]
    assert max(e["round"] for e in records) >= 10
    assert any(e["kind"] == "REJECT" for e in records)
    assert any(e["from"] == "W11" and e["to"] == "M10" for e in records)
    assert len(records) == eng.trace.messages_sent
    assert all(list(e) == ["round", "from", "to", "kind", "payload_bits"] for e in records)
    assert lines == [json.dumps(e, separators=(",", ":")) for e in records]


def test_batch_message_log_is_the_single_seed_logs_in_seed_order(tmp_path, monkeypatch):
    def config(seeds, name):
        return ExperimentConfig(
            algorithm=AlgorithmSpec.parse("randasm:0.5,0.1"),
            seeds=seeds,
            generator=GeneratorSpec.parse("complete", n=8, seed=0),
            message_log_path=str(tmp_path / name),
        )

    singles = b""
    for seed in (0, 1, 2):
        run_experiment(config([seed], f"seed{seed}.ndjson"))
        singles += (tmp_path / f"seed{seed}.ndjson").read_bytes()
    # every run of the batch starts from an empty list: it holds one run's records
    held = []
    real_run = workbench.run_algorithm

    def run(profile, spec, message_log=None, **kw):
        held.append(len(message_log))
        return real_run(profile, spec, message_log=message_log, **kw)

    monkeypatch.setattr(workbench, "run_algorithm", run)
    run_experiment(config([0, 1, 2], "batch.ndjson"))
    assert held == [0, 0, 0]
    assert (tmp_path / "batch.ndjson").read_bytes() == singles
    assert singles.count(b"\n") > 3


def test_cli_unwritable_message_log_fails_before_any_run(tmp_path, capsys):
    out = tmp_path / "runs.csv"
    rc = main(["run", "--alg", "asm:0.5", "--family", "complete", "--n", "4", "--seeds", "0..2",
               "-o", str(out), "--message-log", str(tmp_path / "missing" / "log.ndjson")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["run", "--alg", "gs", "--family", "complete", "--n", "8", "--seeds", "0..2", "-o", "{bad}"],
        ["run", "--alg", "gs", "--family", "complete", "--n", "8", "--seeds", "0..2", "-o", "{ok}",
         "--plot-data", "{bad}"],
        ["bench", "--alg", "gs", "--n-list", "4,8", "--seeds", "0..1", "-o", "{bad}"],
    ],
    ids=["run-output", "run-plot-data", "bench-output"],
)
def test_cli_unwritable_output_fails_before_any_run(tmp_path, capsys, monkeypatch, command):
    calls = []
    real_run = workbench.run_algorithm
    monkeypatch.setattr(workbench, "run_algorithm", lambda *a, **kw: calls.append(1) or real_run(*a, **kw))
    paths = {"bad": str(tmp_path / "missing" / "x.csv"), "ok": str(tmp_path / "runs.csv")}
    rc = main([arg.format(**paths) for arg in command])
    assert rc == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1 and "missing" in err
    assert out == "" and calls == []


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
    # an instance file together with generator flags
    inst = tmp_path / "inst.json"
    save_instance(generate(GeneratorSpec.parse("bounded:2", n=8, seed=0)), inst)
    on_file = ["run", "--alg", "asm:0.5", "--instance", str(inst), "--seeds", "0", "-o", str(out)]
    cases += [on_file + ["--family", "bounded:2", "--n", "64"], on_file + ["--n", "64"], on_file + ["--family", "complete"]]
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


@pytest.mark.parametrize("eps", ["1e308", "-1e308"])
def test_cli_verify_rejects_a_budget_that_is_not_finite(tmp_path, capsys, monkeypatch, eps):
    # each eps is finite, but eps * |E| overflows; the budget is checked before any counting
    import matchsim.cli as cli

    inst, mfile = tmp_path / "i.json", tmp_path / "m.json"
    save_instance(generate(GeneratorSpec.parse("complete", n=4, seed=0)), inst)
    save_matching(Matching.of([]), mfile)
    monkeypatch.setattr(cli, "count_blocking_pairs", lambda *a: pytest.fail("counted"))
    rc = main(["verify", "--instance", str(inst), "--matching", str(mfile), f"--eps={eps}"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --eps {float(eps)} times 16 edges is not a finite budget\n"


@pytest.mark.parametrize(
    "command",
    [
        ["run", "--alg", "asm:0.5", "--family", "aregular:2,16", "--n", "8", "--seeds", "0..1",
         "-o", "{csv}", "--message-log", "{log}", "--plot-data", "{plot}"],
        ["bench", "--alg", "asm:0.5", "--family", "aregular:2,16", "--n-list", "32,8", "-o", "{csv}"],
    ],
    ids=["run", "bench"],
)
def test_cli_base_degree_above_n_fails_before_touching_outputs(tmp_path, capsys, command):
    paths = {name: tmp_path / f"{name}.out" for name in ("csv", "log", "plot")}
    for name, path in paths.items():
        path.write_text(f"earlier {name}\n")
    rc = main([arg.format(**paths) for arg in command])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: aregular family needs base degree in 1..n\n"
    assert {name: path.read_text() for name, path in paths.items()} == {name: f"earlier {name}\n" for name in paths}


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
        # text and bytes are written as they are: JSON nested past the parser's
        # recursion limit once crashed with a RecursionError, and a non-UTF-8 file
        # gave an error that did not say which file it was
        ({"n": 1, "men": [[0]], "women": [[0]]}, '{"pairs": ' + "[" * 100_000 + "]" * 100_000 + "}", InvalidMatching),
        ('{"n": 1, "men": ' + "[" * 100_000 + "]" * 100_000 + ', "women": [[0]]}', {"pairs": []}, InvalidProfile),
        ({"n": 1, "men": [[0]], "women": [[0]]}, b'{"pairs": [[0, 0]]} \xff', InvalidMatching),
        (b'{"n": 1, "men": [[0]], "women": [[0]]} \xff', {"pairs": []}, InvalidProfile),
        # an integer of more digits than int() converts once raised a bare ValueError,
        # and the CLI's error line did not name the file
        ({"n": 1, "men": [[0]], "women": [[0]]}, '{"pairs": [[' + "1" * 5_000 + ", 0]]}", InvalidMatching),
        ('{"n": 1, "men": [[' + "1" * 5_000 + ']], "women": [[0]]}', {"pairs": []}, InvalidProfile),
    ],
    ids=["matching-without-pairs", "preference-list-is-int", "float-n", "float-entry", "float-pair",
         "deeply-nested-matching", "deeply-nested-instance", "matching-not-utf8", "instance-not-utf8",
         "too-long-int-in-matching", "too-long-int-in-instance"],
)
def test_cli_verify_rejects_malformed_files(tmp_path, capsys, instance, matching, error):
    inst, mfile = tmp_path / "inst.json", tmp_path / "m.json"
    for path, content in ((inst, instance), (mfile, matching)):
        if isinstance(content, dict):
            content = json.dumps(content)
        path.write_bytes(content.encode() if isinstance(content, str) else content)
    bad = mfile if error is InvalidMatching else inst
    with pytest.raises(error, match=f"^{re.escape(str(bad))}: "):
        load_matching(mfile) if error is InvalidMatching else load_instance(inst)
    rc = main(["verify", "--instance", str(inst), "--matching", str(mfile), "--eps", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1 and "Traceback" not in err


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
    rand = MatchingSubroutineSpec("rand", 3)
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


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("command", ["run", "bench"])
def test_cli_rejects_a_round_cap_below_one_before_any_run(tmp_path, capsys, command, cap):
    # a cap below 1 once let every run hit it before its first round, writing a CSV of round_cap rows
    out = tmp_path / "capped.csv"
    instances = ["--family", "complete", "--n", "4", "--seeds", "0..1"] if command == "run" else ["--n-list", "4,8"]
    rc = main([command, "--alg", "asm:0.5", *instances, "--round-cap", cap, "-o", str(out)])
    assert rc == 2
    out_text, err = capsys.readouterr()
    assert out_text == "" and err == f"error: round cap must be >= 1, got {cap}\n"
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

"""CLI tests (argument handling and end-to-end command runs)."""

import pytest

from repro.cli import WORKLOADS, build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_list_workloads(capsys):
    assert main(["list-workloads"]) == 0
    out = capsys.readouterr().out
    for name in WORKLOADS:
        assert name in out
    assert "constant_time_eq" in out


def test_features(capsys):
    assert main(["features"]) == 0
    out = capsys.readouterr().out
    assert "SQ-ADDR" in out and "MSHR-ADDR" in out
    assert "Store Queue" in out


def test_analyze_leaky_returns_one(capsys):
    code = main(["analyze", "sam-leaky", "--inputs", "2",
                 "--config", "small", "--no-timing-removed"])
    out = capsys.readouterr().out
    assert code == 1
    assert "LEAKAGE DETECTED" in out


def test_analyze_clean_returns_zero(capsys):
    code = main(["analyze", "sam-ct", "--inputs", "3", "--config", "small"])
    out = capsys.readouterr().out
    assert code == 0
    assert "No statistically significant correlation" in out


def test_analyze_unknown_workload(capsys):
    assert main(["analyze", "not-a-workload"]) == 2
    assert capsys.readouterr().err == (
        "error: unknown workload 'not-a-workload'; see 'microsampler "
        "list-workloads'\n")


@pytest.mark.parametrize("argv, message", [
    (["localize", "bogus"], "unknown workload 'bogus'"),
    (["audit", "sam-ct", "bogus"], "unknown workload 'bogus'"),
    (["sweep", "bogus"], "unknown workload 'bogus'"),
    (["trace", "bogus", "bogus.jsonl"], "unknown workload 'bogus'"),
    (["sweep", "sam-ct", "--configs", ","],
     "--configs needs at least one core config name"),
    (["sweep", "sam-ct", "--configs", "mega,mega"],
     "duplicate config names in --configs"),
    (["submit", "analyze"], "'submit analyze' takes exactly one workload"),
], ids=lambda value: value[0] if isinstance(value, list) else None)
def test_a_usage_error_exits_two_not_the_leak_status(argv, message,
                                                      capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["analyze", "sam-ct"], ["sweep", "sam-ct"], ["localize", "sam-ct"],
    ["audit"], ["submit", "analyze", "sam-ct"], ["reanalyze", "run.jsonl"],
], ids=lambda argv: argv[0])
def test_engine_is_no_flag(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--engine", "python"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --engine" in capsys.readouterr().err


def test_analyze_primitive_by_name(capsys):
    code = main(["analyze", "constant_time_is_zero", "--inputs", "4",
                 "--config", "small"])
    assert code == 0


def test_simulate_and_disasm(tmp_path, capsys):
    source = tmp_path / "prog.S"
    source.write_text("""
.text
main:
    li a0, 7
    li a7, 93
    ecall
""")
    code = main(["simulate", str(source), "--entry", "main"])
    out = capsys.readouterr().out
    assert code == 7
    assert "cycles" in out

    assert main(["disasm", str(source)]) == 0
    out = capsys.readouterr().out
    assert "addi a0, zero, 7" in out


def test_simulate_fast_bypass_flag(tmp_path, capsys):
    source = tmp_path / "prog.S"
    source.write_text("""
.text
main:
    li t0, 0
    li t1, 9
    nop
    nop
    nop
    nop
    nop
    and a0, t1, t0
    li a7, 93
    ecall
""")
    code = main(["simulate", str(source), "--entry", "main",
                 "--fast-bypass"])
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["analyze", "sam-ct"],
    ["sweep", "sam-ct"],
    ["localize", "sam-leaky"],
    ["audit", "chacha20"],
    ["trace", "sam-ct", "never-written.jsonl"],
    ["submit", "analyze", "sam-ct"],
])
@pytest.mark.parametrize("inputs", ["0", "-3"])
def test_a_non_positive_input_count_is_a_usage_error(argv, inputs, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--inputs", inputs])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --inputs: must be >= 1, got {int(inputs)}" in err


WARMUP_VERBS = [
    ["analyze", "sam-leaky", "--config", "small"],
    ["sweep", "sam-leaky", "--configs", "small"],
    ["localize", "sam-leaky", "--config", "small"],
]


@pytest.mark.parametrize("argv", WARMUP_VERBS)
def test_a_warmup_that_drops_every_iteration_is_an_error(argv, capsys):
    # A clean verdict on zero analyzed iterations would hide sam-leaky.
    code = main(argv + ["--inputs", "2", "--warmup", "1000", "--no-cache",
                        "--jobs", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert "No statistically significant" not in captured.out
    errors = [line for line in captured.err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1
    assert "warm-up of 1000 iteration(s)" in errors[0]
    assert "'sam-leaky'" in errors[0]


@pytest.mark.parametrize("argv", WARMUP_VERBS)
def test_a_negative_warmup_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--warmup", "-3"])
    assert exit_info.value.code == 2
    assert "argument --warmup: must be >= 0, got -3" in capsys.readouterr().err


@pytest.mark.parametrize("max_active", ["0", "-1"])
def test_serve_needs_an_active_job_slot(max_active, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["serve", "--max-active", max_active])
    assert exit_info.value.code == 2
    assert (f"argument --max-active: must be >= 1, got {max_active}"
            in capsys.readouterr().err)


def test_submit_rejects_negative_permutations_before_sending(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["submit", "localize", "ee-mem-cmp", "--permutations", "-1"])
    assert exit_info.value.code == 2
    assert ("argument --permutations: must be >= 0"
            in capsys.readouterr().err)


def test_the_core_and_input_flags_are_shared_by_every_verb():
    parser = build_parser()
    for argv in (["analyze", "w"], ["localize", "w"], ["audit"],
                 ["trace", "w", "out.jsonl"], ["submit", "analyze"],
                 ["simulate", "f.S"], ["pipeview", "f.S"]):
        args = parser.parse_args(argv + ["--config", "small",
                                         "--fast-bypass", "--variable-div"])
        assert (args.config, args.fast_bypass, args.variable_div) \
            == ("small", True, True), argv
    args = parser.parse_args(["sweep", "w", "--fast-bypass"])
    assert args.fast_bypass and not hasattr(args, "config")
    for argv in (["analyze", "w"], ["sweep", "w"], ["localize", "w"],
                 ["audit"], ["trace", "w", "out.jsonl"],
                 ["submit", "analyze"]):
        args = parser.parse_args(argv + ["--inputs", "5", "--seed", "9"])
        assert (args.inputs, args.seed) == (5, 9), argv

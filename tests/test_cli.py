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


def test_analyze_unknown_workload():
    with pytest.raises(SystemExit):
        main(["analyze", "not-a-workload"])


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

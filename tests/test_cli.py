import argparse
import io
import json
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from momentflow.cli import _build_parser, run
from momentflow.momentmap import rep_action


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def _capture_json(capsys, argv):
    code, out = _capture(capsys, argv)
    return code, json.loads(out)


def test_label_subcommand(capsys):
    code, doc = _capture_json(capsys, [
        "label", "--family", "adjoint", "--n", "2", "--vector", "[0,1,0,0]"])
    assert code == 0
    assert doc["semistable"] is False
    assert doc["eta"] == ["1/1", "-1/1"]
    assert doc["q"] == "2/1"
    assert doc["eta_normalized"] == ["1/2", "-1/2"]


def test_label_semistable(capsys):
    code, doc = _capture_json(capsys, [
        "label", "--family", "adjoint", "--n", "2", "--vector", "[1,0,0,1]"])
    assert code == 0
    assert doc == {"semistable": True}


def test_jordan_subcommand(capsys):
    code, doc = _capture_json(capsys, ["jordan", "--partition", "3,2"])
    assert code == 0
    assert doc["q"] == "2/5"
    assert doc["q_paper"] == "5/2"
    assert doc["identity_ok"] is True
    assert doc["display_ok"] is True


def test_flow_csv_constant_energy(capsys):
    code, out = _capture(capsys, [
        "flow", "--family", "standard", "--n", "3", "--vector", "[1,1,1]",
        "--t-max", "1"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("t,F,residual,")
    for line in lines[1:]:
        assert abs(float(line.split(",")[1]) - 1.0) <= 1e-12


def test_flow_json_format(capsys):
    code, doc = _capture_json(capsys, [
        "flow", "--family", "adjoint", "--n", "2", "--vector", "[0,1,0,0]",
        "--format", "json"])
    assert code == 0
    assert doc["converged"] is True
    assert abs(doc["limit_spectrum"][0] - 1.0) <= 1e-8


def test_moment_subcommand(capsys):
    code, doc = _capture_json(capsys, [
        "moment", "--family", "standard", "--n", "2", "--vector", "[1,0]"])
    assert code == 0
    assert doc["matrix"] == [[1.0, 0.0], [0.0, 0.0]]
    assert doc["energy"] == 1.0
    assert doc["closed_form_max_dev"] <= 1e-14


def test_rep_info(capsys):
    code, doc = _capture_json(capsys, ["rep-info", "--family", "brackets", "--n", "3"])
    assert code == 0
    assert doc["dim"] == 9
    assert doc["weights"][2 * 3 + 0] == [1, -1, -1]


def test_label_stratum_round_trip(capsys, monkeypatch):
    code, out = _capture(capsys, [
        "label", "--family", "adjoint", "--n", "2", "--vector", "[0,1,0,0]"])
    assert code == 0

    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    code, doc = _capture_json(capsys, [
        "stratum", "--family", "adjoint", "--n", "2", "--vector", "[0,1,0,0]",
        "--label", "-"])
    assert code == 0
    assert doc["in_V_ge0"] is True
    assert doc["in_U_ge0"] is True
    assert doc["grading"] == [{"weight": [1, -1], "r": "0/1"}]


def test_stratum_state_cut_torus(capsys):
    # the r = 0 weight (1, -1) carries 1e-13, below zero_tol * ||v||, so it is
    # neither graded nor copied into v0, and v0 is not hyperplane-semistable
    code, doc = _capture_json(capsys, [
        "stratum", "--weights", "[[2,0],[1,0],[1,1],[1,-1]]", "--vector", "[1,0,1e-3,1e-13]",
        "--label", '{"eta":[1,0]}'])
    assert code == 0
    assert doc["grading"] == [{"weight": [1, 1], "r": "0/1"}, {"weight": [2, 0], "r": "1/1"}]
    assert doc["in_V_ge0"] is True
    assert doc["v0_coords"] == [0.0, 0.0, 0.001, 0.0]
    assert doc["in_U_ge0"] is False


# stdout of the exact-arithmetic subcommands, recorded once: these print
# rationals, integers, booleans and input floats copied through, so the
# bytes do not depend on the platform.  A change that alters one of them on
# purpose says so and records the file again.
_GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", _GOLDEN,
                         ids=[f"{case['argv'][0]}-{k}" for k, case in enumerate(_GOLDEN)])
def test_exact_subcommand_stdout_pinned(capsys, case):
    assert _capture(capsys, case["argv"]) == (0, case["stdout"])


def test_extreme_scale_vectors_read_like_unit_ones(capsys):
    # |v|^2 overflows at 1e200 and underflows at 1e-170; before, moment
    # printed NaN, flow called the vector zero and label had no state
    base = ["--family", "adjoint", "--n", "2", "--vector"]
    for cmd, extra in (("moment", []), ("flow", ["--format", "json"])):
        code, doc = _capture_json(capsys, [cmd] + base + ["[1e200,1e200,0,1e200]"] + extra)
        _, unit = _capture_json(capsys, [cmd] + base + ["[1,1,0,1]"] + extra)
        assert code == 0
        spectrum = doc["spectrum" if cmd == "moment" else "limit_spectrum"]
        assert np.allclose(spectrum, unit["spectrum" if cmd == "moment" else "limit_spectrum"],
                           rtol=0, atol=1e-12)
    assert _capture(capsys, ["label"] + base + ["[1e-170,1e-170,0,0]"]) == \
        _capture(capsys, ["label"] + base + ["[1,1,0,0]"])
    code, doc = _capture_json(capsys, ["verify-flows"] + base + ["[0,1e200,0,0]", "--t-max", "5"])
    assert code == 0 and doc["passed"] is True and doc["max_dev_v"] > 0.0


def test_python_dash_m_runs_the_cli(capsys):
    import os
    import subprocess
    import momentflow
    argv = ["flow", "--family", "adjoint", "--n", "2", "--vector", "[0,1,0,0]", "--format", "json"]
    env = dict(os.environ, PYTHONPATH=str(Path(momentflow.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "momentflow"] + argv, env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == _capture(capsys, argv)


def test_verify_flows_deterministic(capsys):
    argv = ["verify-flows", "--family", "standard", "--n", "2",
            "--vector", "[1,0]", "--t-max", "2", "--seed", "5"]
    code1, out1 = _capture(capsys, argv)
    code2, out2 = _capture(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["passed"] is True


def test_labels_enumerate(capsys):
    code, doc = _capture_json(capsys, ["labels-enumerate", "--family", "standard", "--n", "3"])
    assert code == 0
    assert doc["count"] == 3
    assert doc["zero_label"] is False
    assert doc["labels"][0]["eta"] == ["1/1", "0/1", "0/1"]


def test_bracket_subcommand(capsys):
    code, doc = _capture_json(capsys, ["bracket", "--preset", "heisenberg", "--n", "3"])
    assert code == 0
    assert doc["jacobi_ok"] is True
    assert doc["critical_check"]["beta_plus_eigenvalues"] == [2.0, 2.0, 4.0]
    assert doc["critical_check"]["positive"] is True


def test_bracket_flow_flag(capsys):
    code, doc = _capture_json(capsys, ["bracket", "--preset", "chain", "--n", "5", "--flow"])
    assert code == 0
    assert doc["flowed"] is True
    assert doc["critical_check"]["positive"] is True


def test_project_sl(capsys):
    code, doc = _capture_json(capsys, ["project-sl", "--eta", "[1,0]"])
    assert code == 0
    assert doc["eta_sl"] == ["1/2", "-1/2"]


def test_vector_from_file(tmp_path, capsys):
    path = tmp_path / "vec.json"
    path.write_text(json.dumps({"family": "standard", "n": 2, "coords": [1.0, 0.0]}))
    code, doc = _capture_json(capsys, ["label", "--vector", f"@{path}"])
    assert code == 0
    assert doc["eta"] == ["1/1", "0/1"]


def test_weights_contradicting_vector_document_exit_2(tmp_path, capsys):
    path = tmp_path / "vec.json"
    path.write_text(json.dumps({"family": "standard", "n": 2, "coords": [1.0, 0.0]}))
    code = run(["label", "--weights", "[[5,5]]", "--vector", f"@{path}"])
    assert code == 2
    assert "--weights contradicts the vector document" in capsys.readouterr().err
    path.write_text(json.dumps({"family": "TorusWeights", "weights": [[1, 0], [0, 1]],
                                "coords": [1.0, 1.0]}))
    code = run(["label", "--weights", "[[1,0],[0,2]]", "--vector", f"@{path}"])
    assert code == 2
    code, doc = _capture_json(capsys, ["label", "--weights", "[[1,0],[0,1]]",
                                       "--vector", f"@{path}"])
    assert code == 0
    assert doc["eta"] == ["1/2", "1/2"]


def test_project_sl_empty_eta_exit_1(capsys):
    code = run(["project-sl", "--eta", "[]"])
    assert code == 1
    assert "error: cannot project an empty label" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["Infinity", "-Infinity", "NaN"])
def test_project_sl_non_finite_eta_exit_1(capsys, entry):
    code = run(["project-sl", "--eta", f"[{entry}, 1]"])
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert out.err.startswith("error: cannot convert")


@pytest.mark.parametrize("cmd, flag", [(cmd, flag) for cmd in ("flow", "verify-flows")
                                       for flag in ("--t-max", "--dt0", "--tol")]
                         + [("verify-flows", "--match-tol"), ("bracket", "--tol")])
def test_nan_flow_settings_exit_1(capsys, cmd, flag):
    # NaN used to pass the positivity checks: the flow integrated nothing
    # and verify-flows printed "passed": true with a bare NaN; bracket
    # compared against its --tol unchecked, so nan, -1 and 5 exited 0
    if cmd == "bracket":
        argvs = [["bracket", "--preset", "heisenberg", "--n", "3", flag, value]
                 for value in ("nan", "-1", "5")]
    else:
        vector = "[1,2,0.5,-1,0.3,2,0,1,-2]"
        argvs = [[cmd, "--family", "adjoint", "--n", "3", "--vector", vector, flag, "nan"]]
    for argv in argvs:
        code = run(argv)
        out = capsys.readouterr()
        assert code == 1 and out.out == "", argv
        assert out.err.startswith("error: ") and "coordinates" not in out.err


def test_torus_weights_via_flag(capsys):
    code, doc = _capture_json(capsys, [
        "label", "--weights", "[[1,0],[0,1]]", "--vector", "[1,1]"])
    assert code == 0
    assert doc["eta"] == ["1/2", "1/2"]


def test_torus_weights_moment_and_flow(capsys):
    code, doc = _capture_json(capsys, [
        "moment", "--weights", "[[1,0],[0,1]]", "--vector", "[1,1]"])
    assert code == 0
    assert doc["matrix"] == [[0.5, 0.0], [0.0, 0.5]]
    code, doc = _capture_json(capsys, [
        "moment", "--weights", "[[1,0],[0,1]]", "--vector", "[1,2]", "--group", "SL"])
    assert code == 0
    assert abs(doc["matrix"][0][0] + doc["matrix"][1][1]) <= 1e-12
    assert doc["matrix"][0][0] < 0
    code, doc = _capture_json(capsys, [
        "flow", "--weights", "[[1,0],[0,1],[-1,2]]", "--vector", "[1,1,1]",
        "--format", "json"])
    assert code == 0
    assert doc["converged"] is True


def test_config_file_overridden_by_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("t_max=1.0\nresidual_tol=1e-6\n# comment\n")
    code, doc = _capture_json(capsys, [
        "flow", "--family", "adjoint", "--n", "2", "--vector", "[0,1,0,0]",
        "--config", str(cfg), "--format", "json"])
    assert code == 0
    assert doc["converged"] is True


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["unknown-subcommand"])
    assert exc.value.code == 2
    code = run(["label", "--family", "adjoint", "--n", "2"])  # missing --vector
    assert code == 2
    code = run(["stratum", "--family", "adjoint", "--n", "2", "--vector", "[0,1,0,0]"])
    assert code == 2


def test_computation_errors_exit_1(capsys):
    code = run(["moment", "--family", "standard", "--n", "2", "--vector", "[0,0]"])
    assert code == 1
    code = run(["jordan", "--partition", "1,1"])
    assert code == 1
    code = run(["label", "--family", "nosuch", "--n", "2", "--vector", "[1,0]"])
    assert code == 1


def test_non_finite_vector_exit_1(capsys):
    for argv in (["moment", "--family", "standard", "--n", "3", "--vector", '[0,1,"nan"]'],
                 ["label", "--family", "standard", "--n", "3", "--vector", '[0,1,"inf"]']):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert "coordinates must be finite; coordinate 2 is" in err


def test_bad_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    for text, message in (("nonsense_key=3\n", "unknown config key 'nonsense_key'"),
                          # the flow's output format is a flag, not a setting
                          ("format=json\n", "unknown config key 'format'"),
                          ("t_max=abc\n", "could not convert string to float"),
                          ("seed=1.5\n", "invalid literal for int()"),
                          ("t_max\n", "expected key=value")):
        cfg.write_text(text)
        code = run(["flow", "--family", "standard", "--n", "2", "--vector", "[1,0]",
                    "--config", str(cfg)])
        assert code == 2
        assert message in capsys.readouterr().err


def test_config_keys_reach_verify_flows(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("t_max=0.5\nmatch_tol=1e-3\nseed=3\nsample_stride=2\n")
    base = ["verify-flows", "--family", "standard", "--n", "2", "--vector", "[1,0]"]
    code, from_file = _capture_json(capsys, base + ["--config", str(cfg)])
    assert code == 0
    assert (from_file["t_max"], from_file["tol"]) == (0.5, 1e-3)
    code, from_flags = _capture_json(capsys, base + ["--t-max", "0.5", "--match-tol", "1e-3",
                                                     "--seed", "3"])
    assert from_flags == from_file
    code, overridden = _capture_json(capsys, base + ["--config", str(cfg), "--seed", "4"])
    assert overridden["h0"] != from_file["h0"]


_FLAGS_READ = {
    "rep-info": {"--family", "--n", "--weights"},
    "moment": {"--family", "--n", "--weights", "--vector", "--group"},
    "flow": {"--family", "--n", "--weights", "--vector", "--group", "--config", "--t-max",
             "--dt0", "--tol", "--format"},
    "verify-flows": {"--family", "--n", "--weights", "--vector", "--group", "--config",
                     "--t-max", "--dt0", "--tol", "--match-tol", "--seed", "--h0"},
    "label": {"--family", "--n", "--weights", "--vector"},
    "labels-enumerate": {"--family", "--n", "--weights", "--cap"},
    "stratum": {"--family", "--n", "--weights", "--vector", "--label"},
    "jordan": {"--partition"},
    "bracket": {"--n", "--config", "--t-max", "--dt0", "--tol", "--preset", "--flow"},
    "project-sl": {"--eta"},
}


def test_each_subcommand_registers_only_the_flags_it_reads():
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    registered = {name: {opt for action in p._actions for opt in action.option_strings
                         if opt not in ("-h", "--help")}
                  for name, p in sub.choices.items()}
    assert registered == _FLAGS_READ
    assert sum(len(flags) for flags in registered.values()) == 52


@pytest.mark.parametrize("argv", [
    ["rep-info", "--family", "standard", "--n", "2", "--group", "SL"],
    ["moment", "--family", "standard", "--n", "2", "--vector", "[1,0]", "--t-max", "1"],
    ["flow", "--family", "standard", "--n", "2", "--vector", "[1,0]", "--seed", "1"],
    ["verify-flows", "--family", "standard", "--n", "2", "--vector", "[1,0]",
     "--format", "csv"],
    ["label", "--family", "adjoint", "--n", "2", "--vector", "[0,1,0,0]", "--group", "SL"],
    ["labels-enumerate", "--family", "standard", "--n", "3", "--config", "cfg"],
    ["stratum", "--family", "adjoint", "--n", "2", "--vector", "[0,1,0,0]", "--label", "-",
     "--dt0", "0.1"],
    ["jordan", "--partition", "3,2", "--n", "5"],
    ["bracket", "--preset", "heisenberg", "--n", "3", "--group", "SL"],
    ["project-sl", "--eta", "[1,0]", "--config", "cfg"],
    # the raw flow is gone with --raw; these argvs used to print its trajectory
    pytest.param(["flow", "--family", "adjoint", "--n", "3", "--vector", "[0,1,0,0,0,2,0,0,0]",
                  "--format", "json", "--raw"], id="flow-raw-adjoint3"),
    pytest.param(["flow", "--family", "adjoint", "--n", "4", "--vector",
                  "[-2,-4,-16,-8,1,-6,-24,-8,-1,0,0,-1,2,4,16,8]", "--format", "json", "--raw"],
                 id="flow-raw-adjoint4"),
    pytest.param(["flow", "--weights", "[[1,0],[0,1],[-1,2]]", "--vector", "[1,1,1]", "--raw"],
                 id="flow-raw-torus"),
], ids=lambda argv: argv[0])
def test_flags_a_subcommand_does_not_read_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_warnings_reported_in_cli_form(capsys):
    argv = ["verify-flows", "--family", "standard", "--n", "2", "--t-max", "1"]
    code = run(argv + ["--vector", "[1,0]", "--h0", "[[1,0],[0,1e-13]]"])
    out, err = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["passed"] is True
    # h0 at entry and h(t) at the end of the run are both ill-conditioned
    lines = err.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("warning: group element has condition number") for line in lines)
    # warnings come ahead of the error that ends a run
    code = run(argv + ["--vector", "[0,1]", "--h0", "[[1,0],[0,1e-300]]"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "warning: group element has condition number 1e+300; results may lose precision",
        "error: cannot flow the zero vector"]


def test_contexts_shared_across_runs(capsys):
    rep_action.cache_clear()
    for _ in range(3):
        assert run(["bracket", "--preset", "chain", "--n", "4"]) == 0
    assert rep_action.cache_info().currsize == 1


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [line for line in block.splitlines() if line.startswith("momentflow ")]


def test_readme_commands_run(capsys, monkeypatch):
    commands = _readme_commands()
    assert len(commands) == 8
    for line in commands:
        stdin = ""
        for stage in line.split(" | "):
            argv = shlex.split(stage)
            assert argv[0] == "momentflow"
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
            assert run(argv[1:]) == 0, stage
            stdin = capsys.readouterr().out


def test_verify_flows_torus_module(capsys):
    # the seeded h0 of a torus module is diagonal, so the check runs
    argv = ["verify-flows", "--weights", "[[1,0],[0,1],[-1,2]]", "--vector", "[1,1,1]",
            "--t-max", "1"]
    code, doc = _capture_json(capsys, argv)
    assert code == 0
    assert doc["passed"] is True
    assert doc["h0"][0][1] == doc["h0"][1][0] == 0.0


def test_verify_flows_torus_rejects_non_diagonal_h0(capsys):
    code = run(["verify-flows", "--weights", "[[1,0],[0,1],[-1,2]]", "--vector", "[1,1,1]",
                "--t-max", "1", "--h0", "[[1,0.5],[0,1]]"])
    err = capsys.readouterr().err
    assert code == 1
    assert "TorusWeights only acts through diagonal matrices; g is not diagonal" in err


def test_flow_error_exits_1(capsys, monkeypatch):
    from momentflow import FlowError, cli

    def lose_positivity(*args, **kwargs):
        raise FlowError("metric lost positivity")

    monkeypatch.setattr(cli, "verify_flow_equivalence", lose_positivity)
    code = run(["verify-flows", "--family", "standard", "--n", "2", "--vector", "[1,0]"])
    assert code == 1
    assert capsys.readouterr().err == "error: metric lost positivity\n"


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_bracket_flow_reaches_the_derivation_verdict(capsys, n):
    # the flow stops at criticality residual sqrt(2) * 1e-10, which bounds
    # the derivation residual by 1e-10; at the default --tol 1e-9 chain 5-7
    # reported is_derivation false
    code, doc = _capture_json(capsys, ["bracket", "--preset", "chain", "--n", str(n), "--flow"])
    assert code == 0 and doc["flowed"] is True
    assert doc["criticality_residual"] <= np.sqrt(2.0) * 1e-10
    check = doc["critical_check"]
    assert check["is_derivation"] is True and check["positive"] is True
    assert check["derivation_residual"] <= 1e-10


@pytest.mark.parametrize("eta", ['{"eta":["1"]}', '{"eta":["1","0","-1"]}'])
def test_stratum_label_of_another_length_exits_1(capsys, eta):
    code = run(["stratum", "--family", "adjoint", "--n", "2", "--vector", "[0,1,0,0]",
                "--label", eta])
    assert code == 1
    assert "entries, expected 2" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["lambda2", "brackets"])
@pytest.mark.parametrize("cmd, message", [("moment", "moment map is undefined at the zero vector"),
                                          ("label", "zero vector has no state"),
                                          ("flow", "cannot flow the zero vector"),
                                          ("verify-flows", "cannot flow the zero vector")])
def test_zero_dimensional_module_raises_the_zero_vector_error(capsys, family, cmd, message):
    # Lambda2(1) and Brackets(1) have dimension 0; the scale check took the
    # max of an empty array and printed numpy's "zero-size array" error
    code = run([cmd, "--family", family, "--n", "1", "--vector", "[]"])
    assert code == 1
    assert capsys.readouterr().err.strip() == f"error: {message}"

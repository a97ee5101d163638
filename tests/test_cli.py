import json

import numpy as np
import pytest

from momentflow.cli import run


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

    import io
    import sys
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    code, doc = _capture_json(capsys, [
        "stratum", "--family", "adjoint", "--n", "2", "--vector", "[0,1,0,0]",
        "--label", "-"])
    assert code == 0
    assert doc["in_V_ge0"] is True
    assert doc["in_U_ge0"] is True
    assert doc["grading"] == [{"weight": [1, -1], "r": "0/1"}]


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
    cfg.write_text("nonsense_key=3\n")
    code = run(["flow", "--family", "standard", "--n", "2", "--vector", "[1,0]",
                "--config", str(cfg)])
    assert code == 2


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

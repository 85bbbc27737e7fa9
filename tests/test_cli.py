import json
import subprocess
import sys

import numpy as np
import pytest


def run(*args):
    return subprocess.run(
        [sys.executable, "-m", "nonlocal_ssh", *args],
        capture_output=True,
        text=True,
    )


BULK = ("--v", "0.5", "--w", "1", "--a", "1")
BOX = ("--v0", "0.5", "--w0", "1", "--a", "0.2", "--L", "2", "--dx", "0.05")


def _rows(csv_text):
    lines = csv_text.strip().split("\n")
    head = lines[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return head, data


def test_bands_csv():
    r = run("bands", *BULK)
    assert r.returncode == 0
    head, data = _rows(r.stdout)
    assert head == ["k", "E_minus", "E_plus", "phi"]
    assert data.shape == (201, 4)
    # sweep covers one full zone symmetrically
    assert data[0, 0] == pytest.approx(-np.pi)
    assert data[-1, 0] == pytest.approx(np.pi)
    assert np.allclose(data[:, 2], data[::-1, 2], atol=1e-12)
    # resolved inputs echoed as JSON on stderr
    echo = json.loads(r.stderr.splitlines()[0])
    assert echo["inputs"]["command"] == "bands"


def test_zak_json_and_determinism():
    r1 = run("zak", *BULK)
    r2 = run("zak", *BULK)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout  # byte-identical reruns
    doc = json.loads(r1.stdout)
    assert doc["schema"] == 1
    assert doc["result"]["classification"] == "topological"
    assert doc["result"]["gamma"] == pytest.approx(np.pi, abs=1e-6)
    assert "finished in" in r1.stderr  # timing is stderr-only


def test_zak_analytic_method():
    r = run("zak", "--v", "2", "--w", "1", "--a", "1", "--method", "analytic")
    doc = json.loads(r.stdout)
    assert doc["result"]["gamma"] == 0.0
    assert doc["result"]["classification"] == "trivial"


def test_approx_table_all_orders():
    r = run("approx", *BULK, "--samples", "31")
    head, data = _rows(r.stdout)
    assert head[0] == "ka" and len(head) == 9
    assert data.shape == (31, 9)
    assert np.all(data[:, 2] == 1.5)  # order 0 band is flat at |v+w|


def test_approx_single_order():
    r = run("approx", *BULK, "--order", "1", "--samples", "11")
    head, data = _rows(r.stdout)
    assert head == ["k", "E_minus", "E_plus"]
    assert data.shape == (11, 3)


def test_berry_json():
    r = run("berry", *BULK, "--order", "1")
    doc = json.loads(r.stdout)
    assert doc["result"]["value"] == pytest.approx(-np.pi / 2, abs=1e-6)
    assert doc["inputs"]["order"] == 1


def test_finite_spectrum_stdout():
    r = run("finite", *BOX)
    assert r.returncode == 0
    head, data = _rows(r.stdout)
    assert head == ["index", "eigenvalue"]
    assert data.shape == (82, 2)
    assert np.all(np.diff(data[:, 1]) >= -1e-12)
    summary = json.loads(r.stderr.splitlines()[1])
    assert summary["levels"] == 82
    assert summary["method"] == "svd"


def test_finite_vectors_need_out():
    r = run("finite", *BOX, "--vectors")
    assert r.returncode == 2
    assert "error" in r.stderr


def test_finite_vectors_written(tmp_path):
    out = tmp_path / "levels.csv"
    r = run("finite", *BOX, "--tol-zero", "0.01", "--vectors", "--out", str(out))
    assert r.returncode == 0
    assert out.exists()
    # m=4 residue chains at these couplings hold 8 split midgap levels
    states = sorted(tmp_path.glob("levels-state-*.csv"))
    assert len(states) == 8
    head, data = _rows(states[0].read_text())
    assert head == ["x", "abs_psi_a", "abs_psi_b"]
    assert data.shape == (41, 3)


def test_finite_vectors_rerun_bytes(tmp_path):
    outs = [tmp_path / run_dir / "levels.csv" for run_dir in ("one", "two")]
    for out in outs:
        out.parent.mkdir()
        r = run("finite", *BOX, "--tol-zero", "0.01", "--vectors", "--out", str(out))
        assert r.returncode == 0
        assert json.loads(r.stderr.splitlines()[1])["method"] == "svd"
    _, levels = _rows(outs[0].read_text())
    midgap = [int(j) for j, ev in levels if abs(ev) < 0.01]
    names = [f"levels-state-{j:04d}.csv" for j in midgap]
    for out in outs:
        assert sorted(f.name for f in out.parent.glob("levels-state-*")) == names
    for name in names:
        assert (outs[0].parent / name).read_bytes() == (outs[1].parent / name).read_bytes()


def test_compare_ssh_streams(tmp_path):
    r = run("compare-ssh", *BOX)
    assert r.returncode == 0
    head, data = _rows(r.stdout)
    assert head == ["index", "E_box", "E_ssh"]
    assert data.shape == (82, 3)
    doc = json.loads(r.stderr.splitlines()[0])
    assert doc["result"]["zero_modes_ssh"] == 2
    # with --out the roles flip: table to the file, JSON to stdout
    out = tmp_path / "cmp.csv"
    r2 = run("compare-ssh", *BOX, "--out", str(out))
    doc2 = json.loads(r2.stdout)
    assert doc2["result"]["zero_modes_ssh"] == 2
    assert out.read_text().startswith("index,E_box,E_ssh\n")


def test_finite_compare_alias():
    direct = run("compare-ssh", *BOX)
    alias = run("finite", *BOX, "--compare-ssh")
    assert alias.returncode == 0
    assert alias.stdout == direct.stdout


def test_edge_outputs():
    args = ("edge", "--v0", "0.5", "--w0", "1", "--a", "0.2", "--L", "4",
            "--dx", "0.0125", "--n-a", "3", "--m-a", "1", "--n-b", "5", "--m-b", "2")
    r = run(*args)
    assert r.returncode == 0
    head, data = _rows(r.stdout)
    assert head == ["x", "abs_psi_a", "abs_psi_b", "re_psi_a", "re_psi_b"]
    assert data.shape == (321, 5)
    doc = json.loads(r.stderr.splitlines()[0])
    assert doc["result"]["q_a"]["re"] == pytest.approx(-np.log(2) / 0.2)
    assert doc["result"]["fitted_slope_b"] == pytest.approx(np.log(2) / 0.2, rel=1e-3)
    assert doc["result"]["residual"] < 1e-3


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("v = 0.5\nw = 1.0\na = 1.0\n")
    r = run("zak", "--config", str(cfg))
    assert json.loads(r.stdout)["result"]["classification"] == "topological"
    # flags beat the file
    r2 = run("zak", "--config", str(cfg), "--v", "2.0")
    assert json.loads(r2.stdout)["result"]["classification"] == "trivial"


def test_validation_exit_codes(tmp_path):
    assert run("zak", "--v", "0.5", "--w", "1").returncode == 2  # missing a
    assert run("bands", *BULK, "--samples", "1").returncode == 2
    assert run("berry", *BULK, "--order", "1", "--cutoff-k", "1").returncode == 2
    assert run("zak", "--no-such-flag").returncode == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("volume = 11\n")
    assert run("zak", "--config", str(bad), "--w", "1", "--a", "1").returncode == 2
    crooked = ("edge", "--v0", "0.5", "--w0", "1", "--a", "0.2", "--L", "4.0125",
               "--dx", "0.0125", "--n-a", "3", "--m-a", "1", "--n-b", "5", "--m-b", "2")
    assert run(*crooked).returncode == 2


def test_numerical_exit_code():
    # gap closes at |v| = |w|: the Wilson loop refuses
    r = run("zak", "--v", "1", "--w", "-1", "--a", "1")
    assert r.returncode == 3
    assert "numerical" in r.stderr


def test_io_failure_exit_code(tmp_path):
    r = run("bands", *BULK, "--out", str(tmp_path / "no" / "dir" / "x.csv"))
    assert r.returncode == 3
    assert "io error" in r.stderr


def test_negative_tolerance_rejected():
    assert run("finite", *BOX, "--tol-zero", "-1e-8").returncode == 2


def test_edge_camel_case_flag_aliases():
    base = ("--v0", "0.5", "--w0", "1", "--a", "0.2", "--L", "4", "--dx", "0.0125")
    r1 = run("edge", *base, "--n-a", "3", "--m-a", "1", "--n-b", "5", "--m-b", "2")
    r2 = run("edge", *base, "--nA", "3", "--mA", "1", "--nB", "5", "--mB", "2")
    assert r2.returncode == 0
    assert r2.stdout == r1.stdout


def test_out_file_and_rerun_bytes(tmp_path):
    out = tmp_path / "bands.csv"
    r = run("bands", *BULK, "--out", str(out))
    assert r.returncode == 0
    assert r.stdout == ""
    first = out.read_bytes()
    run("bands", *BULK, "--out", str(out))
    assert out.read_bytes() == first
    head, data = _rows(out.read_text())
    assert data.shape == (201, 4)

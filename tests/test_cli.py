import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import manifest
import numpy as np
import pytest

from nonlocal_ssh import bulk, cli, finite


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
    assert list(summary) == ["zero_modes", "levels", "tol_zero_abs", "residual_bound"]
    assert summary["levels"] == 82


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
        assert json.loads(r.stderr.splitlines()[1])["levels"] == 82
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


def test_finite_compare_ssh_flag_removed(capsys):
    # the comparison has one route, the compare-ssh subcommand
    assert cli.main(["finite", *BOX, "--compare-ssh"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --compare-ssh" in err


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


@pytest.mark.parametrize("L", [150, 300], ids=["norm-overflows", "exp-overflows"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
def test_edge_answers_past_the_float64_norm(tmp_path, L, to_file):
    # ln|w0/v0| * L/a = 1039.72 and 2079.44: the mode built as exp(q x) overflowed
    # float64 (its norm at L = 150, exp itself at L = 300) and was refused with
    # exit 3; from its peak wall its factor stays at most 1 and the tail
    # underflows to zeros, which the envelope fit leaves out with the
    # subnormal maxima, so both slopes are ln 2/a to rounding
    out = tmp_path / "modes.csv"
    r = run("edge", "--v0", "0.5", "--w0", "1", "--a", "0.1", "--L", str(L), "--dx", "0.01",
            "--n-a", "1", "--n-b", "1", *(("--out", str(out)) if to_file else ()))
    assert r.returncode == 0, r.stderr
    table, doc = (out.read_text(), r.stdout) if to_file else (r.stdout, r.stderr.splitlines()[0])
    result = json.loads(doc)["result"]
    assert result["residual_a"] < 1e-10 and result["residual_b"] < 1e-10
    assert result["fitted_slope_a"] == pytest.approx(-np.log(2.0) / 0.1, rel=1e-9)
    assert result["fitted_slope_b"] == pytest.approx(np.log(2.0) / 0.1, rel=1e-9)
    head, data = _rows(table)
    assert data.shape == (100 * L + 1, 5)
    assert np.sum(data[:, 1] ** 2) == pytest.approx(1.0, rel=1e-12)
    assert data[-1, 1] == 0.0 and data[0, 2] == 0.0  # each tail underflows at the far wall


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


def test_long_chain_blocks_exit_2():
    # finite solves its 40001-cell chain (m = 1) without a dense block; the
    # dense block of compare-ssh's 10001-cell chain exceeds
    # DENSE_MAX_ELEMENTS: refused, nothing written
    box = ("--v0", "0.5", "--w0", "1", "--dx", "0.01")
    r = run("finite", *box, "--a", "0.01", "--L", "400")
    assert r.returncode == 0
    assert r.stdout.count("\n") == 1 + 80002
    summary = json.loads(r.stderr.splitlines()[1])
    assert summary["zero_modes"] == 2 and summary["residual_bound"] < 1e-12
    r = run("compare-ssh", *box, "--a", "0.2", "--L", "100")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "DENSE_MAX_ELEMENTS" in r.stderr


@pytest.mark.parametrize("command, message", [
    ("finite", "error: the box --L = 100000000.0, --dx = 1.0 has 200000002 levels, above the "
               f"ceiling MAX_LEVELS = {finite.MAX_LEVELS}"),
    ("compare-ssh", "100000001-cell chain"),
])
def test_levels_guard_exit_2(command, message):
    # 2*10^8 levels: refused before the 0.8 GB grid is built, naming the inputs
    r = run(command, "--v0", "0.5", "--w0", "1", "--a", "1", "--L", "1e8", "--dx", "1")
    assert r.returncode == 2
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1
    assert message in r.stderr


def test_numerical_exit_code():
    # gap closes at |v| = |w|: the Wilson loop refuses
    r = run("zak", "--v", "1", "--w", "-1", "--a", "1")
    assert r.returncode == 3
    assert "numerical" in r.stderr


def test_io_failure_exit_code(tmp_path):
    r = run("bands", *BULK, "--out", str(tmp_path / "no" / "dir" / "x.csv"))
    assert r.returncode == 3
    assert "io error" in r.stderr


@pytest.mark.parametrize("command", ["finite", "edge", "zak"])
def test_io_failure_names_the_given_path(tmp_path, command):
    # the error names --out as given, not the random temporary file beside
    # it, so reruns print the same bytes
    argv = {"finite": ["finite", *BOX], "zak": ["zak", *BULK],
            "edge": ["edge", *BOX, "--n-a", "1", "--n-b", "1"]}[command]
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])}
    runs = [subprocess.run([sys.executable, "-m", "nonlocal_ssh", *argv, "--out", "nodir/x.csv"],
                           capture_output=True, text=True, cwd=tmp_path, env=env)
            for _ in range(2)]
    errors = [[line for line in r.stderr.splitlines() if "finished in" not in line] for r in runs]
    assert [r.returncode for r in runs] == [3, 3]
    assert errors[0] == errors[1]
    assert errors[0][-1] == "io error: [Errno 2] No such file or directory: 'nodir/x.csv'"
    assert list(tmp_path.iterdir()) == []


def test_negative_tolerance_rejected():
    assert run("finite", *BOX, "--tol-zero", "-1e-8").returncode == 2


@pytest.mark.parametrize("command", ["finite", "compare-ssh"])
@pytest.mark.parametrize("tol, w0", [("inf", "1"), ("1e308", "10"), ("nan", "1"), ("1e-8", "0")],
                         ids=["inf", "overflow", "nan", "w0=0"])
def test_zero_mode_window_refused(tmp_path, capsys, command, tol, w0):
    # the window tol*|w0| must be positive and finite; refused before any output
    argv = [command, "--v0", "0.5", "--w0", w0, "--a", "0.2", "--L", "1", "--dx", "0.1",
            "--tol-zero", tol]
    out = tmp_path / "old.csv"
    out.write_bytes(b"earlier result\n")
    for extra in ([], ["--out", str(out)]):
        assert cli.main(argv + extra) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and "zero-mode window" in err
    assert out.read_bytes() == b"earlier result\n"
    assert [f.name for f in tmp_path.iterdir()] == ["old.csv"]


@pytest.mark.parametrize("argv, message", [
    (["bands", *BULK, "--kmax", "inf"], "--kmax must be finite"),
    (["bands", *BULK, "--kmin", "nan"], "--kmin must be finite"),
    (["approx", *BULK, "--order", "1", "--kmin=-inf"], "--kmin must be finite"),
    (["approx", *BULK, "--order", "2", "--kmax", "nan"], "--kmax must be finite"),
    (["approx", *BULK, "--kmax", "inf"], "--kmax applies to a single order only"),
    (["berry", *BULK, "--order", "1", "--cutoff-k", "nan"], "cutoff_k must be finite"),
    (["berry", *BULK, "--order", "2", "--cutoff-k", "inf"], "cutoff_k must be finite"),
    (["bands", "--v", "0.5", "--w", "1", "--a", "0"], "a must be positive"),
], ids=["bands-kmax", "bands-kmin", "approx-kmin", "approx-kmax", "approx-all-kmax",
        "berry-nan", "berry-inf", "bands-a=0"])
def test_bulk_ranges_refused(capsys, argv, message):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_berry_spacing_refused(tmp_path, capsys):
    # the two samples nearest k = 0 sit at ak = +-51 and skip the whole turn
    # of z(k): refused before sampling instead of answering 0
    argv = ["berry", *BULK, "--order", "2", "--cutoff-k", "1e7", "--nk", "196608"]
    out = tmp_path / "old.json"
    out.write_bytes(b"earlier result\n")
    for extra in ([], ["--out", str(out)]):
        assert cli.main(argv + extra) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and "k spacing" in err
    assert out.read_bytes() == b"earlier result\n"
    assert [f.name for f in tmp_path.iterdir()] == ["old.json"]


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 763. MiB for an array"),
     "out of memory: Unable to allocate 763. MiB for an array\n"),
    (MemoryError(), "out of memory: allocation failed\n"),
], ids=["message", "bare"])
def test_memory_error_exit_code(monkeypatch, capsys, exc, line):
    def exhausted(params, k):
        raise exc

    monkeypatch.setattr(bulk, "energy_bands", exhausted)
    assert cli.main(["bands", *BULK, "--samples", "5"]) == 3
    assert capsys.readouterr() == ("", line)


@pytest.mark.parametrize("flags", [("--kmin", "0", "--kmax", "1"), ("--kmin", "0"), ("--kmax", "1")])
def test_approx_all_orders_refuses_k_range(tmp_path, capsys, flags):
    # the all-orders table always spans one zone of ka; a k range would be ignored
    out = tmp_path / "old.csv"
    out.write_bytes(b"earlier result\n")
    for order in ([], ["--order", "all"]):
        for extra in ([], ["--out", str(out)]):
            argv = ["approx", *BULK, *order, *flags, "--samples", "3", *extra]
            assert cli.main(argv) == 2
            stdout, err = capsys.readouterr()
            given = "/".join(flag for flag in ("--kmin", "--kmax") if flag in flags)
            assert stdout == "" and f"error: {given} applies to a single order only;" in err
            assert "--order" not in err  # it names only flags that were given
    assert out.read_bytes() == b"earlier result\n"
    assert cli.main(["approx", *BULK, "--order", "1", *flags, "--samples", "3"]) == 0


# The first JSON line of each subcommand, byte for byte, on the stream it
# goes to. A line that ends at '"result": ' pins everything up to the
# result, whose floats come from the solvers.
EDGE = ("--v0", "0.5", "--w0", "1", "--a", "0.2", "--L", "4", "--dx", "0.0125",
        "--n-a", "3", "--m-a", "1", "--n-b", "5", "--m-b", "2")
BOX_ECHO = '"v0": 0.5, "w0": 1, "a": 0.20000000000000001, "L": 2, "dx": 0.050000000000000003'
GOLDEN_JSON = {
    "bands": (["bands", *BULK, "--samples", "5"], "err",
              '{"inputs": {"command": "bands", "v": 0.5, "w": 1, "a": 1, '
              '"kmin": -3.1415926535897931, "kmax": 3.1415926535897931, "samples": 5}}'),
    "bands-range": (["bands", "--v", "-0.3", "--w", "1e-7", "--a", "0.1", "--kmin", "0",
                     "--kmax", "1", "--samples", "3"], "err",
                    '{"inputs": {"command": "bands", "v": -0.29999999999999999, '
                    '"w": 9.9999999999999995e-08, "a": 0.10000000000000001, '
                    '"kmin": 0, "kmax": 1, "samples": 3}}'),
    "zak": (["zak", *BULK, "--method", "analytic"], "out",
            '{"schema": 1, "inputs": {"command": "zak", "v": 0.5, "w": 1, "a": 1, '
            '"band": "plus", "nk": 2048, "method": "analytic"}, "result": {"gamma": '
            '3.1415926535897931, "classification": "topological", "k_points": 0}}'),
    "zak-wilson": (["zak", *BULK, "--band", "minus", "--nk", "64"], "out",
                   '{"schema": 1, "inputs": {"command": "zak", "v": 0.5, "w": 1, "a": 1, '
                   '"band": "minus", "nk": 64, "method": "wilson"}, "result": '),
    "approx": (["approx", *BULK, "--samples", "5"], "err",
               '{"inputs": {"command": "approx", "v": 0.5, "w": 1, "a": 1, '
               '"order": "all", "samples": 5}}'),
    "approx-order": (["approx", *BULK, "--order", "2", "--samples", "3"], "err",
                     '{"inputs": {"command": "approx", "v": 0.5, "w": 1, "a": 1, "order": "2", '
                     '"samples": 3, "kmin": -3.1415926535897931, "kmax": 3.1415926535897931}}'),
    "berry": (["berry", *BULK, "--order", "1", "--nk", "2001"], "out",
              '{"schema": 1, "inputs": {"command": "berry", "v": 0.5, "w": 1, "a": 1, '
              '"order": 1, "band": "plus", "cutoff_k": 10000, "nk": 2001}, "result": '),
    "finite": (["finite", *BOX], "err",
               '{"inputs": {"command": "finite", ' + BOX_ECHO
               + ', "tol_zero": 1e-08, "vectors": false}}'),
    "finite-vectors": (["finite", *BOX, "--tol-zero", "0.01", "--vectors", "--out", "levels.csv"],
                       "err", '{"inputs": {"command": "finite", ' + BOX_ECHO
                       + ', "tol_zero": 0.01, "vectors": true}}'),
    "compare-ssh": (["compare-ssh", *BOX], "err",
                    '{"schema": 1, "inputs": {"command": "compare-ssh", ' + BOX_ECHO
                    + ', "tol_zero": 1e-08}, "result": '),
    "compare-ssh-out": (["compare-ssh", *BOX, "--out", "cmp.csv"], "out",
                        '{"schema": 1, "inputs": {"command": "compare-ssh", ' + BOX_ECHO
                        + ', "tol_zero": 1e-08}, "result": '),
    "edge": (["edge", *EDGE], "err",
             '{"schema": 1, "inputs": {"command": "edge", "v0": 0.5, "w0": 1, '
             '"a": 0.20000000000000001, "L": 4, "dx": 0.012500000000000001, '
             '"n_a": 3, "m_a": 1, "n_b": 5, "m_b": 2}, "result": '),
}


@pytest.mark.parametrize("case", GOLDEN_JSON)
def test_json_lines_golden(tmp_path, monkeypatch, capsys, case):
    argv, stream, want = GOLDEN_JSON[case]
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    text = getattr(capsys.readouterr(), stream)
    got = next(ln for ln in text.splitlines() if ln.startswith("{"))
    if want.endswith('"result": '):
        assert got.startswith(want)
        json.loads(got)
    else:
        assert got == want


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
    assert first == run("bands", *BULK).stdout.encode()
    run("bands", *BULK, "--out", str(out))
    assert out.read_bytes() == first
    assert [f.name for f in tmp_path.iterdir()] == ["bands.csv"]  # no temporary left
    head, data = _rows(out.read_text())
    assert data.shape == (201, 4)


def _nan_bands(params, k):
    return bulk.BandPoint(k=k, e_minus=np.full_like(k, np.nan), e_plus=np.full_like(k, np.nan))


def _nan_zak(params, band="plus", nk=2048):
    return bulk.ZakResult(value=float("nan"), classification="topological", k_points=nk)


def _nan_compare(params, tol_zero=None):
    e = np.array([np.nan, 0.0])
    return finite.SpectrumComparison(e_box=e, e_chain=e, ks_distance=0.0,
                                      zero_modes_box=0, zero_modes_chain=0, tol_zero=1e-8)


@pytest.mark.parametrize("argv, module, name, fake", [
    (("bands", *BULK), bulk, "energy_bands", _nan_bands),
    (("zak", *BULK), bulk, "zak_wilson", _nan_zak),
    (("compare-ssh", *BOX), finite, "compare_ssh", _nan_compare),
], ids=["table", "envelope", "table-and-json"])
def test_refused_output_keeps_existing_out_file(tmp_path, monkeypatch, capsys, argv, module, name, fake):
    out = tmp_path / "old.out"
    out.write_bytes(b"earlier result\n")
    monkeypatch.setattr(module, name, fake)
    assert cli.main([*argv, "--out", str(out)]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert out.read_bytes() == b"earlier result\n"
    assert [f.name for f in tmp_path.iterdir()] == ["old.out"]  # no temporary left


def test_replacing_keeps_permissions_and_writes_devices(tmp_path):
    out = tmp_path / "levels.csv"
    out.write_text("old\n")
    out.chmod(0o640)
    with cli._replacing(str(out)) as fh:
        fh.write("new\n")
    assert out.read_text() == "new\n"
    assert out.stat().st_mode & 0o777 == 0o640
    # a symlink is written through, not replaced by a file
    link = tmp_path / "link.csv"
    link.symlink_to(out)
    with cli._replacing(str(link)) as fh:
        fh.write("through\n")
    assert link.is_symlink() and out.read_text() == "through\n"
    # a target that is not a regular file is opened directly
    with cli._replacing(os.devnull) as fh:
        fh.write("discarded\n")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["levels.csv", "link.csv"]


@pytest.mark.parametrize("command", [["finite"], ["compare-ssh"], ["edge", "--n-a", "1", "--n-b", "1"]],
                         ids=["finite", "compare-ssh", "edge"])
def test_zero_couplings_refused(command, capsys):
    box = ["--v0", "0", "--w0", "0", "--a", "0.2", "--L", "1", "--dx", "0.1"]
    assert cli.main(command[:1] + box + command[1:]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "v0 = w0 = 0" in err


def test_bands_beyond_squaring_range(capsys):
    assert cli.main(["bands", "--v", "1e200", "--w", "1.5e200", "--a", "1", "--samples", "5"]) == 0
    _, data = _rows(capsys.readouterr().out)
    ref = np.abs(1e200 + 1.5e200 * np.exp(-1j * data[:, 0]))
    assert np.allclose(data[:, 2], ref, rtol=1e-15, atol=0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["bands", "--v", "1e307", "--w", "1e308", "--a", "1", "--samples", "5"],
    ["approx", "--v", "1.5e308", "--w", "1e307", "--a", "1", "--samples", "5"],
    ["berry", "--v", "1e308", "--w", "1e308", "--a", "1", "--order", "1"],
    ["finite", "--v0", "1e307", "--w0", "1e308", "--a", "0.2", "--L", "2", "--dx", "0.05"],
    ["compare-ssh", "--v0", "1e307", "--w0", "1e308", "--a", "0.2", "--L", "2", "--dx", "0.05"],
], ids=["bands", "approx", "berry", "finite", "compare-ssh"])
def test_couplings_near_float_max_answered(capsys, argv):
    # the scale 2**1024 of the bands, the sum v + w of the Berry samples and
    # the squares of the box residual used to overflow: a traceback, a
    # warning, or exit 3 after the table was written
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert out and "Warning" not in err
    summary = [json.loads(line) for line in err.splitlines() if "residual_bound" in line]
    for doc in summary:
        assert 0.0 < doc["residual_bound"] < 1e-12 * 1e308


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["bands", "--v", "1.7e308", "--w", "1e308", "--a", "1", "--samples", "5"],
    ["bands", "--v", "1e308", "--w", "1e308", "--a", "1"],
    ["approx", "--v", "1e307", "--w", "1e308", "--a", "1"],
    ["approx", "--v", "1e308", "--w", "1e308", "--a", "1", "--order", "2"],
    ["finite", "--v0", "1e308", "--w0", "1e308", "--a", "0.2", "--L", "2", "--dx", "0.05"],
    ["compare-ssh", "--v0", "1e308", "--w0", "1e308", "--a", "0.2", "--L", "2", "--dx", "0.05"],
], ids=["bands-1.7e308", "bands", "approx", "approx-order-2", "finite", "compare-ssh"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_levels_beyond_float_max_refused(tmp_path, capsys, argv, to_file):
    # refused in the solver, before any output: one stderr line naming the
    # couplings, no warning, empty stdout, no file
    extra = ["--out", str(tmp_path / "result")] if to_file else []
    assert cli.main(argv + extra) == 3
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    coupling = "v0" if argv[0] in ("finite", "compare-ssh") else "v"
    assert err.startswith("numerical failure: ") and f"{coupling} = " in err
    assert "float64 range" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, code, message", [
    # gapped couplings below ~1e-12 used to fail the phase's absolute gap test
    ("bands --v 1e-320 --w 3e-320 --a 1 --samples 5", 0, None),
    ("zak --v 1e-310 --w 1e-309 --a 1", 0, None),
    ("bands --v=-1e-320 --w 1e-320 --a 1 --samples 5", 3, "at v = -1e-320, w = 1e-320: phase undefined"),
    # a*k, kmax - kmin or 2K beyond the float64 range: numpy warnings, then a
    # wrong reason or a ValueError traceback
    ("bands --v 0.5 --w 1 --a 1e10 --kmax 1e300 --samples 5", 2, "the k range --kmax = ["),
    ("bands --v 0.5 --w 1 --a 1 --kmin -1e308 --kmax 1e308", 2, "kmax - kmin"),
    ("berry --v 0.5 --w 1 --a 1 --order 1 --cutoff-k 1e308", 2, "2*cutoff_k and 2*a*cutoff_k"),
    ("approx --v 0.5 --w 1 --a 1 --order 2 --kmax 1e200", 3, "order-2 bands at v = 0.5"),
    # negative values in exponent notation, each its own token, used to read
    # as a missing value on Python < 3.12.7
    ("bands --v 1e308 --w -3e299 --a 1", 0, None),
    ("zak --v -1e-320 --w 1e-320 --a 1", 3, "band gap closes"),
    # an odd nk misses the gap minimum at k = 0 for v*w < 0: the critical
    # point and near-critical topological chains were answered "trivial"
    ("zak --v 1 --w -1 --a 1 --nk 17", 2, "nk = 17 cannot resolve the phase"),
    ("zak --v 0.999 --w -1 --a 1 --nk 17", 2, "nk = 17 cannot resolve the phase"),
    # the Zak phase and the all-orders table do not depend on a, but their
    # momenta -pi/a .. pi/a overflowed: a NaN, or a refusal naming --kmin/--kmax
    ("zak --v 0.5 --w 1 --a 1e-307", 0, None),
    ("zak --v 0.5 --w 1 --a 5e-324", 0, None),
    ("approx --v 0.5 --w 1 --a 1e-310 --samples 5", 0, None),
    # defaults that overflow are named with --a, not as flags never given
    ("berry --v 0.5 --w 1 --a 1e-310 --order 1", 2, "the default cutoff 1e4/a at --a = 1e-310"),
    ("bands --v 0.5 --w 1 --a 1e-310", 2, "the default k range [-pi/a, pi/a] at --a = 1e-310"),
    # (ak)^2 overflows, w (ak)^2 / 2 does not: every band is |v| = 1
    ("approx --v 1 --w 0 --a 1 --order 2 --kmax 1e200 --samples 3", 0, None),
    # no zero modes outside the topological phase |v0| < |w0|
    ("edge --v0 1 --w0 0.5 --a 0.2 --L 2 --dx 0.05 --n-a 1 --n-b 1", 2,
     "v0 = 1.0, w0 = 0.5 is not in the topological phase"),
    # the envelope fit took raw positions: slopes 0 and a polyfit warning at
    # a = 1e300, a LinAlgError traceback at a = 1e-200
    ("edge --v0 0.5 --w0 1 --a 1e300 --L 2e301 --dx 1e299 --n-a 1 --n-b 1", 0, None),
    ("edge --v0 0.5 --w0 1 --a 1e-200 --L 2e-199 --dx 1e-201 --n-a 1 --n-b 1", 0, None),
    # w0/v0 underflowed (a divide-by-zero warning) or overflowed (growth inf,
    # then a refusal of the mode's norm); the mode decays by e^-1381.55 per
    # hop, so all but one window of its envelope underflows
    ("edge --v0 1e300 --w0 1e-300 --a 1 --L 20 --dx 0.1 --n-a 1 --n-b 1", 2,
     "v0 = 1e+300, w0 = 1e-300 is not in the topological phase"),
    ("edge --v0 1e-300 --w0 1e300 --a 1 --L 20 --dx 0.1 --n-a 1 --n-b 1", 2,
     "need at least 10 envelope maxima, found 1"),
])
def test_extreme_inputs_answer_or_refuse_cleanly(capsys, argv, code, message):
    assert cli.main(argv.split()) == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and len(err.splitlines()) == 1 and message in err
    else:
        assert out and "Warning" not in err


def test_tiny_and_negative_exponent_couplings_answered(capsys):
    assert cli.main(["bands", "--v", "1e-320", "--w", "3e-320", "--a", "1", "--samples", "5"]) == 0
    _, data = _rows(capsys.readouterr().out)
    s = 2.0 ** -1060  # v and w are multiples of 2**-1074: exact after scaling
    h = 1e-320 / s + 3e-320 / s * np.exp(-1j * data[:, 0])
    assert np.allclose(np.exp(1j * data[:, 3]), h / np.abs(h), rtol=0, atol=1e-15)
    assert np.all(data[:, 2] > 0.0)
    assert cli.main(["zak", "--v", "1e-310", "--w", "1e-309", "--a", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["gamma"] == pytest.approx(np.pi)
    assert cli.main(["bands", "--v", "1e308", "--w", "-3e299", "--a", "1", "--samples", "3"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(err.splitlines()[0])["inputs"]["w"] == -3e299
    _, data = _rows(out)
    assert data[:, 2] == pytest.approx(np.abs(1e308 - 3e299 * np.exp(-1j * data[:, 0])), rel=1e-15)


@pytest.mark.parametrize("command", ["finite", "compare-ssh"])
def test_underflowing_zero_mode_window_names_inputs(capsys, command):
    # 1e-8 * 1e-320 underflows to 0.0; the refusal names the inputs, not 0.0
    assert cli.main([command, "--v0", "1", "--w0", "1e-320", "--a", "0.2", "--L", "2",
                     "--dx", "0.05"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: the zero-mode window --tol-zero * |w0| = 1e-08 * 1e-320 "
                   "= 0.0 must be positive and finite\n")


def _files(directory):
    return {f.name: f.read_bytes() for f in sorted(directory.iterdir())}


def test_in_process_calls_match_fresh_interpreters(tmp_path, capsys):
    # main() reuses one parser per process: options given in one call must
    # not carry over to the next
    calls = [
        ("finite", *BOX, "--tol-zero", "0.01", "--vectors", "--out", "{dir}/levels.csv"),
        ("finite", *BOX),
        ("bands", *BULK, "--kmin", "0", "--kmax", "1", "--samples", "7"),
        ("bands", *BULK, "--samples", "7"),
        ("zak", *BULK),
    ]
    parser = cli._cached_parser()
    for i, argv in enumerate(calls):
        fresh_dir, here_dir = tmp_path / f"fresh{i}", tmp_path / f"here{i}"
        fresh_dir.mkdir()
        here_dir.mkdir()
        fresh = run(*(a.format(dir=fresh_dir) for a in argv))
        assert cli.main([a.format(dir=here_dir) for a in argv]) == fresh.returncode == 0
        assert capsys.readouterr().out == fresh.stdout
        assert _files(here_dir) == _files(fresh_dir)
    assert cli._cached_parser() is parser
    assert len(_files(tmp_path / "here0")) > 1  # the levels and the midgap states


_LIST_SCIPY = "print('SCIPY', sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def _scipy_modules_in_child(code):
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    line = [ln for ln in r.stdout.splitlines() if ln.startswith("SCIPY ")][-1]
    return line[len("SCIPY "):]


def test_import_loads_no_scipy():
    assert _scipy_modules_in_child("import sys\nimport nonlocal_ssh\n" + _LIST_SCIPY) == "[]"


def test_import_leaves_the_chain_solver_unloaded():
    # the closed-form chain solver is compiled on the first box solved, so a
    # process that never solves one does not pay for it
    code = ("import sys\nimport nonlocal_ssh\nprint('nonlocal_ssh._chain' in sys.modules)\n"
            "from nonlocal_ssh import FiniteParams, build_finite, spectrum\n"
            "spectrum(build_finite(FiniteParams(v0=0.5, w0=1.0, a=0.2, L=2.0, dx=0.05)))\n"
            "print('nonlocal_ssh._chain' in sys.modules)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["False", "True"]


def test_cli_zak_loads_no_scipy():
    # runs the package as `python -m nonlocal_ssh zak ...` does, then looks
    # at what the run left in sys.modules
    argv = ["nonlocal_ssh", "zak", *BULK]
    code = (
        "import runpy, sys\n"
        f"sys.argv = {argv!r}\n"
        "try:\n"
        "    runpy.run_module('nonlocal_ssh', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        + _LIST_SCIPY
    )
    assert _scipy_modules_in_child(code) == "[]"


def _readme_cli_examples():
    # the README's shell blocks that call the CLI, continuation lines joined
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("nonlocal-ssh "):
                commands.append(shlex.split(line))
    return commands


def test_byte_manifest_covers_readme_examples():
    listed = {tuple(shlex.split(command)) for command in manifest.COMMANDS}
    assert all(tuple(argv[1:]) in listed for argv in _readme_cli_examples())


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    commands = _readme_cli_examples()
    assert {c[1] for c in commands} >= {"bands", "zak", "finite", "compare-ssh", "edge"}
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
        capsys.readouterr()

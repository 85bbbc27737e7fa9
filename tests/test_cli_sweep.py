"""The bulk and box subcommands at every coupling magnitude, through cli.main.

Couplings are drawn log-uniform over [1e-320, 1e308] with random signs and
the hop length a over [1e-323, 1e308], each passed as a token of its own,
with small grids and optional wide k ranges (also on the all-orders
approx table, which refuses them) and Berry cutoffs. Box runs (finite,
with and without --vectors --out, compare-ssh and edge) take a over
[1e-300, 1e300], L = j a and dx = a/m for small integers j >= 10 and m,
and a third of them ln|w0/v0| L/a in [710, 1500] over 100 to 150 hops.
Every run answers or refuses cleanly: exit 0, 2 or 3, no Python warning,
and a refusal writes one stderr line, naming no flag the command line does
not hold (the zero-mode window names --tol-zero either way), and nothing
to stdout or to the --out directory. An answer is right: bands against
|v + w e^{-iak}|, Zak phases against the closed form, box levels against
the SVD of each chain block (box_reference.py), midgap counts against
those levels, and edge exponents against ln|w0/v0|/a in 40-digit decimal
and slopes against the closed-form decay rates. Gapped couplings are
answered, by zak at every a, and so is every box whose levels and
zero-mode window are finite.
"""

import contextlib
import decimal
import io
import json
import math
import re
import tempfile
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from box_reference import chain_cells, reference_levels
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonlocal_ssh import cli
from nonlocal_ssh.bulk import zak_analytic
from nonlocal_ssh.edge import zero_mode_exponents
from nonlocal_ssh.errors import NumericalError
from nonlocal_ssh.finite import ZERO_TOL_DEFAULT
from nonlocal_ssh.model import BulkParams, FiniteParams, wrap_angle

EPS = float(np.finfo(float).eps)
TINY = 2.0 ** -1074  # the smallest subnormal


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


def _signed(magnitude):
    return st.tuples(magnitude, st.sampled_from([1.0, -1.0])).map(lambda t: t[0] * t[1])


COUPLING = _signed(_log_uniform(1e-320, 1e308))
WIDE = _log_uniform(1e-3, 1e308)


@st.composite
def bulk_runs(draw):
    """(v, w, a, argv) for one bands, approx, zak or berry run."""
    v, w = draw(COUPLING), draw(COUPLING)
    a = draw(_log_uniform(1e-323, 1e308))
    command = draw(st.sampled_from(["bands", "approx", "zak", "berry"]))
    argv = [command, "--v", repr(v), "--w", repr(w), "--a", repr(a)]
    if command in ("bands", "approx"):
        argv += ["--samples", str(draw(st.integers(2, 9)))]
        if command == "approx":  # no --order is the all-orders table
            order = draw(st.sampled_from([None, "all", "0", "1", "2"]))
            argv += ["--order", order] if order else []
        for flag in ("--kmin", "--kmax"):
            if draw(st.booleans()):
                argv += [flag, repr(draw(_signed(WIDE)))]
    elif command == "zak":
        argv += ["--method", draw(st.sampled_from(["wilson", "analytic"])),
                 "--band", draw(st.sampled_from(["plus", "minus"])),
                 "--nk", str(draw(st.integers(16, 300)))]
    else:
        argv += ["--order", draw(st.sampled_from(["1", "2"])),
                 "--nk", str(draw(st.integers(1001, 4001)))]
        if draw(st.booleans()):
            argv += ["--cutoff-k", repr(draw(WIDE))]
    return v, w, a, argv


def _run(argv):
    """cli.main(argv) with any warning raised as an error: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _flag(argv, flag):
    return float(argv[argv.index(flag) + 1]) if flag in argv else None


def _csv_rows(text):
    return np.array([[float(x) for x in line.split(",")] for line in text.splitlines()[1:]])


def _check_bands(v, w, a, out):
    rows = _csv_rows(out)
    k, e_plus = rows[:, 0], rows[:, 2]
    # compare on couplings scaled by a power of two, where the squares cannot
    # overflow; E^2 = v^2 + w^2 + 2vw cos(ak) is rounded to ~eps absolute
    # there, and a subnormal E to the nearest multiple of TINY
    s = math.ldexp(1.0, math.frexp(max(abs(v), abs(w)))[1] - 1)
    got = e_plus / s
    ref = np.abs(v / s + (w / s) * np.exp(-1j * a * k))
    tol = 1e-12 * ref**2 + 64.0 * EPS + 2.0 * (got + ref) * TINY / s
    assert np.all(np.abs(got**2 - ref**2) <= tol), (got, ref)


def _check_zak(v, w, a, out):
    gamma = json.loads(out)["result"]["gamma"]
    try:
        want = zak_analytic(BulkParams(v=v, w=w, a=a)).value
    except NumericalError:
        pytest.fail(f"a Zak phase {gamma} at the critical point |v| = |w|")
    assert abs(wrap_angle(gamma - want)) < 1e-6


def _must_answer(v, w, a, argv):
    """Gapped couplings with a finite a*k range and bands in the float64 range."""
    weak, strong = sorted((abs(v), abs(w)))
    if weak > 0.95 * strong or argv[0] not in ("bands", "zak"):
        return False
    if argv[0] == "zak":
        return True
    kmin = _flag(argv, "--kmin")
    kmax = _flag(argv, "--kmax")
    kmin = -math.pi / a if kmin is None else kmin
    kmax = math.pi / a if kmax is None else kmax
    return all(map(math.isfinite, (a * kmin, a * kmax, kmax - kmin, weak + strong)))


@settings(max_examples=300, deadline=None)
@given(bulk_runs())
def test_bulk_commands_answer_or_refuse_cleanly(run):
    v, w, a, argv = run
    code, out, err = _run(argv)
    assert code in (0, 2, 3), (code, err)
    if code:
        assert out == "" and len(err.splitlines()) == 1, err
        assert set(re.findall(r"--[a-z][a-z-]*", err)) <= set(argv), err
        assert not _must_answer(v, w, a, argv), err
    elif argv[0] == "bands":
        _check_bands(v, w, a, out)
    elif argv[0] == "zak":
        _check_zak(v, w, a, out)


def _json_line(err, key):
    """The JSON document on stderr that holds key (in its result, if it has one)."""
    docs = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
    docs = [d.get("result", d) for d in docs]
    return next(d for d in docs if key in d)


@st.composite
def box_runs(draw):
    """(params, argv, out) for one finite, compare-ssh or edge run; out: whether it takes --out."""
    couplings = draw(st.sampled_from(["any", "near", "deep"]))
    if couplings == "deep":
        # ln|w0/v0| L/a in [710, 1500] over 100 to 150 hops: the edge modes'
        # tails fall through the subnormals to zeros (m >= 3 has harmonics)
        m, hops = draw(st.integers(3, 6)), draw(st.integers(100, 150))
        v0 = draw(_signed(_log_uniform(1e-300, 1e300)))
        w0 = draw(_signed(st.floats(710.0, 1500.0).map(lambda d: abs(v0) * math.exp(d / hops))))
    else:
        m = draw(st.integers(1, 19))
        hops = draw(st.integers(10, max(10, 199 // m)))
        v0 = draw(COUPLING)
        if couplings == "any":
            w0 = draw(COUPLING)
        else:  # within three decades of v0, where edge's modes fit in float64
            e = min(max(math.log10(abs(v0)) + draw(_signed(st.floats(1e-9, 3))), -320.0), 308.0)
            w0 = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** e
        if abs(v0) > abs(w0) and draw(st.booleans()):  # the topological phase, 3 draws in 4
            v0, w0 = w0, v0
    a = draw(_log_uniform(1e-300, 1e300))
    L, dx = hops * a, a / m
    box = ["--v0", repr(v0), "--w0", repr(w0), "--a", repr(a), "--L", repr(L), "--dx", repr(dx)]
    commands = ["edge", "finite", "finite --out", "finite --vectors", "compare-ssh"]
    command = draw(st.sampled_from(commands))
    argv = [command.split()[0], *box]
    if command == "edge":
        for flag in ("--n-a", "--n-b"):
            argv += [flag, str(draw(st.integers(1, max(1, m // 2))))]
        for flag in ("--m-a", "--m-b"):
            if draw(st.booleans()):
                argv += [flag, str(draw(st.integers(-2, 2)))]
    else:
        if draw(st.booleans()):
            argv += ["--tol-zero", repr(draw(_log_uniform(1e-16, 1e-1)))]
        argv += ["--vectors"] * (command == "finite --vectors")
    return FiniteParams(v0=v0, w0=w0, a=a, L=L, dx=dx), argv, command.startswith("finite --")


def _norm(params):
    return 2.0 * max(abs(params.v0), abs(params.w0))


def _levels_close(got, want, params):
    # LAPACK's SVD is accurate to about eps times the block's norm, and a
    # subnormal level to a few multiples of the smallest subnormal
    assert np.isfinite(want).all()
    assert np.max(np.abs(got - want)) <= max(1e-13 * _norm(params), 4 * TINY), (got, want)


def _check_zero_modes(count, levels, tol_abs):
    # levels are the P non-negative ones; a level within a factor 10 of the
    # window edge may fall on either side of it
    if not np.any((levels > tol_abs / 10) & (levels < tol_abs * 10)):
        assert count == 2 * np.count_nonzero(levels < tol_abs)


def _check_finite(params, argv, table, err, directory):
    want = reference_levels(params.v0, params.w0, chain_cells(params))
    p = params.n_points
    assert np.array_equal(table[:, 0], np.arange(2 * p))
    _levels_close(table[p:, 1], want, params)
    summary = _json_line(err, "zero_modes")
    _check_zero_modes(summary["zero_modes"], want, summary["tol_zero_abs"])
    assert summary["residual_bound"] <= 1e-12 * _norm(params) + 16 * p * TINY
    if "--vectors" in argv:
        midgap = np.flatnonzero(np.abs(table[:, 1]) < summary["tol_zero_abs"])
        names = sorted(f.name for f in directory.iterdir() if "-state-" in f.name)
        assert names == [f"levels-state-{j:04d}.csv" for j in midgap]
        for name in names:
            state = _csv_rows((directory / name).read_text())
            assert state.shape == (p, 3)
            assert np.sum(state[:, 1] ** 2 + state[:, 2] ** 2) == pytest.approx(1.0, abs=1e-12)


def _check_compare(params, table, err):
    p = params.n_points
    want_box = reference_levels(params.v0, params.w0, chain_cells(params))
    want_chain = reference_levels(params.v0, params.w0, [p])
    _levels_close(table[p:, 1], want_box, params)
    _levels_close(table[p:, 2], want_chain, params)
    result = _json_line(err, "zero_modes_box")
    _check_zero_modes(result["zero_modes_box"], want_box, result["tol_zero_abs"])
    _check_zero_modes(result["zero_modes_ssh"], want_chain, result["tol_zero_abs"])


def _check_edge(params, err):
    # Re q against ln|w0/v0|/a from the exact binary inputs to 40 digits,
    # to a few ulps (a subnormal rate to the nearest multiple of TINY)
    result = _json_line(err, "fitted_slope_a")
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        rate = (Decimal(abs(params.w0)) / Decimal(abs(params.v0))).ln() / Decimal(params.a)
    for got in (-result["q_a"]["re"], result["q_b"]["re"]):
        assert abs(Decimal(got) - rate) <= 8 * Decimal(EPS) * abs(rate) + Decimal(TINY), (got, rate)
    # the log-envelope is rounded to about eps, so a nearly flat one
    # (|w0/v0| near 1) fixes its slope only to about eps/L
    q_a, q_b = zero_mode_exponents(params)
    for got, want in ((result["fitted_slope_a"], q_a.real), (result["fitted_slope_b"], q_b.real)):
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12 / params.L)


def _box_must_answer(params, argv):
    """finite and compare-ssh boxes whose levels and zero-mode window are finite."""
    if argv[0] == "edge":
        return False
    tol = float(argv[argv.index("--tol-zero") + 1]) if "--tol-zero" in argv else ZERO_TOL_DEFAULT
    cells = chain_cells(params) + ([params.n_points] if argv[0] == "compare-ssh" else [])
    finite_levels = np.isfinite(reference_levels(params.v0, params.w0, cells)).all()
    return finite_levels and 0.0 < tol * abs(params.w0) < math.inf


# |w0/v0| = 1 + 1.4e-10, where the log of the rounded ratio lost 6 digits of Re q
NEAR_CRITICAL = ["edge", "--v0", "0.7", "--w0", "0.7000000001", "--a", "1", "--L", "20", "--dx", "0.1",
                 "--n-a", "1", "--n-b", "1"]


@settings(max_examples=500, deadline=None)
@given(box_runs())
@example((FiniteParams(v0=0.7, w0=0.7000000001, a=1.0, L=20.0, dx=0.1), NEAR_CRITICAL, False))
def test_box_commands_answer_or_refuse_cleanly(run):
    params, argv, out = run
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        if out:
            argv = [*argv, "--out", str(directory / "levels.csv")]
        code, stdout, err = _run(argv)
        assert code in (0, 2, 3), (code, err)
        if code:
            assert stdout == "" and len(err.splitlines()) == 1, err
            assert set(re.findall(r"--[a-z][a-z-]*", err)) <= set(argv) | {"--tol-zero"}, err
            assert not list(directory.iterdir())
            assert not _box_must_answer(params, argv), err
        elif argv[0] == "finite":
            text = (directory / "levels.csv").read_text() if out else stdout
            _check_finite(params, argv, _csv_rows(text), err, directory)
        elif argv[0] == "compare-ssh":
            _check_compare(params, _csv_rows(stdout), err)
        else:
            _check_edge(params, err)

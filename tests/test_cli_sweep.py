"""The bulk subcommands at every coupling magnitude, through cli.main.

Couplings are drawn log-uniform over [1e-320, 1e308] with random signs and
the hop length a over [1e-323, 1e308], each passed as a token of its own,
with small grids and optional wide k ranges (also on the all-orders
approx table, which refuses them) and Berry cutoffs. Every run
answers or refuses cleanly: exit 0, 2 or 3, no Python warning, and a
refusal writes one stderr line, naming no flag the command line does not
hold, and nothing to stdout. An answer is right: bands against
|v + w e^{-iak}|, Zak phases against the closed form. Gapped couplings are
answered, by zak at every a.
"""

import contextlib
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocal_ssh import cli
from nonlocal_ssh.bulk import zak_analytic
from nonlocal_ssh.errors import NumericalError
from nonlocal_ssh.model import BulkParams, wrap_angle

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


def _check_bands(v, w, a, out):
    rows = np.array([[float(x) for x in line.split(",")] for line in out.splitlines()[1:]])
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

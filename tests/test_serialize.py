import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocal_ssh import _csv
from nonlocal_ssh.errors import NumericalError, ValidationError
from nonlocal_ssh.serialize import (
    _CSV_CHUNK_VALUES,
    Table,
    complex_fields,
    emit_csv,
    emit_json,
    envelope,
    format_float,
    load_config,
)

RNG = np.random.default_rng(99)


def test_format_float_round_trips():
    for x in [0.1, 1.0, -3.4657359027997261, 1e-300, np.pi]:
        assert float(format_float(x)) == x
    for x in RNG.normal(size=50) * 10.0 ** RNG.integers(-20, 20, 50):
        assert float(format_float(float(x))) == x
    assert format_float(1.0) == "1"
    assert format_float(0.1) == "0.10000000000000001"


def test_format_float_rejects_non_finite():
    with pytest.raises(NumericalError, match="non-finite value nan in output"):
        format_float(float("nan"))
    with pytest.raises(NumericalError, match="non-finite value inf in output"):
        format_float(float("inf"))


def test_emit_csv():
    t = Table(columns=["k", "e"], rows=np.array([[0.0, 1.5], [0.5, -0.25]]))
    buf = io.StringIO()
    emit_csv(t, buf)
    assert buf.getvalue() == "k,e\n0,1.5\n0.5,-0.25\n"


def _reference_csv(table):
    # one format_float call per value: what the CSV kernel must match byte for byte
    lines = [",".join(table.columns)]
    lines += [",".join(format_float(x) for x in row) for row in table.rows]
    return "\n".join(lines) + "\n"


_TINY = np.finfo(float).tiny
_MAX = np.finfo(float).max
SPECIAL_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, _TINY * (1 - 2**-52), _TINY, -_TINY,
    _MAX, -_MAX, 1e16, -1e16, 2.0**53 + 2, 123456789012345678.0, 1e22, 1e300,
    0.1, 1.0 / 3.0, -2.5,
]


def _csv_values(n_values):
    values = RNG.normal(size=n_values) * 10.0 ** RNG.integers(-320, 306, n_values)
    k = min(n_values, len(SPECIAL_VALUES))
    values[:k] = SPECIAL_VALUES[:k]
    values[n_values - k :] = SPECIAL_VALUES[::-1][:k]
    return values


def _chunk_rows(ncols):
    return _CSV_CHUNK_VALUES // ncols


@pytest.mark.parametrize("ncols", [1, 9])
@pytest.mark.parametrize("shape", ["empty", "one", "chunk-1", "chunk", "chunk+1", "chunks"])
def test_emit_csv_matches_per_value_reference(ncols, shape):
    chunk = _chunk_rows(ncols)
    nrows = {"empty": 0, "one": 1, "chunk-1": chunk - 1, "chunk": chunk,
             "chunk+1": chunk + 1, "chunks": 3 * chunk + 7}[shape]
    rows = _csv_values(nrows * ncols).reshape(nrows, ncols)
    table = Table(columns=[f"c{j}" for j in range(ncols)], rows=rows)
    buf = io.StringIO()
    emit_csv(table, buf)
    assert buf.getvalue() == _reference_csv(table)
    assert buf.getvalue().count("\n") == nrows + 1


def _from_bits(bits):
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


def _nudged(x, ulps):
    # ulps steps from positive x through its bit pattern, stopping at zero
    return float(np.maximum(np.array([x]).view(np.int64) + ulps, 0).view(np.float64)[0])


_CSV_VALUES = st.one_of(
    # any finite binary64: sign, biased exponent below 2047, mantissa
    st.builds(lambda sign, exp, man: _from_bits(sign << 63 | exp << 52 | man),
              st.integers(0, 1), st.integers(0, 2046), st.integers(0, 2**52 - 1)),
    # next to a power of ten, where floor(log10|x|) can be one off
    st.builds(lambda k, ulps, sign: sign * _nudged(float(f"1e{k}"), ulps),
              st.integers(-323, 308), st.integers(-4, 4), st.sampled_from([1.0, -1.0])),
    # exact 18-digit values halfway between two 17-digit ones
    st.builds(lambda m, q: m + q, st.integers(10**15, 2**51 - 1), st.sampled_from([0.25, 0.75])),
    # zeros, and the edges of the vectorized range, written by format_float
    st.sampled_from([0.0, -0.0, 5e-324, 1e-250, -1e-250, _nudged(1e-250, -1), 1e250,
                     _nudged(1e250, -1), -1e300, _MAX, _TINY]),
)


@st.composite
def _csv_tables(draw):
    ncols = draw(st.integers(1, 9))
    nrows = draw(st.integers(1, 30))
    n = nrows * ncols
    values = draw(st.lists(_CSV_VALUES, min_size=n, max_size=n))
    if draw(st.booleans()):
        # zero-heavy, as --vectors state files are: about 2/3 of the fields +-0
        zeros = draw(st.lists(st.sampled_from([None, 0.0, -0.0]), min_size=n, max_size=n))
        values = [v if z is None else z for v, z in zip(values, zeros)]
    return Table(columns=[f"c{j}" for j in range(ncols)], rows=np.reshape(values, (nrows, ncols)))


@st.composite
def _shared_tables(draw):
    # columns that are +-copies (whole-column or per-row signs) or constants
    # of others, copies of copies and of constants included, over values of
    # every kind (_level_pool); in a table of two or more chunks, one value
    # off in a later chunk leaves its column shared (or constant) in the
    # earlier chunks only
    ncols = draw(st.integers(1, 9))
    chunk = _chunk_rows(ncols)
    nrows = draw(st.one_of(st.integers(1, 30), st.sampled_from([chunk, chunk + 1, 2 * chunk + 3])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = _level_pool(rng, 16)
    rows = rng.choice(pool, (nrows, ncols))
    for j in range(ncols):
        kind = draw(st.sampled_from(["own", "copy", "copy", "const"] if j else ["own", "const"]))
        if kind == "copy":
            signs = draw(st.sampled_from([[1.0], [-1.0], [1.0, -1.0]]))
            rows[:, j] = rng.choice(signs, nrows) * rows[:, draw(st.integers(0, j - 1))]
        elif kind == "const":
            rows[:, j] = rng.choice(pool)
    if nrows > chunk and draw(st.booleans()):
        rows[draw(st.integers(chunk, nrows - 1)), draw(st.integers(0, ncols - 1))] = rng.normal()
    return Table(columns=[f"c{j}" for j in range(ncols)], rows=rows)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_csv_tables(), _shared_tables()))
def test_emit_csv_matches_per_value_reference_property(table):
    buf = io.StringIO()
    emit_csv(table, buf)
    assert buf.getvalue() == _reference_csv(table)


def test_shared_and_constant_columns_are_formatted_once():
    # [x, -x, c, x with mixed signs]: the kernel sees x and c once each, and
    # the copies of a fallback field (|x| >= 1e250) keep their own signs
    x = np.concatenate([RNG.normal(size=50), [0.0, -0.0, 1e300, -3e-300]])
    signs = RNG.choice([-1.0, 1.0], x.size)
    table = Table(columns=["x", "minus_x", "c", "signed_x"],
                  rows=np.column_stack([x, -x, np.full(x.size, -1e-260), signs * x]))
    buf = io.StringIO()
    with mock.patch.object(_csv, "_fields", wraps=_csv._fields) as kernel:
        emit_csv(table, buf)
    assert buf.getvalue() == _reference_csv(table)
    assert [call.args[0].size for call in kernel.call_args_list] == [x.size + 1]


def _level_pool(rng, k):
    # k values of each kind the index route must format: any magnitude,
    # signed zeros, subnormals, magnitudes outside [1e-250, 1e250) and exact
    # ties between two 17-digit decimals, each with either sign
    signs = rng.choice([-1.0, 1.0], k)
    return np.concatenate([
        rng.normal(size=k) * 10.0 ** rng.integers(-320, 306, k),
        signs * 0.0,
        signs * rng.integers(1, 2**20, k) * 5e-324,
        signs * 10.0 ** rng.uniform(250, 308, k),
        signs * 10.0 ** rng.uniform(-323, -250, k),
        signs * (rng.integers(10**15, 2**51, k) + rng.choice([0.25, 0.75], k)),
    ])


@st.composite
def _level_tables(draw):
    # a first column 0, 1, ..., n - 1 (or start, start + 1, ...), 1-3 value
    # columns of runs of random lengths, one of them without runs; n across
    # 9 -> 10 digits and the chunk boundary, start across 9999 -> 10000 (a
    # second word of digits) and 99999 -> 100000
    values = draw(st.integers(1, 3))
    chunk = _chunk_rows(values + 1)
    nrows = draw(st.one_of(st.integers(1, 40), st.sampled_from([chunk - 1, chunk, chunk + 1,
                                                                 2 * chunk + 3])))
    start = draw(st.sampled_from([0, 0, 0, 9_995, 99_990, 99_999, 100_000 - nrows]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = _level_pool(rng, 64)
    columns = [np.arange(start, start + nrows, dtype=float)]
    free = draw(st.integers(0, values - 1))
    for c in range(values):
        if c == free:
            col = rng.choice(pool, nrows)
            same = np.flatnonzero(col[1:].view(np.int64) == col[:-1].view(np.int64)) + 1
            col[same] = rng.normal(size=same.size) * 1e-300  # no two neighbours alike
        else:
            runs = rng.choice(pool, nrows + 2)
            runs[:2] = [0.0, -0.0]  # adjacent zeros of either sign stay apart
            col = np.repeat(runs, rng.geometric(draw(st.sampled_from([0.05, 0.3, 1.0])), nrows + 2))
            col = col[:nrows]
        columns.append(col)
    rows = np.column_stack(columns)
    if start == 0 and draw(st.booleans()):
        # one entry off 0, 1, ..., n - 1: the kernel's table
        j = draw(st.integers(0, nrows - 1))
        rows[j, 0] = draw(st.sampled_from([-0.0 if j == 0 else j - 1.0, j + 0.5, j + 1.0]))
    return start, Table(columns=["index"] + [f"c{c}" for c in range(values)], rows=rows)


@settings(max_examples=120, deadline=None)
@given(_level_tables())
def test_index_route_matches_per_value_reference_property(case):
    # level tables are written from their distinct values; a table whose
    # first column is not exactly 0, 1, ..., n - 1 takes the kernel; the
    # bytes are format_float's either way
    start, table = case
    indexed = np.array_equal(table.rows[:, 0], np.arange(start, start + len(table.rows)))
    indexed &= not np.signbit(table.rows[0, 0])
    want = _reference_csv(table)
    if start:
        assert _csv.indexed_rows_text(table.rows, start).decode() == want.partition("\n")[2]
        return
    buf = io.StringIO()
    with mock.patch.object(_csv, "indexed_rows_text", wraps=_csv.indexed_rows_text) as route:
        emit_csv(table, buf)
    assert buf.getvalue() == want
    assert route.called == indexed


def test_emit_csv_every_power_of_ten_and_neighbours():
    # 10**k - 4 ulps .. 10**k + 4 ulps, one row each, both signs: floor(log10)
    # is one off below a power, and some doubles just below 10**k round up
    # to "1e+k", carrying into the exponent
    bits = np.array([float(f"1e{k}") for k in range(-323, 309)]).view(np.int64)
    rows = np.maximum(bits[:, None] + np.arange(-4, 5), 0).view(np.float64)
    table = Table(columns=[f"u{u}" for u in range(-4, 5)], rows=np.concatenate([rows, -rows]))
    buf = io.StringIO()
    emit_csv(table, buf)
    assert buf.getvalue() == _reference_csv(table)


@pytest.mark.parametrize("ncols", [1, 9])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("where", ["first row", "last row of a later chunk"])
def test_emit_csv_refuses_non_finite_before_writing(ncols, bad, where):
    chunk = _chunk_rows(ncols)
    rows = _csv_values(3 * chunk * ncols).reshape(3 * chunk, ncols)
    row = 0 if where == "first row" else 2 * chunk - 1
    rows[row, ncols // 2] = bad
    rows[-1, -1] = float("inf") if np.isnan(bad) else float("nan")  # a later, different one
    buf = io.StringIO()
    with pytest.raises(NumericalError, match=f"non-finite value {bad!r}"):
        emit_csv(Table(columns=[f"c{j}" for j in range(ncols)], rows=rows), buf)
    assert buf.getvalue() == ""


def test_table_shape_guard():
    with pytest.raises(ValidationError):
        Table(columns=["a", "b", "c"], rows=np.zeros((4, 2)))


def test_empty_table_is_header_only():
    buf = io.StringIO()
    emit_csv(Table(columns=["x", "y"], rows=np.zeros((0, 2))), buf)
    assert buf.getvalue() == "x,y\n"
    buf = io.StringIO()
    emit_csv(Table(columns=[], rows=np.zeros((2, 0))), buf)
    assert buf.getvalue() == "\n\n\n"  # an empty header and two empty rows


def test_emit_json_order_and_escapes():
    buf = io.StringIO()
    emit_json({"b": 1, "a": 'say "hi"\n', "c": [1.5, None, True]}, buf)
    line = buf.getvalue()
    assert line.endswith("\n") and line.count("\n") == 1
    assert line.index('"b"') < line.index('"a"') < line.index('"c"')
    assert '\\"hi\\"' in line and "\\n" in line
    assert "true" in line and "null" in line
    with pytest.raises(NumericalError, match="cannot serialize object to JSON"):
        emit_json({"x": object()}, io.StringIO())
    with pytest.raises(NumericalError, match="non-finite value nan in output"):
        emit_json({"x": float("nan")}, io.StringIO())


def test_complex_fields():
    d = complex_fields(1.5 - 2.0j)
    assert list(d.keys()) == ["re", "im"]
    assert d["re"] == 1.5 and d["im"] == -2.0


def test_envelope_payload_layout():
    doc = envelope({"command": "zak"}, {"gamma": 3.14})
    assert doc == {"schema": 1, "inputs": {"command": "zak"}, "result": {"gamma": 3.14}}
    assert list(doc.keys()) == ["schema", "inputs", "result"]
    buf = io.StringIO()
    emit_json(doc, buf)
    assert buf.getvalue() == '{"schema": 1, "inputs": {"command": "zak"}, "result": {"gamma": 3.1400000000000001}}\n'


def test_load_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# couplings\nv = 0.5\nw=1.0\n\na = 2.0\n")
    got = load_config(str(cfg))
    assert got == {"v": 0.5, "w": 1.0, "a": 2.0}


def test_load_config_rejects_garbage(tmp_path):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("volume = 3\n")
    with pytest.raises(ValidationError):
        load_config(str(bad_key))
    bad_val = tmp_path / "b.cfg"
    bad_val.write_text("v = fast\n")
    with pytest.raises(ValidationError):
        load_config(str(bad_val))
    bad_line = tmp_path / "c.cfg"
    bad_line.write_text("v 0.5\n")
    with pytest.raises(ValidationError):
        load_config(str(bad_line))
    with pytest.raises(ValidationError):
        load_config(str(tmp_path / "missing.cfg"))


def test_load_config_keys_are_the_record_fields(tmp_path):
    # BulkParams then FiniteParams fields, in order, each name once
    cfg = tmp_path / "run.cfg"
    cfg.write_text("v0 = 1\nL = 2\ndx = 0.5\n\nvolume = 3\n")
    with pytest.raises(ValidationError) as info:
        load_config(str(cfg))
    assert str(info.value) == f"{cfg}:5: unknown key 'volume' (allowed: v, w, a, v0, w0, L, dx)"
    cfg.write_text("v = 1\nw = 2\na = 3\nv0 = 4\nw0 = 5\nL = 6\ndx = 7\n")
    assert load_config(str(cfg)) == {"v": 1, "w": 2, "a": 3, "v0": 4, "w0": 5, "L": 6, "dx": 7}

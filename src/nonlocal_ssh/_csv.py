"""Vectorized "%.17g": the CSV kernel behind serialize.emit_csv.

rows_text(rows) returns the CSV lines of a block of finite floats, each
field byte for byte the string "%.17g" % x gives, without a per-value call.

Digits. With e10 = floor(log10|x|), the 17-digit integer d is |x| *
10**(16 - e10) rounded to nearest. The product is taken in double-double
arithmetic: Dekker's exact product of |x| with hi, plus |x| * lo, where
10**k = hi + lo to about 2**-106 relative (T. J. Dekker, Numer. Math. 18,
224 (1971)). The floor and fraction it gives are good to about 2**-45.
log10 can be one off next to a power of ten, so a floor outside
[10**16, 10**17) is rescaled once; a d that rounds up to 10**17 carries
into e10 + 1.

Layout. The %g rules: fixed notation for exponents -4 .. 16, else
d.ddde+XX with at least two exponent digits; trailing zeros are dropped,
and the point with them when no fraction is left. Each value is laid out
in a fixed 48-byte field padded with NUL, which bytes.translate deletes.
Zeros are laid out as the digit 0, signed by their sign bit: "0", "-0".

Fallback. format_float writes the values the kernel cannot round with
certainty, spliced in place: nonzero |x| outside [1e-250, 1e250), and
values whose scaled fraction lies within 2**-30 of 1/2 (possible ties).

Index route. indexed_rows_text(rows, start) writes a block whose first
column is start, start + 1, ... (a level table) from its distinct values.
The index is written as integer digits. Down each value column, a run of
bit-equal values is formatted once, so 0.0 and -0.0 never merge, and the
runs' distinct magnitudes are formatted once each: one by one up to
PER_VALUE_MAX of them, else by the kernel; a "-" is put before the
negative ones. Each row is laid out in a compact fixed-width buffer:
index, then a comma and each column's text, NUL-padded to the column's
widest, then the newline; the padding is deleted once.

The tables are built when this module is first imported, which
serialize.emit_csv defers to the first table it writes.
"""

from __future__ import annotations

import numpy as np

from .serialize import format_float

# the kernel's range: the scaled product and every table entry stay normal
FAST_MIN, FAST_MAX = 1e-250, 1e250
# a scaled fraction this close to 1/2 may be a decimal tie
TIE_WINDOW = 2.0**-30
# exponents k = 16 - e10 of the 10**k table, e10 off by one at most
POW_MIN, POW_MAX = -240, 270


def _split(x):
    """Dekker's split of binary64 values into 26-bit halves, hi + lo == x."""
    t = x * 134217729.0  # 2**27 + 1
    hi = t - (t - x)
    return hi, x - hi


def _pow10(k: int) -> tuple[float, float]:
    """10**k as hi + lo, both rounded correctly from exact integers."""
    if k >= 0:
        n = 10**k
        hi = float(n)
        return hi, float(n - int(hi))
    den = 10**-k
    hi = 1 / den
    p, q = hi.as_integer_ratio()  # q is a power of two: / q is exact
    return hi, (q - p * den) / den / q


def _quads() -> np.ndarray:
    """The four digits of each g in 0 .. 9999, each followed by a NUL gap byte."""
    pairs = np.arange(100, dtype=np.uint64)
    pairs = (pairs // 10 + ord("0")) | (pairs % 10 + ord("0")) << 16
    return (pairs[:, None] | pairs[None, :] << 32).ravel()


def _words(texts: list[bytes]) -> np.ndarray:
    """Up to 8 bytes of text per uint64, first character in the lowest byte."""
    return np.array(texts, dtype="S8").view(np.uint64)


_POW_HI, _POW_LO = np.array([_pow10(k) for k in range(POW_MIN, POW_MAX + 1)]).T
_POW_HI_H, _POW_HI_L = _split(_POW_HI)
_QUADS = _quads()
_TRAILING_ZEROS = sum((np.arange(10_000) % 10**i == 0).astype(np.int64) for i in range(1, 5))
# byte 0 is left for the sign: "0." and zeros for exponents -1 .. -4
_PREFIXES = _words([b""] + [b"\0" + b"0." + b"0" * z for z in range(4)])
# exponent text for e in [-330, 330), then none
_EXPS = _words([b"e%+03d" % e for e in range(-330, 330)] + [b""])
# the first c digit-and-gap pairs of a word
_KEEP_MASKS = np.array([(1 << 16 * c) - 1 for c in range(5)], dtype=np.uint64)


def _scaled(a: np.ndarray, e10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Floor and fraction of a * 10**(16 - e10), good to about 2**-45."""
    i = 16 - e10 - POW_MIN
    p = a * _POW_HI[i]
    a_h, a_l = _split(a)
    b_h, b_l = _POW_HI_H[i], _POW_HI_L[i]
    err = ((a_h * b_h - p) + a_h * b_l + a_l * b_h) + a_l * b_l  # a * hi == p + err
    whole = np.floor(p)
    s = (p - whole) + (err + a * _POW_LO[i])
    f = np.floor(s)
    return whole.astype(np.int64) + f.astype(np.int64), s - f


def rows_text(rows: np.ndarray) -> bytes:
    """CSV lines of a 2-d block of finite floats, each field "%.17g" % x."""
    text = _fields(rows.ravel())
    seps = np.full(rows.shape[1], ord(","), np.uint8)
    seps[-1] = ord("\n")
    text.reshape(rows.shape + (48,))[:, :, 47] = seps
    return text.tobytes().translate(None, b"\0")


def _fields(x: np.ndarray) -> np.ndarray:
    """The "%.17g" text of each of a 1-d block of finite floats, NUL-padded to 48 bytes.

    Each value gets six uint64 words, 48 bytes: the sign at byte 0, the
    "0.000" prefix at 1-5, the 17 digits at 6, 8, ..., 38, each followed by
    a gap byte that holds the point or NUL, and the exponent at 40-44;
    byte 47 is left NUL for a separator.
    """
    n = x.size
    a = np.abs(x)
    fast = (a >= FAST_MIN) & (a < FAST_MAX)
    a = np.where(fast, a, 1.0)
    zero = x == 0.0
    fast |= zero  # laid out as 1.0 is, with the digit 0
    e10 = np.floor(np.log10(a)).astype(np.int64)
    whole, frac = _scaled(a, e10)
    shift = (whole >= 10**17).astype(np.int64) - (whole < 10**16)
    redo = np.flatnonzero(shift)
    if redo.size:
        e10[redo] += shift[redo]
        whole[redo], frac[redo] = _scaled(a[redo], e10[redo])
        fast[redo] &= (whole[redo] >= 10**16) & (whole[redo] < 10**17)
    fast &= np.abs(frac - 0.5) > TIE_WINDOW
    d = whole + (frac > 0.5)
    carry = d == 10**17
    d[carry] = 10**16
    e10 += carry
    d[zero] = 0

    lead, rest = np.divmod(d, 10**16)
    upper, lower = np.divmod(rest, 10**8)
    groups = np.divmod(upper, 10**4) + np.divmod(lower, 10**4)  # four digits each
    zeros = _TRAILING_ZEROS[groups[0]]
    for g in groups[1:]:
        zeros = np.where(g != 0, _TRAILING_ZEROS[g], 4 + zeros)

    fixed = (e10 >= -4) & (e10 <= 16)
    point = np.where(fixed, np.where(e10 < 0, 16, e10), 0)  # index of the digit before the point
    keep = np.where(fixed & (e10 > 0), np.maximum(17 - zeros, e10 + 1), 17 - zeros)

    words = np.empty((n, 6), np.uint64)
    words[:, 0] = (np.signbit(x).astype(np.uint64) * ord("-")
                   | _PREFIXES[np.where(fixed & (e10 < 0), -e10, 0)]
                   | (lead.astype(np.uint64) + ord("0")) << 48)
    for k, g in enumerate(groups):
        words[:, k + 1] = _QUADS[g] & _KEEP_MASKS[np.clip(keep - 1 - 4 * k, 0, 4)]
    words[:, 5] = _EXPS[np.where(fixed, -1, e10 + 330)]
    text = words.view(np.uint8).reshape(n, 48)
    dotted = np.flatnonzero(keep > point + 1)
    text.reshape(-1)[48 * dotted + 7 + 2 * point[dotted]] = ord(".")

    slow = np.flatnonzero(~fast)
    if slow.size:
        strings = [format_float(v) for v in x[slow].tolist()]
        text[slow, :47] = np.array(strings, dtype="S47").view(np.uint8).reshape(-1, 47)
    return text


# up to this many values a column's texts are formatted one by one, which
# beats the kernel's fixed cost
PER_VALUE_MAX = 256


def _texts(values: np.ndarray) -> np.ndarray:
    """The "%.17g" text of each value, NUL-padded, as a (k, width) uint8 array.

    Each distinct magnitude is formatted once: the text of -x is "-" and
    that of |x|, and a NUL stands in for the sign of the others.
    """
    mags, which = np.unique(np.abs(values), return_inverse=True)
    if mags.size <= PER_VALUE_MAX:
        texts = np.array([b"%.17g" % v for v in mags.tolist()])  # finite, checked by the caller
        texts = texts.view(np.uint8).reshape(mags.size, -1)
    else:
        texts = _fields(mags)[:, :47]
    out = np.empty((values.size, 1 + texts.shape[1]), np.uint8)
    out[:, 0] = np.signbit(values) * ord("-")
    out[:, 1:] = texts[which]
    return out


def indexed_rows_text(rows: np.ndarray, start: int) -> bytes:
    """CSV lines of a block of finite floats whose first column is start, start + 1, ...

    The same bytes as rows_text(rows). The index is written four digits
    to a _QUADS word, its leading zeros blanked row range by row range
    (the index ascends); each run of bit-equal values down a column is
    formatted once and copied to every row of the run.
    """
    n = rows.shape[0]
    index = np.arange(start, start + n)
    quads = -(-len(str(start + n - 1)) // 4)
    runs = []
    for col in rows[:, 1:].T:
        bits = col.view(np.int64)
        head = np.empty(n, bool)
        head[0] = True
        np.not_equal(bits[1:], bits[:-1], out=head[1:])
        runs.append((_texts(col[head]), np.cumsum(head) - 1))
    buf = np.zeros((n, 8 * quads + sum(1 + texts.shape[1] for texts, _ in runs) + 1), np.uint8)
    for k in range(quads):
        g = index // 10 ** (4 * (quads - 1 - k)) % 10**4
        buf[:, 8 * k : 8 * k + 8] = _QUADS[g].view(np.uint8).reshape(n, 8)
    for d in range(4 * quads - 1):  # digit d is a leading zero below 10**(4 quads - 1 - d)
        buf[: max(0, 10 ** (4 * quads - 1 - d) - start), 2 * d] = 0
    pos = 8 * quads
    for texts, run in runs:
        width = texts.shape[1]
        buf[:, pos] = ord(",")
        field = f"V{width}"  # each text as one item, copied straight into its rows
        np.take(texts.view(field)[:, 0], run, out=buf[:, pos + 1 : pos + 1 + width].view(field)[:, 0])
        pos += 1 + width
    buf[:, pos] = ord("\n")
    return buf.tobytes().translate(None, b"\0")

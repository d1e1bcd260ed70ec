"""`'%.17g' % v` for a whole float64 array at once, as NUL-padded ASCII slots,
and the CSV writer of node and cell lattices that is built on them.

The 17 significant digits of a finite v != 0 are the integer
D = round(|v| * 10**(16 - X)) in [1e16, 1e17), where X is the decimal
exponent of v rounded to 17 digits.  The product is formed in double-double
arithmetic (Dekker, Numer. Math. 18 (1971) 224): 10**s is a pair of doubles
from a table of exact integers, and Dekker's TwoProduct gives the rounding
error of the leading product exactly, because numpy has no fused
multiply-add.  The pair is off by less than 1e-14 of a unit of D, so it
decides the rounding unless the fraction lies within 1e-9 of one half (true
ties included).  Those values, non-finite ones and those outside
[1e-280, 1e280), where Dekker's split of 10**s would overflow, take Python's
own conversion; the rest never leave numpy.  The text layout depends on X
alone, so each exponent group is written with static slices, and a trailing
zero of the fraction becomes a NUL byte, as does a decimal point that no
digit follows.  The kernel keeps to numpy operations that the solver
already runs, so that its first call maps few new pages of numpy's code.
"""

from __future__ import annotations

import functools

import numpy as np

WIDTH = 24  # bytes of a slot: the longest text is '-2.2250738585072014e-308'
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant
_LOG10_2 = 0.30102999566398120
_S_MAX = 300  # the table holds 10**s for |s| <= _S_MAX
BLOCK_ROWS = 4096  # most lines per write_csv write, and per g17 call in it


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """10**s = hi + lo for s = -_S_MAX.._S_MAX, hi split into Dekker's halves
    (hi = hh + hl), the ASCII digits of 0..9999 as 4-byte words, and the
    exponent texts 'e-300'..'e+300' as 5-byte rows, NUL-padded."""
    hi, lo = [], []
    for s in range(-_S_MAX, _S_MAX + 1):
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        p, q = (num / den).as_integer_ratio()  # int / int is correctly rounded
        hi.append(p / q)
        lo.append((num * q - p * den) / (den * q))
    hi = np.array(hi)
    c = hi * _SPLIT
    hh = c - (c - hi)
    # the 4-digit ASCII texts of 0..9999, then the same with each digit NUL
    # that is 0 and followed by 0s only; broadcast, so no temporary is made
    quads = np.empty((2, 10, 10, 10, 10, 4), np.uint8)
    for j in range(4):
        quads[..., j] = np.arange(48, 58, dtype=np.uint8).reshape((-1,) + (1,) * (3 - j))
        quads[(1,) + (slice(None),) * j + (0,) * (4 - j) + (j,)] = 0
    exponents = np.array([b"e%+03d" % s for s in range(-_S_MAX, _S_MAX + 1)])
    return (hi, hh, hi - hh, np.array(lo), quads.view(np.uint32).ravel(),
            exponents.view(np.uint8).reshape(-1, 5))


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**(16 - k) as p + t, with p the rounded product."""
    hi, hh, hl, lo = _tables()[:4]
    s = _S_MAX + 16 - k
    b, bh, bl = hi[s], hh[s], hl[s]
    p = a * b
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * lo[s]


def _digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d, k, exact): the 17 significant digits of each value as one integer
    D (0 for a zero), its decimal exponent X (0 for a zero), and whether
    Python's conversion writes it instead."""
    a = np.abs(values)
    zero = a == 0.0
    exact = ~((a >= 1e-280) & (a < 1e280) | zero)  # nan and inf too
    a[exact | zero] = 1.0
    # log10|v| from the bits: the exponent plus the mantissa less one is a
    # lower bound of log2|v|, by under 0.09, so k is the exponent or one less
    k = np.floor(a.view(np.int64) * (_LOG10_2 / 2 ** 52) - 1023 * _LOG10_2).astype(np.int64)
    p, t = _scaled(a, k)
    # correct k by comparing the pair, not p alone, with 1e16 and 1e17
    low = (p < 1e16) | (p == 1e16) & (t < 0)
    high = (p > 1e17) | (p == 1e17) & (t >= 0)
    k = k + high - low
    fix = np.flatnonzero(low | high)
    p[fix], t[fix] = _scaled(a[fix], k[fix])
    floor = np.floor(t)
    frac = t - floor
    exact |= (frac > 0.5 - 1e-9) & (frac < 0.5 + 1e-9)
    d = p.astype(np.int64) + (floor + (frac > 0.5)).astype(np.int64)
    up = d == 10 ** 17  # rounded up to the next power of ten
    d[up] = 10 ** 16
    k += up
    d[zero] = 0
    k[zero | exact] = 0
    return d, k, exact


def _ascii(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 digits of each d as a row of ASCII bytes, and the same rows
    with the zeros after the last nonzero digit as NUL bytes."""
    # five groups of digits, the first digit alone and then four of four;
    # each is a 4-byte word of the table, and the first reads '000d'
    group = np.empty((d.size, 5), np.int64)
    last = np.empty(group.shape, bool)  # no nonzero digit after the group
    rest = d
    for j, e in enumerate((16, 12, 8, 4, 0)):
        group[:, j] = rest // 10 ** e
        rest = rest - group[:, j] * 10 ** e
        last[:, j] = rest == 0
    quads = _tables()[4]
    raw = quads[group].view(np.uint8)[:, 3:]
    group[last] += 10 ** 4
    return raw, quads[group].view(np.uint8)[:, 3:]


def g17(values: np.ndarray, out: np.ndarray) -> None:
    """Write `b'%.17g' % v` for each float64 v of `values` into the matching
    row of `out`, a (len(values), WIDTH) uint8 array, NUL-padded."""
    d, k, exact = _digits(values)
    raw, trimmed = _ascii(d)
    out[:] = 0
    out[values.view(np.int64) < 0, 0] = 45
    # one group of rows per fixed-notation exponent x, and x = 17 for the
    # rest, written as d.ddde+XX
    for x in [*range(max(k.min(), -4), min(k.max(), 16) + 1), 17]:
        r = np.flatnonzero(k == x if x < 17 else (k < -4) | (k > 16))
        whole = 1 if x == 17 else max(x + 1, 0)  # digits before the point
        c = 2 - x if x < 0 else 1  # after the sign, and '0.' and zeros for x < 0
        out[r, 1:c] = np.frombuffer(b"0.000"[:c - 1], np.uint8)
        out[r, c:c + whole] = raw[r, :whole]
        if 0 < whole < 17:  # a point only if a nonzero digit follows
            out[r, c + whole] = (d[r] % 10 ** (17 - whole) != 0) * 46
            c += 1
        out[r, c + whole:c + 17] = trimmed[r, whole:]
    out[r, 19:] = _tables()[5][k[r] + _S_MAX]  # r: the rows of x = 17
    for i in np.flatnonzero(exact).tolist():
        out[i] = np.frombuffer((b"%.17g" % values[i]).ljust(WIDTH, b"\0"), np.uint8)


def write_csv(path, header: str, x: np.ndarray, y: np.ndarray, columns) -> None:
    """Write `header`, then the line `x,y,c1,...,ck` for every point of a
    lattice in row-major order: `x` holds the x of one lattice row, `y` one y
    per lattice row, and each of the k float64 `columns` is (len(y), len(x)).

    Each lattice row whose columns differ in some bit from the row before it
    (and the first row) is converted by `g17`, whole rows at a time and at
    most BLOCK_ROWS lines per call, into NUL-padded slots that hold the byte 1
    for the y text; the NULs are deleted.  Every lattice row is written as
    the bytes of the last converted row with its own y text put in by
    `bytes.replace`, and no write holds more than BLOCK_ROWS lines: short rows
    share a write, and a longer row is split.
    """
    m, k, w = len(x), len(columns), WIDTH + 1  # w: a slot and its comma or newline
    # few and short, so Python converts them faster than one more g17 call
    x_slots = np.array([b"%.17g," % v for v in x.tolist()], f"S{w}").view(np.uint8).reshape(m, w)
    y_texts = [b"%.17g" % v for v in y.tolist()]
    fresh = np.ones(len(y), bool)
    fresh[1:] = np.any([(b[1:] != b[:-1]).any(axis=1)
                        for b in (c.view(np.int64) for c in columns)], axis=0)
    new = np.flatnonzero(fresh)
    part, per = min(m, BLOCK_ROWS), max(BLOCK_ROWS // m, 1)  # per call: lines of a row, rows
    # a line: the x slot, the y byte and its comma, and one slot per column
    lines = np.empty((min(per, new.size) * part, w * (k + 1) + 2), np.uint8)
    lines[:, w:w + 2] = 1, ord(",")
    values = lines[:, w + 2:].reshape(len(lines), k, w)  # the column slots
    values[:, :, -1] = ord(",")
    lines[:, -1] = ord("\n")
    digits = np.empty((k * len(lines), WIDTH), np.uint8)  # g17's slots, column by column

    def converted():
        """The (bytes, line count) chunks of each converted row, in order."""
        for first in range(0, new.size, per):
            rows = new[first:first + per]
            chunks = [[] for _ in rows]
            for start in range(0, m, part):
                span = min(part, m - start)
                n = rows.size * span
                lines[:n].reshape(rows.size, span, -1)[:, :, :w] = x_slots[start:start + span]
                g17(np.concatenate([c[rows, start:start + span].ravel() for c in columns]),
                    digits[:k * n])
                values[:n, :, :-1] = digits[:k * n].reshape(k, n, WIDTH).transpose(1, 0, 2)
                for chunk, row in zip(chunks, lines[:n].reshape(rows.size, -1)):
                    chunk.append((row.tobytes().translate(None, b"\0"), span))
            yield from chunks

    fresh_rows = converted()
    text, size = bytearray(), 0
    with path.open("wb") as fh:
        fh.write(header.encode())
        for y_text, is_new in zip(y_texts, fresh.tolist()):
            if is_new:
                chunks = next(fresh_rows)
            for chunk, count in chunks:
                if size + count > BLOCK_ROWS:
                    fh.write(text)
                    text, size = bytearray(), 0
                text += chunk.replace(b"\1", y_text)
                size += count
        fh.write(text)

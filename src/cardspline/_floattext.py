"""Float text for the CLI writers: Python's `"%.{P}e" % v` for whole arrays.

`e_cells(x, P)` gives, byte for byte, the text Python's `%` operator gives
each value, from one pass of numpy array operations:

1. `e = floor(log10|x|)` is settled against a double-double table of `10^s`
   (`_tables`), so that `10^e <= |x| < 10^(e+1)` holds exactly;
2. `y = |x| * 10^(P-e)` is formed as a double-double with a Dekker split
   (Dekker, "A floating-point technique for extending the available
   precision", 1971), since numpy has no fused multiply-add;
3. the `P + 1` digits are `round(y)` in int64 (a float sum would lose the last
   digit at P = 16), and a rounded `10^(P+1)` carries into the exponent;
4. the digits and exponent are rendered through small lookup tables.

Every value that is not finite, lies outside `1e-280..1e280` (where the split
could overflow or lose bits) or rounds within `1e-6` of a tie is formatted by
Python instead: its correctly rounded conversion (Gay, 1990) is the reference
and decides the close cases.  Below `SMALL_INPUT` values per call the kernel's
fixed cost outweighs its savings, so `table_text` formats the whole call with
Python's `%`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Below this many float cells per call, Python's `%` beats the kernel's
# fixed cost of about 0.15 ms.
SMALL_INPUT = 256

_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_TIE_MARGIN = 1e-6
_SPAN = 300            # the tables cover 10^s and exponents for |s| <= _SPAN
_SPLIT = 134217729.0   # 2^27 + 1, Dekker's splitting constant


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The kernel's lookup tables, built on first use rather than at import
    (about 2 ms, mostly the big-integer loop):

    - `hi[s + _SPAN]`, the double nearest `10^s`, and `lo[s + _SPAN]`, the
      double nearest `10^s - hi`, for `|s| <= _SPAN`, from exact integers;
    - `quads[q]`, the four ASCII digits of `0 <= q < 10^4` as one uint32;
    - `exponents[e + _SPAN]`, "e+dd", "e-dd" or "e+ddd" (three digits from
      100 on), NUL-padded to 8 bytes as one uint64.
    """
    hi, lo = [], []
    for s in range(-_SPAN, _SPAN + 1):
        if s >= 0:
            n = 10 ** s
            h = float(n)
            hi.append(h)
            lo.append(float(n - int(h)))
        else:
            # 10^s = (m + f) 2^-q, m an integer of at least 110 bits, 0 < f < 1
            d = 10 ** -s
            q = d.bit_length() + 110
            m = (1 << q) // d
            h = float(m)
            hi.append(math.ldexp(h, -q))
            lo.append(math.ldexp(float(m - int(h)), -q))

    digits = np.ascontiguousarray(
        np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1).T + ord("0"))
    exps = np.zeros((2 * _SPAN + 1, 8), np.uint8)
    exps[:, 0] = ord("e")
    exps[:_SPAN, 1] = ord("-")
    exps[_SPAN:, 1] = ord("+")
    exps[:, 2:5] = digits[np.abs(np.arange(-_SPAN, _SPAN + 1)), 1:]
    exps[_SPAN - 99:_SPAN + 100, 2:5] = exps[_SPAN - 99:_SPAN + 100, [3, 4, 5]]
    return (np.array(hi), np.array(lo), digits.view(np.uint32).ravel(),
            exps.view(np.uint64).ravel())


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = v * _SPLIT
    h = c - (c - v)
    return h, v - h


def e_cells(x: np.ndarray, precision: int) -> np.ndarray:
    """The text of `"%.{precision}e" % v` for each value of `x`, as a
    `(len(x), precision + 8)` uint8 matrix: row i holds the ASCII bytes of
    value i, NUL-padded.  `precision` is 1..16, so that the `precision + 1`
    digits fit an int64.
    """
    P = precision
    if not 1 <= P <= 16:
        raise ValueError(f"precision must lie in 1..16, got {P}")
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a[~fast] = 1.0
    hi, lo, quads_text, exponents = _tables()

    # log10 may round across a power of ten; the exact comparison settles it
    e = np.floor(np.log10(a)).astype(np.intp)
    i = e + _SPAN
    e -= (a < hi[i]) | ((a == hi[i]) & (lo[i] > 0))
    e += (a > hi[i + 1]) | ((a == hi[i + 1]) & (lo[i + 1] <= 0))

    # y = a 10^(P-e) = p + t, p = fl(a th), exactly up to a * tl's rounding
    j = P - e + _SPAN
    th, tl = hi[j], lo[j]
    p = a * th
    ah, al = _split(a)
    bh, bl = _split(th)
    t = (((ah * bh - p) + ah * bl + al * bh) + al * bl) + a * tl
    whole = np.floor(p)
    r = (p - whole) + t
    near = np.rint(r)
    digits = whole.astype(np.int64) + near.astype(np.int64)
    fast &= np.abs(r - near) <= 0.5 - _TIE_MARGIN
    carry = digits == 10 ** (P + 1)
    digits[carry] = 10 ** P
    e += carry

    # the P digits after the point, left-aligned in four-digit groups, each
    # rendered as one table word; numpy divides by a scalar far faster
    lead, rest = np.divmod(digits, 10 ** P)
    groups = -(-P // 4)
    rest *= 10 ** (4 * groups - P)
    quads = np.empty((len(x), groups), np.intp)
    for g in range(groups):
        unit = 10 ** (4 * (groups - 1 - g))
        quads[:, g] = rest // unit
        rest -= quads[:, g] * unit
    out = np.empty((len(x), P + 8), np.uint8)
    out[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    out[:, 1] = lead + ord("0")
    out[:, 2] = ord(".")
    out[:, 3:P + 3] = quads_text[quads].view(np.uint8)[:, :P]
    out[:, P + 3:] = exponents[e + _SPAN, None].view(np.uint8)[:, :5]

    slow = np.flatnonzero(~fast)
    if slow.size:
        fmt = f"%.{P}e"
        text = [fmt % v for v in x[slow].tolist()]
        out[slow] = np.array(text, dtype=f"S{P + 8}").view(np.uint8).reshape(-1, P + 8)
    return out


def table_text(columns: list, precision: int, sep: str = ",", end: str = "\n") -> str:
    """The rows of a table as text: row i is the i-th cell of each column,
    joined by `sep` and followed by `end`.  A numpy column prints each value
    as `"%.{precision}e" % v`; any other column is a sequence of ASCII str
    cells, which pass through.  Each value prints the
    same whichever path formats it.
    """
    n = len(columns[0]) if columns else 0
    floats = [c for c in columns if isinstance(c, np.ndarray)]
    if n * len(floats) < SMALL_INPUT:
        line = sep.join(f"%.{precision}e" if isinstance(c, np.ndarray) else "%s"
                        for c in columns) + end
        cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
        return line * n % tuple(v for row in zip(*cells) for v in row)
    cells = iter(e_cells(np.concatenate(floats), precision)
                 .reshape(len(floats), n, precision + 8))
    blocks = []
    for col in columns:
        if blocks:
            blocks.append(_fill(sep, n))
        blocks.append(next(cells) if isinstance(col, np.ndarray) else
                      np.array(col, dtype=bytes).view(np.uint8).reshape(n, -1))
    blocks.append(_fill(end, n))
    return np.concatenate(blocks, axis=1).tobytes().replace(b"\0", b"").decode("ascii")


def _fill(text: str, n: int) -> np.ndarray:
    return np.broadcast_to(np.frombuffer(text.encode("ascii"), np.uint8), (n, len(text)))


def json_array(x: np.ndarray) -> str:
    """The JSON text of a float array with each value as `%.16e`: 17
    significant digits, which parse back to the same double.  Non-finite
    values take JSON's spelling, as `json.dumps` gives them."""
    text = "[" + table_text([x], 16, "", ", ")[:-2] + "]"
    if np.isfinite(x).all():
        return text
    return text.replace("nan", "NaN").replace("inf", "Infinity")

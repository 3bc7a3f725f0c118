"""Float text for the CLI writers: Python's `"%.{P}e" % v` for whole arrays,
at every precision a run writes, from one pass over the values.

`e_cells(x, precisions)` gives, byte for byte, the text Python's `%` operator
gives each value at each precision P.  One pass at the highest precision T
computes, once per value:

1. `e = floor(log10|x|)`, settled against the smallest double at or above
   `10^s` (`_tables`), so that `10^e <= |x| < 10^(e+1)` holds exactly;
2. `y = |x| * 10^(T-e)` as a double-double with a Dekker split (Dekker, "A
   floating-point technique for extending the available precision", 1971),
   since numpy has no fused multiply-add;
3. the `T + 1` digits `D = round(y)` in int64 (a float sum would lose the
   last digit at T = 16).

Each lower precision P takes `round(D / q)`, `q = 10^(T-P)`: D is y rounded
to an integer, so a remainder `D mod q` other than `q/2` rounds as y itself
would.  A remainder of exactly `q/2` leaves y on either side of the tie or
on it, and that value goes to Python.  At each precision a rounded
`10^(P+1)` carries into the exponent, and the digits and exponent are
rendered through small lookup tables.

Zero takes the digits 0 directly.  Every other value that is not finite,
lies outside `1e-280..1e280` (where the split could overflow or lose bits),
or whose y rounds within `1e-6` of a tie, is formatted by Python instead:
its correctly rounded conversion (Gay, 1990) is the reference and decides
the close cases.  Below
`SMALL_INPUT` cells per call the kernel's fixed cost outweighs its savings,
so `float_cells` formats the whole call with Python's `%`.

The text is ASCII bytes: `table_bytes` lays cells out as CSV rows and
`json_array` as a JSON array.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Below this many float cells per call, Python's `%` beats the kernel's
# fixed cost of about 0.1 ms.
SMALL_INPUT = 256

_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_TIE_MARGIN = 1e-6
_SPAN = 300            # the tables cover 10^s and exponents for |s| <= _SPAN
_SPLIT = 134217729.0   # 2^27 + 1, Dekker's splitting constant


@functools.cache
def _tables() -> tuple:
    """The kernel's lookup tables, built on first use rather than at import
    (about 2 ms, mostly the big-integer loop).  Indexed by `s + _SPAN` for
    `|s| <= _SPAN`:

    - `up[i]`, the smallest double at or above `10^s`;
    - `hi[i] + lo[i]`, `10^s` as a double-double: `hi` the double nearest
      `10^s`, `lo` the double nearest `10^s - hi`, from exact integers;
    - `exps[m][i]`, "e+dd", "e-dd" or "e+ddd" (three digits from 100 on)
      after m NUL bytes, NUL-padded to 8 bytes as one uint64, m = 0..3.

    And the digit words, NUL-padded ASCII:

    - `heads[100 sign + t]`, sign ("-" or NUL), the first digit of the two
      digits of `0 <= t < 100`, "." and the second digit, as one uint32;
    - `quads[q]`, the four digits of `0 <= q < 10^4` as one uint32;
    - `tails[m][r]`, the m digits of `0 <= r < 10^m` as one uint64, m = 0..3.
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
    hi, lo = np.array(hi), np.array(lo)
    up = np.where(lo > 0, np.nextafter(hi, np.inf), hi)

    def words(text: np.ndarray, dtype) -> np.ndarray:
        return np.ascontiguousarray(text).view(dtype).ravel()

    digits = [np.indices((10,) * m, dtype=np.uint8).reshape(m, 10 ** m).T + ord("0")
              for m in range(5)]
    heads = np.zeros((2, 100, 4), np.uint8)
    heads[1, :, 0] = ord("-")
    heads[:, :, 1] = digits[2][:, 0]
    heads[:, :, 2] = ord(".")
    heads[:, :, 3] = digits[2][:, 1]
    exps = np.zeros((2 * _SPAN + 1, 5), np.uint8)
    exps[:, 0] = ord("e")
    exps[:_SPAN, 1] = ord("-")
    exps[_SPAN:, 1] = ord("+")
    exps[:, 2:] = digits[3][np.abs(np.arange(-_SPAN, _SPAN + 1))]
    two = slice(_SPAN - 99, _SPAN + 100)
    exps[two, 2:4] = exps[two, 3:]
    exps[two, 4] = 0
    padded = [np.zeros((len(exps), 8), np.uint8) for m in range(4)]
    tails = [np.zeros((10 ** m, 8), np.uint8) for m in range(4)]
    for m in range(4):
        padded[m][:, m:m + 5] = exps
        tails[m][:, :m] = digits[m]
    return (up, hi, lo, words(heads, np.uint32), words(digits[4], np.uint32),
            [words(t, np.uint64) for t in tails], [words(p, np.uint64) for p in padded])


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = v * _SPLIT
    h = c - (c - v)
    return h, v - h


def _width(P: int) -> int:
    """Bytes per cell at precision P: a head word, (P - 1) // 4 digit words
    and two tail words."""
    return 4 * ((P - 1) // 4 + 3)


def e_cells(x: np.ndarray, precisions) -> list[np.ndarray]:
    """The text of `"%.{P}e" % v` for each value of `x`, one uint8 matrix
    per precision P of `precisions`: row i holds the ASCII bytes of value i,
    NUL-padded to `_width(P)`.  Each P lies in 1..16, so that `P + 1` digits
    fit an int64.
    """
    if not all(1 <= P <= 16 for P in precisions):
        raise ValueError(f"precisions must lie in 1..16, got {precisions}")
    T = max(precisions)
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    a = np.abs(x)
    zero = a == 0
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a[~fast] = 1.0
    fast |= zero
    up, hi, lo, *words = _tables()

    # log10 may round across a power of ten; the exact comparison settles it
    e = np.floor(np.log10(a)).astype(np.intp)
    i = e + _SPAN
    e -= a < up[i]
    e += a >= up[i + 1]

    # y = a 10^(T-e) = p + t, p = fl(a th), exactly up to a * tl's rounding
    j = T - e + _SPAN
    th, tl = hi[j], lo[j]
    p = a * th
    ah, al = _split(a)
    bh, bl = _split(th)
    t = (((ah * bh - p) + ah * bl + al * bh) + al * bl) + a * tl
    whole = np.floor(p)
    r = (p - whole) + t
    near = np.rint(r)
    D = whole.astype(np.int64)
    D += near.astype(np.int64)
    fast &= np.abs(r - near) <= 0.5 - _TIE_MARGIN
    if zero.any():
        D[zero] = 0
        e[zero] = 0
    e += _SPAN
    sign = np.signbit(x) * 100

    cells = []
    for P in precisions:
        digits, exact = D, fast
        if P < T:
            q = 10 ** (T - P)
            digits = D // q
            rem = D - digits * q
            digits += rem > q // 2
            exact = fast & (rem != q // 2)
        out = _render(digits, e, sign, P, *words)
        slow = np.flatnonzero(~exact)
        if slow.size:
            out[slow] = _python_cells(x[slow], P)
        cells.append(out)
    return cells


def _render(digits, e, sign, P, heads, quads, tails, exps) -> np.ndarray:
    """The cells at precision P of the values with `P + 1` rounded digits
    `digits`, exponent `e - _SPAN` and `sign` 100 where negative: a head
    word (sign, first digit, "." and second digit), the other digits four
    to a word, and the last `(P - 1) % 4` digits with the exponent in two
    tail words.  A rounded `10^(P+1)` carries into the exponent."""
    carry = digits == 10 ** (P + 1)
    if carry.any():
        digits = np.where(carry, 10 ** P, digits)
        e = e + carry
    g, m = divmod(P - 1, 4)
    # one column per word: numpy copies a column of words far faster than
    # rows of a few bytes each, and divides by a scalar far faster than by
    # an array
    out = np.empty((len(digits), g + 3), np.uint32)
    top = digits // 10 ** (P - 1)
    rest = digits - top * 10 ** (P - 1)
    top += sign
    out[:, 0] = heads[top]
    for k in range(g):
        unit = 10 ** (4 * (g - 1 - k) + m)
        q = rest // unit
        rest -= q * unit
        out[:, 1 + k] = quads[q]
    tail = exps[m][e]
    if m:
        tail |= tails[m][rest]
    tail = tail.view(np.uint32).reshape(-1, 2)
    out[:, g + 1] = tail[:, 0]
    out[:, g + 2] = tail[:, 1]
    return out.view(np.uint8)


def _python_cells(x: np.ndarray, P: int) -> np.ndarray:
    """Python's `%` text of each value as a NUL-padded cell matrix."""
    fmt = f"%.{P}e"
    return (np.array([fmt % v for v in x.tolist()], dtype=f"S{_width(P)}")
            .view(np.uint8).reshape(-1, _width(P)))


def float_cells(wanted: list) -> list:
    """The cells of each `(array, P)` of `wanted`, 1-D arrays, in order,
    from one `e_cells` call over the distinct arrays at every P asked for:
    an array asked for at two precisions is formatted once.  Below
    `SMALL_INPUT` cells in all, Python's `%` formats every value, one
    operation per array, and each array's cells are a list of str."""
    arrays = {id(arr): arr for arr, _ in wanted}
    precisions = sorted({P for _, P in wanted})
    if sum(map(len, arrays.values())) * len(precisions) < SMALL_INPUT:
        # the text of a float holds no space
        return [(f"%.{P}e " * len(arr) % tuple(arr.tolist())).split() for arr, P in wanted]
    cells = dict(zip(precisions, e_cells(np.concatenate(list(arrays.values())), precisions)))
    starts = dict(zip(arrays, np.cumsum([0] + [len(arr) for arr in arrays.values()])))
    return [cells[P][starts[id(arr)]:starts[id(arr)] + len(arr)] for arr, P in wanted]


def table_bytes(columns: list, sep: str = ",", end: str = "\n") -> bytes:
    """The rows of a table as ASCII bytes: row i is the i-th cell of each
    column, joined by `sep` and followed by `end`.  A column is a cell
    matrix from `float_cells` or a sequence of str cells."""
    if not columns:
        return b""
    n = len(columns[0])
    if not any(isinstance(col, np.ndarray) for col in columns):
        return (end.join(map(sep.join, zip(*columns))) + end).encode("ascii") if n else b""
    blocks = []
    for col in columns:
        if blocks:
            blocks.append(_fill(sep, n))
        blocks.append(col if isinstance(col, np.ndarray) else
                      np.array(col, dtype=bytes).view(np.uint8).reshape(n, -1))
    blocks.append(_fill(end, n))
    return np.concatenate(blocks, axis=1).tobytes().translate(None, b"\0")


def _fill(text: str, n: int) -> np.ndarray:
    return np.broadcast_to(np.frombuffer(text.encode("ascii"), np.uint8), (n, len(text)))


def json_array(cells) -> bytes:
    """The JSON text of one array's `%.16e` cells: 17 significant digits,
    which parse back to the same double.  Non-finite values take JSON's
    spelling, as `json.dumps` gives them."""
    text = b"[" + table_bytes([cells], "", ", ")[:-2] + b"]"
    if b"n" not in text:    # the text of finite values has no letter n
        return text
    return text.replace(b"nan", b"NaN").replace(b"inf", b"Infinity")

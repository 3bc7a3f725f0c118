"""Vectorized float text against Python's `%` formatting, the reference."""

import functools
import json
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from cardspline._floattext import (SMALL_INPUT, e_cells, float_cells, json_array,
                                   table_bytes)

PRECISIONS = (9, 16)


def cell_text(cells):
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in cells]


def python_text(x, precision):
    return [f"%.{precision}e" % v for v in np.asarray(x, dtype=np.float64).tolist()]


def assert_pass_matches_python(x, precisions):
    """Each precision of one e_cells pass prints every value as Python's %."""
    x = np.asarray(x, dtype=np.float64)
    for P, cells in zip(precisions, e_cells(x, precisions)):
        want = python_text(x, P)
        if table_bytes([cells], end=" ") == " ".join(want + [""]).encode("ascii"):
            continue
        got = cell_text(cells)
        bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
        assert not bad, f"P={P} of {precisions}: {len(bad)} of {len(want)} differ, first {bad[:3]}"


def assert_matches_python(x, precision):
    # on its own, and derived from the 17 digits of a %.16e pass
    assert_pass_matches_python(x, (precision,))
    if precision < 16:
        assert_pass_matches_python(x, (precision, 16))


def table_text(columns, precision):
    """The CSV rows of columns as the CLI writes them: the numpy columns
    formatted by one float_cells call."""
    cells = iter(float_cells([(c, precision) for c in columns if isinstance(c, np.ndarray)]))
    return table_bytes([next(cells) if isinstance(c, np.ndarray) else c
                        for c in columns]).decode("ascii")


def is_tie(v, precision):
    digits = Decimal(v).normalize().as_tuple().digits
    return len(digits) == precision + 2 and digits[-1] == 5


def exact_ties(precision, rng, count):
    """Doubles whose exact decimal value has precision + 2 significant digits,
    the last a 5, so that "%.{precision}e" must round half to even: n 5 10^t
    with n odd, as m / 2^q (m odd, so m 5^q 10^-q ends in 5) and as integers."""
    ties = []
    for q in range(1, 60):
        # m 5^q must have precision + 2 digits, and m < 2^53 to be exact
        lo = -(-10 ** (precision + 1) // 5 ** q)
        hi = min(10 ** (precision + 2) // 5 ** q, 2 ** 53)
        if lo < hi:
            ties += [math.ldexp(float(m), -q) for m in rng.integers(lo, hi, count) | 1]
    for t in range(25):
        for n in rng.integers(10 ** precision, 10 ** (precision + 1), count).tolist():
            if int(float((10 * n + 5) * 10 ** t)) == (10 * n + 5) * 10 ** t:
                ties.append(float((10 * n + 5) * 10 ** t))
    ties = [v for v in ties if is_tie(v, precision)]
    assert len(ties) >= 100
    return np.array(ties + [-v for v in ties])


class TestKernelAgainstPython:
    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_random_bit_patterns(self, precision):
        # uniform over the bit patterns: every binade, subnormals, NaN payloads
        bits = np.random.default_rng(20261019).integers(0, 2 ** 64, 200_000,
                                                         dtype=np.uint64)
        assert_matches_python(bits.view(np.float64), precision)

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_random_decimals_near_ties(self, precision):
        # decimal strings with a 5 after the kept digits: the nearest double
        # falls within a hair of the tie, on either side
        rng = np.random.default_rng(precision)
        x = [float(f"{n}5e{t}") for n, t in
             zip(rng.integers(10 ** precision, 10 ** (precision + 1), 20_000),
                 rng.integers(-300, 270, 20_000))]
        assert_matches_python(x, precision)

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_exact_ties_round_half_to_even(self, precision):
        ties = exact_ties(precision, np.random.default_rng(1), 20)
        assert_matches_python(ties, precision)
        assert_matches_python(np.nextafter(ties, np.inf), precision)
        assert_matches_python(np.nextafter(ties, -np.inf), precision)

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_carries_into_the_exponent(self, precision):
        # (10^(P+1) - 1/2 + d) 10^(e-P): rounds to 10^(P+1) and carries when
        # d > 0, keeps P + 1 nines when d < 0
        x = [float((10 ** (precision + 1) - Fraction(1, 2) + d) * Fraction(10) ** (e - precision))
             for e in range(-270, 271, 7)
             for d in (Fraction(-2, 5), Fraction(-1, 1000), Fraction(1, 1000), Fraction(2, 5))]
        x += [9.9999999995, 9.9999999996, 9.9999999994, 99999.999995, 0.99999999996]
        assert_matches_python(x, precision)
        assert_matches_python(-np.array(x), precision)

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_powers_of_ten_and_their_neighbours(self, precision):
        powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
        for x in (powers, np.nextafter(powers, np.inf), np.nextafter(powers, 0.0)):
            assert_matches_python(x, precision)
            assert_matches_python(-x, precision)

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_zeros_subnormals_and_non_finite(self, precision):
        tiny = np.random.default_rng(3).integers(1, 2 ** 52, 1000, dtype=np.uint64)
        x = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                             1.7976931348623157e308, -1.7976931348623157e308,
                             np.inf, -np.inf, np.nan, -np.nan, 1e-280, 1e280,
                             np.nextafter(1e-280, 0.0), np.nextafter(1e280, np.inf)],
                            tiny.view(np.float64)])
        assert_matches_python(x, precision)

    def test_precision_outside_int64_refused(self):
        for precisions in [(17,), (9, 17), (0, 16)]:
            with pytest.raises(ValueError):
                e_cells(np.ones(3), precisions)


class TestTableText:
    @pytest.mark.parametrize("n", [SMALL_INPUT // 2 - 1, SMALL_INPUT // 2,
                                   SMALL_INPUT // 2 + 1, 3 * SMALL_INPUT])
    def test_both_sides_of_the_small_input_size(self, n):
        # two float columns: 2n cells fall on either side of SMALL_INPUT
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        y = np.where(rng.random(n) < 0.1, np.nan, rng.uniform(-1, 1, n))
        labels = [str(j) for j in range(n)]
        rows = zip(labels, x.tolist(), y.tolist())
        assert table_text([labels, x, y], 9) == "".join("%s,%.9e,%.9e\n" % r for r in rows)

    def test_empty_table(self):
        assert table_text([np.array([])], 9) == ""
        assert table_text([], 9) == ""
        assert float_cells([]) == []

    @pytest.mark.parametrize("n", [4, SMALL_INPUT + 1])
    def test_json_array_parses_back_to_the_same_doubles(self, n):
        bits = np.random.default_rng(n).integers(0, 2 ** 64, n, dtype=np.uint64)
        x = np.where(np.isnan(bits.view(np.float64)), 1.5, bits.view(np.float64))
        assert json_text(x) == "[" + ", ".join(python_text(x, 16)) + "]"
        assert [v.hex() for v in json.loads(json_text(x))] == [v.hex() for v in x.tolist()]
        x[:4] = [np.nan, np.inf, -np.inf, -0.0]
        text = json_text(x)
        assert text.startswith("[NaN, Infinity, -Infinity, -0.0000000000000000e+00")
        back = json.loads(text)
        assert math.isnan(back[0])
        assert [v.hex() for v in back[1:]] == [v.hex() for v in x[1:].tolist()]
        assert json_text(np.array([])) == "[]"

    def test_one_call_formats_each_array_once(self):
        # an array asked for at two precisions, and a second array at one
        x = np.linspace(-3.0, 7.0, 301)
        y = np.exp(x)
        got = float_cells([(x, 9), (y, 9), (x, 16)])
        assert [cell_text(c) for c in got] == [python_text(x, 9), python_text(y, 9),
                                               python_text(x, 16)]


def json_text(x):
    return json_array(float_cells([(x, 16)])[0]).decode("ascii")


@functools.cache
def exact_exponent(v):
    """e with 10^e <= |v| < 10^(e+1), exactly."""
    f = abs(Fraction(v))
    e = math.floor(math.log10(f))
    e -= f < Fraction(10) ** e
    e += f >= Fraction(10) ** (e + 1)
    return e


def tie_side(v, P, T):
    """Where |v| lies against the rounding of its T + 1 digits D to P + 1
    when D mod 10^(T-P) is exactly half a unit: -1 below the tie, 0 on it,
    1 above; None for any other remainder."""
    y = abs(Fraction(v)) * Fraction(10) ** (T - exact_exponent(v))
    D, q = round(y), 10 ** (T - P)
    if D % q != q // 2:
        return None
    return (y > D) - (y < D)


@functools.cache
def carries(v, P):
    """Whether "%.{P}e" rounds |v| up to the next power of ten."""
    return exact_exponent(v) < int((f"%.{P}e" % v).split("e")[1])


class TestPrecisionPairs:
    """Every precision P below the pass's top T is derived from the T + 1
    digits of one pass; each pair must print as Python's % does."""

    @pytest.mark.parametrize("T", range(2, 17))
    def test_half_remainders(self, T):
        # P + 2 significant digits ending in 5: the T + 1 digits end in
        # exactly half a unit of the P + 1, and the double lies just below
        # the tie, just above it or on it
        for P in range(1, T):
            rng = np.random.default_rng(100 * T + P)
            x = [float(f"{n}5e{t}") for n, t in
                 zip(rng.integers(10 ** P, 10 ** (P + 1), 150), rng.integers(-290, 270, 150))]
            x = np.concatenate([x, exact_ties(P, rng, 20)[::10]])
            sides = [tie_side(v, P, T) for v in x.tolist()]
            assert {-1, 0, 1} <= set(sides), (P, T)
            assert_pass_matches_python(x, (P, T))
            assert_pass_matches_python(-x, (T, P))

    @pytest.mark.parametrize("T", range(2, 17))
    def test_carries_at_one_or_both_precisions(self, T):
        # the doubles nearest powers of ten and their neighbours, and values
        # just under 10^(P+1) units of the low precision P
        powers = np.array([float(f"1e{n}") for n in range(-290, 291)])
        for P in range(1, T):
            near = [float((10 ** (P + 1) - Fraction(1, 4)) * Fraction(10) ** (n - P))
                    for n in range(-270, 271, 9)]
            x = np.concatenate([powers, np.nextafter(powers, 0.0), near])
            low_only = [carries(v, P) and not carries(v, T) for v in x.tolist()]
            both = [carries(v, P) and carries(v, T) for v in x.tolist()]
            assert any(low_only) and any(both), (P, T)
            assert_pass_matches_python(x, (P, T))
            assert_pass_matches_python(-x, (P, T))

    def test_zeros_subnormals_edges_and_non_finite(self):
        tiny = np.random.default_rng(4).integers(1, 2 ** 52, 200, dtype=np.uint64)
        values = np.random.default_rng(5).standard_normal(200) * 10.0 ** np.arange(-100, 100)
        x = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                             1e-280, -1e-280, np.nextafter(1e-280, 0.0),
                             np.nextafter(-1e-280, 0.0), 1e280, -1e280,
                             np.nextafter(1e280, np.inf), np.nextafter(-1e280, -np.inf),
                             np.inf, -np.inf, np.nan, -np.nan],
                            tiny.view(np.float64), -tiny.view(np.float64), values, -values])
        for T in range(2, 17):
            for P in range(1, T):
                assert_pass_matches_python(x, (P, T))

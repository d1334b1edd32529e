"""The vectorized 17-digit formatter against Python's ``"%.17g" % x``."""

import numpy as np
import pytest

from permslab import _g17


def rendered(values) -> str:
    """``format_into`` of each value and a newline, with the 0 bytes dropped."""
    out = np.zeros((values.size, _g17.SLOT + 1), np.uint8)
    out[:, -1] = ord("\n")
    _g17.format_into(values, out)
    return out.tobytes().translate(None, b"\0").decode("ascii")


def assert_matches(values):
    got = rendered(values)
    if got != "".join(["%.17g\n"] * values.size) % tuple(values.tolist()):
        mismatches = [(x, g) for x, g in zip(values.tolist(), got.splitlines())
                      if g != "%.17g" % x]
        pytest.fail(f"(x, got) of the first mismatches: {mismatches[:5]}")


def ties(rng, count):
    """Doubles whose 17-digit rounding is an exact tie: x = p / 2**(s+1)
    with p odd and p·5**s in [2e16, 2e17), so x·10**s = p·5**s / 2 is a
    half-integer of 17 digits, for every scale 10**s of the kernel."""
    out = []
    for s in range(1, 23):
        low = -(-2 * 10**16 // 5**s)
        high = min(2 * 10**17 // 5**s, 2**53)
        p = rng.integers(low, high, count) | 1
        out.append(p.astype(np.float64) / 2.0 ** (s + 1))
    return np.concatenate(out)


def edge_values(rng):
    """Powers of ten and their neighbours up to three ulps away, the
    largest double below 1, a tie, the kernel's range ends, and ties."""
    powers = 10.0 ** np.arange(-7, 18)
    near, below, above = [powers], powers, powers
    for _ in range(3):
        below, above = np.nextafter(below, 0), np.nextafter(above, np.inf)
        near += [below, above]
    specials = [0.99999999999999989, 16980304437.476562, 9.999999999999999e15,
                0.0, 5e-324, 2.2250738585072009e-308, np.finfo(float).tiny,
                np.finfo(float).max, np.inf, np.nan, 1e-6, 1.5, 120.25, 100.0, 1e15]
    return np.concatenate([*near, specials, ties(rng, 1000)])


@pytest.fixture(scope="module")
def values():
    """Seeded, and with its negation, 1.02 million values."""
    rng = np.random.default_rng(20261019)
    bits = rng.integers(0, 2**64, 150_000, dtype=np.uint64).view(np.float64)
    scaled = rng.standard_normal(300_000) * 10.0 ** rng.uniform(-9, 18, 300_000)
    # whole and short numbers: trailing zeros in the integer part and the fraction
    scale = 10.0 ** rng.integers(0, 6, 40_000)
    short = np.round(rng.standard_normal(40_000) * 10.0 ** rng.uniform(-3, 16, 40_000)
                     * scale) / scale
    values = np.concatenate([bits, scaled, short, edge_values(rng)])
    return np.concatenate([values, -values])


def test_at_least_a_million_values(values):
    assert values.size >= 1_000_000
    magnitude = np.abs(values)
    inside = (magnitude > 1e-6) & (magnitude < 1e16)
    # most go through the kernel, and every kind of value it leaves to `%` is there
    assert inside.mean() > 0.5
    outside = values[~inside]
    assert np.isnan(outside).any() and np.isinf(outside).any()
    assert (outside == 0).any() and (np.signbit(outside) & (outside == 0)).any()
    assert ((magnitude > 0) & (magnitude < np.finfo(float).tiny)).any()


def test_matches_percent_format_byte_for_byte(values):
    for block in np.array_split(values, 40):
        assert_matches(block)


@pytest.mark.parametrize("x", [1e-6, -1e-6, 1e16, -1e16, np.nextafter(1e16, 0)])
def test_range_ends(x):
    assert_matches(np.array([x]))


def test_any_shape_and_strided_out():
    values = np.array([[0.1, -2.5e-5], [0.0, 1e300], [123456.789, -np.inf]])
    out = np.zeros((3, 2, _g17.SLOT + 3), np.uint8)
    _g17.format_into(values, out)
    assert not out[..., _g17.SLOT:].any()
    texts = [[cell.tobytes().translate(None, b"\0").decode() for cell in row] for row in out]
    assert texts == [["%.17g" % x for x in row] for row in values.tolist()]

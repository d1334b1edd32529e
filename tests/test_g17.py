"""The vectorized 17-digit formatter against Python's ``"%.17g" % x``,
and its reader against ``float(token)``."""

import numpy as np
import pytest

from permslab import _g17


def rendered(values) -> str:
    """``format_into`` of each value and a newline, with the 0 bytes dropped."""
    out = np.full((values.size, _g17.WORDS), ord("?") * 0x0101010101010101, _g17.WORD)
    _g17.format_into(values, out, ord("\n"))  # leaves none of the "?" fill
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
    """Seeded, and with its negation, 1.86 million values."""
    rng = np.random.default_rng(20261019)
    bits = rng.integers(0, 2**64, 150_000, dtype=np.uint64).view(np.float64)
    scaled = rng.standard_normal(300_000) * 10.0 ** rng.uniform(-9, 18, 300_000)
    # whole and short numbers: trailing zeros in the integer part and the fraction
    scale = 10.0 ** rng.integers(0, 6, 40_000)
    short = np.round(rng.standard_normal(40_000) * 10.0 ** rng.uniform(-3, 16, 40_000)
                     * scale) / scale
    # the kernel's range, as the reflection coefficients and IF samples fill it
    room = 10.0 ** rng.uniform(np.log10(_g17._ROOM[0]), np.log10(_g17._ROOM[1]), 420_000)
    values = np.concatenate([bits, scaled, short, room, edge_values(rng)])
    return np.concatenate([values, -values])


def test_at_least_a_million_values(values):
    assert values.size >= 1_000_000
    magnitude = np.abs(values)
    inside = (magnitude > _g17._ROOM[0]) & (magnitude < _g17._ROOM[1])
    # most go through the kernel, and every kind of value it leaves to `%` is there
    assert inside.mean() > 0.5
    outside = values[~inside]
    assert np.isnan(outside).any() and np.isinf(outside).any()
    assert (outside == 0).any() and (np.signbit(outside) & (outside == 0)).any()
    assert ((magnitude > 0) & (magnitude < np.finfo(float).tiny)).any()


def test_matches_percent_format_byte_for_byte(values):
    for block in np.array_split(values, 40):
        assert_matches(block)


@pytest.mark.parametrize("x", [1e-6, -1e-6, 1e16, -1e16, np.nextafter(1e16, 0),
                               1e-4, -1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1),
                               10.0, -10.0, np.nextafter(10.0, 0)])
def test_range_ends(x):
    assert_matches(np.array([x]))


def test_decade_ends_within_64_ulps():
    """Every double within 64 ulps of the powers of ten where the
    kernel's decade changes or its range ends, both signs."""
    ends = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0])
    bits = ends.view(np.uint64)[:, None] + np.arange(-64, 65).astype(np.uint64)
    values = bits.view(np.float64).ravel()
    assert values.size == 6 * 129 and np.unique(values).size == values.size
    assert_matches(np.concatenate([values, -values]))


def test_any_shape_and_strided_out():
    values = np.array([[0.1, -2.5e-5], [0.0, 1e300], [123456.789, -np.inf]])
    out = np.zeros((3, 2, _g17.WORDS + 1), _g17.WORD)
    _g17.format_into(values, out, 0)
    assert not out[..., _g17.WORDS:].any()
    texts = [[cell.tobytes().translate(None, b"\0").decode() for cell in row] for row in out]
    assert texts == [["%.17g" % x for x in row] for row in values.tolist()]


def parsed(tokens):
    """``_g17.parse`` of byte tokens laid out one after another with a
    space after each: the values, and whether a rule took each token."""
    text = b" ".join(tokens) + b" "
    buf = np.zeros(_g17.WINDOW + len(text), np.uint8)
    buf[_g17.WINDOW:] = np.frombuffer(text, np.uint8)
    lengths = np.array([len(t) for t in tokens])
    values, rest = _g17.parse(buf, _g17.WINDOW + np.cumsum(lengths + 1) - 1, lengths)
    taken = np.ones(len(tokens), bool)
    taken[rest] = False
    return values, taken


def assert_reads(tokens, must_take=None):
    """Every token a rule takes reads as ``float(token)``, bit for bit;
    the rules take at least the tokens ``must_take`` marks."""
    values, taken = parsed(tokens)
    expected = np.array([float(t) for t in np.array(tokens)[taken].tolist()])
    got = values[taken]
    wrong = np.flatnonzero(got.view(np.uint64) != expected.view(np.uint64))
    if wrong.size:
        pytest.fail(f"(token, got) of the first misreads: "
                    f"{[(np.array(tokens)[taken][i], got[i]) for i in wrong[:5]]}")
    if must_take is not None:
        missed = np.flatnonzero(must_take & ~taken)
        assert not missed.size, f"left to float: {[tokens[i] for i in missed[:5]]}"
    return taken


def test_reads_back_what_it_writes(values):
    # every value class of the writer's tests; a rule takes every value of
    # 1e-6 < |x| < 1e16, a range wider than the writer's kernel takes, its
    # 17-digit ties included, and every zero
    for block in np.array_split(values, 40):
        tokens = (b"%.17g " * block.size % tuple(block.tolist())).split()
        magnitude = np.abs(block)
        taken = assert_reads(tokens, ((magnitude > 1e-6) & (magnitude < 1e16)) | (block == 0))
        assert (block[taken].view(np.uint64) == parsed(tokens)[0][taken].view(np.uint64)).all()


def test_reads_shortest_repr(values):
    for block in np.array_split(values[np.isfinite(values)][::5], 8):
        assert_reads([repr(x).encode() for x in block.tolist()])


def midpoints(rng, count):
    """Decimal strings of exact midpoints between adjacent doubles that
    are short enough for the rules to see: odd integers above 2**53."""
    odd = rng.integers(2**53, 2**56, count) | 1
    return [b"%d" % int(x) for x in odd.tolist()]


@pytest.mark.parametrize("tokens", [
    # ties between doubles round to even; 2**53 - 1, 2**53 and 2**53 + 1
    midpoints(np.random.default_rng(1), 2000)
    + [b"9007199254740991", b"9007199254740992", b"9007199254740993",
       b"-9007199254740993", b"18014398509481985", b"18014398509481987"],
    # 18 to 25 digits
    [b"0.123456789012345678", b"1234567890123456789", b"9223372036854775807",
     b"9223372036854775808", b"99999999999999999999", b"0.1234567890123456789012345",
     b"1.00000000000000000000001", b"4.9406564584124654417656879e-324",
     b"1.7976931348623157081452742e+308", b"12345678901234567.5"],
    # points at either end, leading zeros and signs
    [b"5.", b".5", b"-.5", b"-5.", b"0.", b".0", b"-0.", b"00000000000000000000001",
     b"0000.5000", b"-000000.000001", b"00012345678901234567.0", b"+1.5", b"+.5e-05",
     b"1E-05", b"1e5", b"1e+5", b"1e-5", b"1.5e-005", b"-0e-300", b"0e+400"],
    # 24 bytes of mantissa, the first no digit: none reads as float
    [b"(12345678901234567890123", b"$00000000000000000000001", b"!2345678901234567890123",
     b"-)2345678901234567890123", b"(1234567890123456789012.", b"0000000000000000000.(001",
     b"\x1000000000000000000000001", b"\x0000000000000000000000001"],
])
def test_hand_written_tokens_read_as_float(tokens):
    assert_reads(tokens)


@pytest.mark.parametrize("tokens, taken", [
    ([b"5.", b".5", b"-.5", b"0000.5000", b"00000000000000000000001", b"9007199254740992",
      b"1e+22", b"1.5e-05", b"-0"], True),
    ([b"9007199254740993", b"1e23", b"1E-05", b"+1", b"1e5", b"0.1234567890123456789012345",
      b"1.2345678901234567e+17", b"1.5e-005", b"-0e-300"], False),
])
def test_what_the_rules_take(tokens, taken):
    assert_reads(tokens)
    assert (parsed(tokens)[1] == taken).all()


@pytest.mark.parametrize("scale", [1e-6, 1e16])
def test_straddles_the_range_ends(scale):
    x = np.array([scale])
    near = [x]
    for _ in range(40):
        near += [np.nextafter(near[-2 if len(near) > 1 else -1], 0), np.nextafter(near[-1], np.inf)]
    near = np.concatenate(near)
    near = np.concatenate([near, -near, near * 1.0000001, near / 1.0000001])
    assert_reads((b"%.17g " * near.size % tuple(near.tolist())).split())
    assert_reads([repr(v).encode() for v in near.tolist()])

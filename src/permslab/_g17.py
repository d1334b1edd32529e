"""``"%.17g" % x`` for many doubles at once, byte for byte.

Python formats a double to 17 significant digits with big-integer
arithmetic (its dtoa leaves the fast path above 14 digits), about 0.5 µs
a value. ``format_into`` does the same conversion with a few dozen numpy
operations per block for every finite ``x`` with 1e-6 < |x| < 1e16
(compared as doubles; the double nearest 1e-6 lies below 10**-6), and
falls back to ``%`` for the rest: zeros, subnormals, |x| <= 1e-6,
|x| >= 1e16, infinities and nan.

The conversion. With ``k = floor(log10|x|)`` (one correction pass for
the rows where ``log10`` rounds across a power of ten), |x|·10^(16−k)
lies in [1e16, 1e17). Dekker's two-product (Numer. Math. 18, 1971)
splits it exactly into ``hi + lo``; 10^s is exact for s <= 22, which
sets the lower end of the range. ``hi`` is a double in [1e16, 1e17],
above 2^53, hence an even integer, so ``hi + rint(lo)`` (summed in
int64) is the 17-digit integer rounded to nearest with ties to even, as
``%`` rounds. It never carries to 10^17: inside the range, the largest
double below each power of ten is at least 8 units of the 17th digit
below it.

The layout. Each value gets a slot of ``SLOT`` bytes: sign, the ``0.``
and leading zeros of a fixed-point number below 1, the lead digit, the
point of e-notation and of numbers in [1, 10), the other 16 digits, and
the ``e-0N`` of the e-notation that ``%g`` uses for exponents below -4.
The 16 digits are four-digit ASCII words from a 10000-entry table, with
a second half that drops trailing zeros; in a number of 10 or more, the
digits after the point move one byte right to make room for it. Every
byte a value does not use is 0, and the writer drops all 0 bytes of a
block at once.
"""

from __future__ import annotations

import functools

import numpy as np

# bytes per value: 0-5 sign and "0.000", 6 lead digit, 7 point, 8-23 digits, 24-27 "e-0N"
SLOT = 28
_ROOM = 1e-6, 1e16  # the kernel's range of |x|, both ends open
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant for doubles


@functools.cache
def _tables():
    """Built on first use, so importing permslab does not pay for them.

    - words: the four digits of w in 0..9999 as ASCII at index w, and
      the same with trailing zeros dropped at index 10000 + w, as uint32;
    - prefixes: sign and "0.000…" for (negative, length of "0.000…")
      at index 6·negative + length, as uint64 padded with 0 bytes;
    - 10**s for s <= 22 and its Dekker halves.
    """
    w = np.arange(10000, dtype=np.int16)
    words = np.empty((2, 10000, 4), np.uint8)
    for j, unit in enumerate((1000, 100, 10, 1)):
        words[:, :, j] = w // unit % 10 + 48
    zeros = np.ones(10000, bool)  # this digit and all after it are zeros
    for j in (3, 2, 1, 0):
        zeros &= words[1, :, j] == ord("0")
        words[1, zeros, j] = 0
    prefixes = np.array([sign + b"0.000"[:length] for sign in (b"", b"-") for length in range(6)],
                        dtype="S8")
    pow10 = 10.0 ** np.arange(23)
    scaled = _SPLIT * pow10
    high = scaled - (scaled - pow10)
    return (words.reshape(-1, 4).view(np.uint32).ravel(),
            prefixes.view(np.uint64), pow10, high, pow10 - high)


def format_into(values, out) -> None:
    """Write ``"%.17g" % x`` of each of the float64 ``values`` (any
    shape) into the zero bytes ``out[..., :SLOT]``, left to right, with
    0 in every byte the text does not use."""
    magnitude = np.abs(values)
    inside = (magnitude > _ROOM[0]) & (magnitude < _ROOM[1])
    if inside.all():
        slots = _kernel(values.ravel(), magnitude.ravel())
        out[..., :SLOT] = slots.reshape(*values.shape, SLOT)
        return
    outside = ~inside
    text = [b"%.17g" % x for x in values[outside].tolist()]
    out[outside, :SLOT] = np.array(text, dtype=f"S{SLOT}").view(np.uint8).reshape(-1, SLOT)
    if inside.any():
        out[inside, :SLOT] = _kernel(values[inside], magnitude[inside])


def _two_product(x, s, pow10, high, low):
    """``hi + lo == x·10**s`` exactly, ``hi`` the rounded product."""
    hi = x * pow10[s]
    scaled = _SPLIT * x
    x_high = scaled - (scaled - x)
    x_low = x - x_high
    p_high, p_low = high[s], low[s]
    lo = ((x_high * p_high - hi) + x_high * p_low + x_low * p_high) + x_low * p_low
    return hi, lo


def _kernel(values, magnitude) -> np.ndarray:
    """The (n, SLOT) slots of n values inside the kernel's range."""
    words, prefixes, pow10, high, low = _tables()
    n = values.size
    k = np.floor(np.log10(magnitude)).astype(np.int64)
    np.clip(k, -6, 15, out=k)  # a log10 an ulp off at the range ends stays in the table
    hi, lo = _two_product(magnitude, 16 - k, pow10, high, low)
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    wrong = np.flatnonzero(below | above)
    if wrong.size:
        k[wrong] += above[wrong].astype(np.int64) - below[wrong]
        hi[wrong], lo[wrong] = _two_product(magnitude[wrong], 16 - k[wrong], pow10, high, low)
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # the 17 digits: a lead digit and four words of four
    upper, lower = np.divmod(digits, 10**8)
    lead, upper = np.divmod(upper, 10**8)
    quads = np.empty((n, 4), np.int32)
    quads[:, 0], quads[:, 1] = np.divmod(upper.astype(np.int32), 10000)
    quads[:, 2], quads[:, 3] = np.divmod(lower.astype(np.int32), 10000)
    # a word drops its trailing zeros once every later word is zero
    stripped = np.empty_like(quads)
    later_zero = np.ones(n, bool)
    for j in (3, 2, 1, 0):
        np.add(quads[:, j], 10000 * later_zero, out=stripped[:, j])
        later_zero &= quads[:, j] == 0
    fixed = k >= -4  # "%g" writes e-notation below 1e-4
    point_first = fixed & (k < 0)  # "0.000ddd"
    slots = np.zeros((n, SLOT), np.uint8)
    prefix = prefixes[np.where(point_first, 1 - k, 0) + 6 * (values < 0)]
    slots[:, :8] = prefix.view(np.uint8).reshape(n, 8)
    slots[:, 6] = lead + 48
    slots[:, 8:24] = np.take(words, stripped).view(np.uint8).reshape(n, 16)
    # the point after the lead digit (e-notation, and [1, 10)) where a
    # fraction digit is left
    rows = np.flatnonzero(~point_first & (k <= 0))
    slots[rows[digits[rows] % 10**16 != 0], 7] = ord(".")
    sci = np.flatnonzero(~fixed)
    slots[sci, 24:27] = np.frombuffer(b"e-0", np.uint8)
    slots[sci, 27] = 48 - k[sci]
    # 10 and above: the point after digit e, or none in a whole number,
    # which keeps the zeros of its integer part
    for e in set(k[k > 0].tolist()):
        rows = np.flatnonzero(k == e)
        whole = digits[rows] % 10 ** (16 - e) == 0
        kept = rows[whole]
        slots[kept, 8:8 + e] = np.take(words, quads[kept]).view(np.uint8).reshape(-1, 16)[:, :e]
        rows = rows[~whole]
        slots[rows, 9 + e:25] = slots[rows, 8 + e:24]
        slots[rows, 8 + e] = ord(".")
    return slots

"""17-digit decimal text of many doubles at once, both ways, exactly.

Python converts between a double and 17 significant digits with
big-integer arithmetic (its dtoa leaves the fast path above 14 digits
when writing; ``float`` reads such a token in about 0.3 µs). This module
does both with a few dozen numpy operations per block:

- ``format_into`` gives each double the bytes of ``"%.17g" % x`` for every
  finite ``x`` with 1e-4 < |x| < 10 (compared as doubles), which ``%g``
  writes as ``[-]0.000ddd…`` or ``[-]d.ddd…``, and falls back to ``%`` for
  the rest: zeros, subnormals, |x| <= 1e-4, |x| >= 10, infinities and nan;
- ``parse`` gives each token the double ``float(token)`` gives, for the
  tokens one of its two exact rules takes (below), and names the others,
  which the caller reads another way.

The digit step, shared by both. For ``x`` and a scale ``s <= 22``,
Dekker's two-product (Numer. Math. 18, 1971) splits x·10^s exactly into
``hi + lo``, as 10^s is an exact double for s <= 22. When x·10^s lies in
[1e16, 1e17], ``hi`` is above 2^53, hence an even integer, so
``hi + rint(lo)`` (summed in int64) is the 17-digit integer rounded to
nearest with ties to even, as ``%`` rounds.

Writing. The decade of |x| is four comparisons,
``k = -4 + (|x| >= 1e-3) + (|x| >= 1e-2) + (|x| >= 1e-1) + (|x| >= 1)``,
exact: 1 is a double, and the doubles 1e-3, 1e-2 and 1e-1 lie above
their powers of ten (by 2.1e-20, 2.1e-19 and 5.6e-18), so no double lies
between a power and the double nearest it. Then s = 16 − k puts
|x|·10^s in [1e16, 1e17), and one two-product gives the digits, so the
bytes written rest on IEEE comparisons, products and sums alone, with no
libm call. Inside the range k is -4 to 0, the decimal exponents
``%g`` writes in fixed notation: the double 1e-4 lies above 10^-4, so a
double above it has an exponent of -4 or more, and below 10 the point
always follows the lead digit. The digits never carry to 10^17:
the largest double below each power of ten is at least 8 units of the
17th digit below it. Each value owns ``WORDS`` little-endian 64-bit
words of the caller's array, which the kernel fills a column at a time:
word 0 holds the sign and the ``0.`` and leading zeros of a number below
1 (a 12-entry table of words), the lead digit in byte 6 and, in byte 7,
the point of a number in [1, 10); words 1-2 hold the other 16 digits,
one ``take`` of a 10000-entry table of four-digit ASCII words, with a
second half that drops trailing zeros; word 3 holds only, in its top
byte, the byte the caller puts after the value (a space, or the line
end). Every byte a value does not use is 0, and the writer drops all 0
bytes of a block at once. A value outside the range is written by ``%``
into its 32 bytes, which hold its at most 24 and the byte after it.

The range is what the program writes in blocks large enough for the
kernel: reflection coefficients (|Γ| <= 1) and raw IF samples. Of the
413,048 values a CLI ``simulate --mode raw-if`` (M=200, N=1024),
``extract`` and ``estimate`` write, all but the 100 report distances of
10 mm and more lie inside it; ``%`` writes those one at a time.

Reading. A token ``[-]digits[.digits][e±dd]`` of at most 24 digits is
read as an integer D and a decimal exponent q, its value ±D·10^q: the
mantissa's last 24 bytes are three little-endian words, the point is
dropped by moving the bytes before it one byte on, and each word's eight
ASCII digits are summed in place (pairs, quads, then all eight). The
value is the nearest double to D·10^q when

- D <= 2^53 and |q| <= 22 (Clinger's fast path, PLDI 1990): D and 10^|q|
  are doubles, so one division or product rounds it correctly;
- or D has 16 or 17 digits, written as 17 digits D17·10^−s with
  0 <= s <= 22, and a candidate double c has D17 as its 17 digits by the
  digit step. Then |D17 − c·10^s| <= 1/2, and as 10^16 > 2^53 that is
  less than half the spacing of the doubles around c, scaled by 10^s, so
  c is the double nearest the token: the 17-digit round trip, read
  backwards. Every token ``format_into`` writes inside its range is such
  a token.

The candidate is D / 10^−q, off by up to two ulps in about one token of
six; those get the remainder of the two-product added once and are
checked again. Any other token, and any token the checks refuse, is
left to the caller.
"""
from __future__ import annotations

import functools

import numpy as np

# words per value: 0 sign and "0.000", lead digit and point; 1-2 the other
# 16 digits; 3 in its top byte the byte after the value, and room for the
# longer text `%` writes outside the kernel's range
WORDS = 4
WORD = np.dtype("<u8")  # eight bytes, the first the least significant on every host


def _byte_masks(keep):
    """Words of the bool bytes ``keep``: 255 in each byte kept, 0 in the others."""
    return np.where(keep, np.uint8(255), np.uint8(0)).view(WORD)


# FIRST_BYTES[n]: of 16 bytes as two words, the first n kept
FIRST_BYTES = _byte_masks(np.arange(16) < np.arange(17)[:, None])
_ROOM = 1e-4, 10.0  # the kernel's range of |x|, both ends open
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant for doubles
_SHIFT_LEAD, _SHIFT_TOP = np.uint64(48), np.uint64(56)


@functools.cache
def _tables():
    """Built on first use, so importing permslab does not pay for them.

    - quad_text: the four digits of w in 0..9999 as ASCII at index w, and
      the same with trailing zeros dropped at index 10000 + w, as uint32;
    - prefixes: sign and "0.000…" for (negative, length of "0.000…")
      at index 6·negative + length, as words padded with 0 bytes;
    - 10**s for s <= 22 and its Dekker halves.
    """
    w = np.arange(10000, dtype=np.int16)
    text = np.empty((2, 10000, 4), np.uint8)
    for j, unit in enumerate((1000, 100, 10, 1)):
        text[:, :, j] = w // unit % 10 + 48
    zeros = np.ones(10000, bool)  # this digit and all after it are zeros
    for j in (3, 2, 1, 0):
        zeros &= text[1, :, j] == ord("0")
        text[1, zeros, j] = 0
    prefixes = np.array([sign + b"0.000"[:length] for sign in (b"", b"-") for length in range(6)],
                        dtype="S8")
    pow10 = 10.0 ** np.arange(23)
    scaled = _SPLIT * pow10
    high = scaled - (scaled - pow10)
    return (text.reshape(-1, 4).view(np.uint32).ravel(), prefixes.view(WORD), pow10, high,
            pow10 - high)


def format_into(values, out, ends) -> None:
    """Write ``"%.17g" % x`` of each of the float64 ``values`` (any
    shape) into its ``WORDS`` words ``out[..., :WORDS]`` (of dtype
    ``WORD``), left to right, with the byte ``ends`` (broadcast against
    ``values``) in the top byte of the last word and 0 in every other
    byte the text does not use."""
    ends = np.asarray(ends, WORD) << _SHIFT_TOP
    magnitude = np.abs(values)
    outside = ~((magnitude > _ROOM[0]) & (magnitude < _ROOM[1]))
    if not outside.any():
        _kernel(values, magnitude, ends, out)
        return
    # the kernel writes 1 for each value outside its range, which `%` then writes
    _kernel(np.where(outside, 1.0, values), np.where(outside, 1.0, magnitude), ends, out)
    text = [b"%.17g" % x for x in values[outside].tolist()]  # at most 24 bytes
    words = np.array(text, dtype=f"S{8 * WORDS}").view(WORD).reshape(-1, WORDS)
    words[:, -1] |= np.broadcast_to(ends, values.shape)[outside]
    out[outside, :WORDS] = words


def _two_product(x, s, pow10, high, low):
    """``hi + lo == x·10**s`` exactly, ``hi`` the rounded product."""
    hi = x * np.take(pow10, s)
    x_high = _SPLIT * x
    term = x_high - x
    x_high -= term
    x_low = x - x_high
    p_high, p_low = np.take(high, s), np.take(low, s)
    # ((x_high·p_high − hi) + x_high·p_low + x_low·p_high) + x_low·p_low,
    # in place and in that order
    lo = x_high * p_high
    lo -= hi
    lo += np.multiply(x_high, p_low, out=term)
    lo += np.multiply(x_low, p_high, out=term)
    x_low *= p_low
    lo += x_low
    return hi, lo


def _digits(hi, lo) -> np.ndarray:
    """The integer nearest ``hi + lo`` (ties to even), for ``hi`` a
    double of at least 2**53, hence an even integer: the digit step."""
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _kernel(values, magnitude, ends, out) -> None:
    """``format_into`` of values inside the kernel's range, of the shape
    of ``out[..., 0]``, by column stores into ``out``."""
    quad_text, prefixes, pow10, high, low = _tables()
    shape = out.shape[:-1]
    values, magnitude = values.ravel(), magnitude.ravel()
    n = values.size
    # the exact decade of |x| (module docstring)
    k = sum(magnitude >= bound for bound in (1e-3, 1e-2, 1e-1, 1.0)) - 4
    digits = _digits(*_two_product(magnitude, 16 - k, pow10, high, low))
    # the 17 digits: a lead digit and four words of four (numpy's floor
    # division of integers is several times faster than its divmod)
    upper = digits // 10**8
    lower = (digits - upper * 10**8).astype(np.int32)
    lead = upper // 10**8
    upper = (upper - lead * 10**8).astype(np.int32)
    quads = np.empty((n, 4), np.int32)
    quads[:, 0] = upper // 10000
    quads[:, 1] = upper - quads[:, 0] * 10000
    quads[:, 2] = lower // 10000
    quads[:, 3] = lower - quads[:, 2] * 10000
    point_first = k < 0  # "0.000ddd"
    # word 0: the prefix, the lead digit in byte 6, and the point after it
    # in [1, 10) where a fraction digit is left
    head = np.take(prefixes, np.where(point_first, 1 - k, 0) + 6 * (values < 0))
    lead += ord("0")
    head |= lead.view(np.uint64) << _SHIFT_LEAD
    rows = np.flatnonzero(~point_first)
    head[rows[digits[rows] % 10**16 != 0]] |= np.uint64(ord(".")) << _SHIFT_TOP
    out[..., 0] = head.reshape(shape)
    # words 1-2 without trailing zeros: the last word of four drops its
    # own, and where it is 0000 the words before it may drop theirs
    stripped = quads.copy()
    stripped[:, 3] += 10000
    rows = np.flatnonzero(quads[:, 3] == 0)
    if rows.size:
        stripped[rows] = _stripped(quads[rows])
    store(out[..., 1:3], np.take(quad_text, stripped).view(WORD).reshape(*shape, 2))
    out[..., 3] = ends


def store(out, words) -> None:
    """``out[...] = words`` for arrays of words whose last axes are
    contiguous, copied a row at a time as one item: numpy stores strided
    rows several times faster that way than word by word."""
    item = f"V{8 * words.shape[-1]}"
    out.view(item)[..., 0] = words.view(item)[..., 0]


def _stripped(quads):
    """Indexes into the table of four digits of the words ``quads``
    (n, 4): a word drops its trailing zeros once every later word is zero."""
    stripped = np.empty_like(quads)
    later_zero = np.ones(len(quads), bool)
    for j in (3, 2, 1, 0):
        np.add(quads[:, j], 10000 * later_zero, out=stripped[:, j])
        later_zero &= quads[:, j] == 0
    return stripped


# bytes ``parse`` reads up to the end of a token: the most mantissa it takes
WINDOW = 24
_ZEROS = np.uint64(0x3030303030303030)  # eight ASCII "0"
_NIBBLES = np.uint64(0xF0F0F0F0F0F0F0F0)
_FRACTION_DIGITS = np.array([0, *range(23, -1, -1)], np.int64)  # after a point at byte i - 1


@functools.cache
def _masks():
    """Byte masks as words, built on first use; each keeps the bytes
    named and clears the rest:

    - top[n]: the last n of a word's 8 bytes; fill[n] "0" in the others;
    - top24[n]: the last n of three words' 24 bytes;
    - before[i], after[i]: of 24 bytes with a point at byte i - 1, the
      bytes before and after it; before[0] none and after[0] all (no point).
    """
    byte8, byte24 = np.arange(8), np.arange(24)
    n8, n24 = np.arange(9)[:, None], np.arange(25)[:, None]
    top = _byte_masks(byte8 >= 8 - n8)[:, 0]
    return (top, ~top & _ZEROS, _byte_masks(byte24 >= 24 - n24), _byte_masks(byte24 < n24 - 1),
            _byte_masks(byte24 >= n24))


def _all_digits(words):
    """Whether every byte of each word is an ASCII digit: its high nibble
    is 3, and adding 6 to it (which carries into no other byte once the
    high nibbles are 3) leaves it so."""
    nibbles = words & _NIBBLES
    digits = nibbles == _ZEROS
    np.add(words, np.uint64(0x0606060606060606), out=nibbles)
    nibbles &= _NIBBLES
    digits &= nibbles == _ZEROS
    return digits


def _swar(words):
    """The value of the eight ASCII digits of each word, its first byte
    the most significant, computed in place: each multiplication adds
    ten (then 100, then 10**4) times a lane to the next, and the shift
    and mask keep every second, now twice as wide, lane."""
    words &= np.uint64(0x0F0F0F0F0F0F0F0F)
    for factor, shift, mask in ((10 << 8 | 1, 8, 0x00FF00FF00FF00FF),
                                (100 << 16 | 1, 16, 0x0000FFFF0000FFFF),
                                (10000 << 32 | 1, 32, 0xFFFFFFFF)):
        words *= np.uint64(factor)
        words >>= np.uint64(shift)
        words &= np.uint64(mask)
    return words


def small_integers(words, lengths):
    """The integer of the decimal digits in the last ``lengths[i]`` (at
    most 8) bytes of each word, and whether those bytes are all digits."""
    top, fill = _masks()[:2]
    words = words & np.take(top, lengths)
    words |= np.take(fill, lengths)
    digits = _all_digits(words)
    return _swar(words), digits


def parse(buf, ends, lengths):
    """``float(token)`` of each token that one of the two exact rules of
    the module docstring takes.

    Token i is the ``lengths[i]`` bytes of the uint8 array ``buf`` that
    end before byte ``ends[i]``, and ``buf`` holds at least WINDOW bytes
    before each token. Returns the float64 values and the indexes of the
    tokens no rule takes, whose values are not set.
    """
    top24, before, after = _masks()[2:]
    pow10, high, low = _tables()[2:]
    n = lengths.size
    words = np.ndarray((buf.size - 7,), WORD, buf, 0, (1,))  # word p: buf[p:p + 8]
    # the exponent: "e", a sign and two digits ending the token
    scientific = (np.take(buf, ends - 4) == ord("e")) & (lengths > 4)
    exponent, taken = np.zeros(n, np.int64), np.ones(n, bool)
    rows = np.flatnonzero(scientific)
    if rows.size:
        tail = words[ends[rows] - 8]
        value, ok = small_integers(tail, 2)
        sign = (tail >> 40) & 0xFF
        taken[rows] = ok & ((sign == ord("+")) | (sign == ord("-")))
        value = value.view(np.int64)
        exponent[rows] = np.where(sign == ord("-"), -value, value)
    # the mantissa, after an optional "-": its last 24 bytes as three
    # words, the bytes before it "0"
    first = ends - lengths
    negative = np.take(buf, first) == ord("-")
    end = ends - 4 * scientific
    size = end - first - negative
    del scientific
    taken &= (size >= 1) & (size <= 24)
    np.clip(size, 0, 24, out=size)
    mantissa = np.ndarray((buf.size - 23,), "V24", buf, 0, (1,))[end - 24]
    mantissa = mantissa.view(WORD).reshape(n, 3)
    del end
    mantissa ^= _ZEROS
    mantissa &= np.take(top24, size, axis=0)
    mantissa ^= _ZEROS
    # the point, if any, as its byte plus 1 (0 for none): mostly after the
    # first digit, else found in the token's bytes; a second one stays, and
    # is refused as no digit
    point = np.where(np.take(buf, first + negative + 1) == ord("."), 26 - size, 0).astype(np.uint8)
    rows = np.flatnonzero(point == 0)
    if rows.size:
        row, byte = np.divmod(np.flatnonzero(mantissa[rows].view(np.uint8) == ord(".")), 24)
        point[rows[row]] = byte + 1
    # drop it: the bytes before it, which never include the last, move one
    # byte on, across words in the flat array
    ahead = mantissa & np.take(before, point, axis=0)
    mantissa &= np.take(after, point, axis=0)
    ahead = ahead.ravel()
    flat = mantissa.ravel()
    flat[1:] |= ahead[:-1] >> 56
    ahead <<= 8
    flat |= ahead
    mantissa[:, 0] |= np.where(point > 0, np.uint64(ord("0")), np.uint64(0))  # the byte left
    del ahead, flat
    ok = _all_digits(mantissa)
    taken &= ok[:, 0] & ok[:, 1] & ok[:, 2] & (size > (point > 0))
    del ok, size
    quads = _swar(mantissa)
    taken &= quads[:, 0] < 922  # D < 2**63
    digits = quads[:, 0] * 10**16
    digits += quads[:, 1] * 10**8
    digits += quads[:, 2]
    digits = digits.view(np.int64)
    del mantissa, quads
    exponent -= np.take(_FRACTION_DIGITS, point)
    # Clinger's fast path, and the candidate of the second rule
    values = digits.astype(np.float64)
    values /= np.take(pow10, np.clip(-exponent, 0, 22))
    values *= np.take(pow10, np.clip(exponent, 0, 22))
    fast = (digits <= 2**53) & (np.abs(exponent) <= 22)
    # 16 or 17 digits, written as 17, checked against the candidate's
    short = digits < 10**16
    digits = np.where(short, digits * 10, digits)
    scale = short - exponent
    second = ~fast & (digits >= 10**16) & (digits < 10**17) & (scale >= 0) & (scale <= 22)
    taken &= fast | second
    np.clip(scale, 0, 22, out=scale)
    # zero for the other tokens, whose digits would not fit in int64
    hi, lo = _two_product(np.where(second, values, 0.0), scale, pow10, high, low)
    wrong = np.flatnonzero(taken & second & (_digits(hi, lo) != digits))
    if wrong.size:
        s, d17 = scale[wrong], digits[wrong]
        remainder = (d17 - hi[wrong].astype(np.int64)).astype(np.float64) - lo[wrong]
        values[wrong] += remainder / np.take(pow10, s)
        hi, lo = _two_product(values[wrong], s, pow10, high, low)
        taken[wrong[_digits(hi, lo) != d17]] = False
    values = np.where(negative, -values, values)
    return values, np.flatnonzero(~taken)

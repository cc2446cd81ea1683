"""``repr`` of many floats at once, in numpy: the text a JSON writer puts down for each.

The digits are Ryū's (Adams, "Ryū: fast float-to-string conversion", PLDI
2018): the shortest decimal that reads back as the same double and, of those,
the nearest, ties to even, which is what ``repr`` writes.  Each step of its
scalar loop runs over the whole array on ``np.uint64``; a 64x64 -> 128-bit
product is built from 32-bit halves, and the three bounds vr, vp and vm share
one product.  Every constant is a typed ``np.uint64``: under numpy 1.x
value-based casting, a Python int could turn a uint64 operation into float64.
"""

from __future__ import annotations

import functools
import json
import threading

import numpy as np

_U64 = np.uint64
_ZERO, _ONE, _TWO, _FIVE, _TEN, _HUNDRED = (_U64(i) for i in (0, 1, 2, 5, 10, 100))
_LOW32, _32 = _U64(2**32 - 1), _U64(32)
_POW10 = np.array([10**i for i in range(20)], dtype=_U64)
_DIGIT_PAIRS = np.array([divmod(i, 10) for i in range(100)], dtype=np.uint8) + ord("0")
_PAIRS = _DIGIT_PAIRS.view(np.uint16).ravel()  # "00".."99", to write two digits at once
WIDTH = 30  # a text ends at column 24 (its digits) or 29 (an exponent's)
_FIRST = np.tri(WIDTH + 1, WIDTH, -1, dtype=np.uint8) * np.uint8(255)  # row k: k leading 255s


@functools.cache
def _exponent_tables() -> tuple:
    """Per biased exponent: the shift of the 128-bit product, the decimal exponent of vr,
    the mask whose zero test on mv is vr's exactness test, whether a value needs Ryū's
    power-of-5 tests or its q <= 1 bounds instead, and q; then, for ``_multipliers``, the
    power of 5 and whether it is inverted, and the multiplier's halves with where they are
    filled in."""
    e2 = np.maximum(np.arange(2048), 1) - 1077  # of mv = 4 * m2
    up, ae = e2 >= 0, np.abs(e2)
    q = np.where(up, (ae * 78913) >> 18, (ae * 732923) >> 20) - (ae > np.where(up, 3, 1))
    power = np.where(up, q, ae - q)  # of 5: inverse above, direct below

    def bits(n):  # of 5**n
        return ((n * 1217359) >> 19) + 1

    shift = np.where(up, q - e2 + bits(q) + 60, q - bits(power) + 61)  # j - 64, in 1..63
    mid = ~up & (q > 1) & (q < 63)
    mask = np.where(mid, (1 << np.minimum(q, 62)) - 1, np.where(~up & (q <= 1), 0, -1))
    special = (up & (q <= 21)) | (~up & (q <= 1))
    return (shift.astype(_U64), np.where(up, q, q + e2), mask.astype(np.int64).view(_U64),
            special, q, power, up, np.zeros(2048, _U64), np.zeros(2048, _U64),
            np.zeros(2048, dtype=bool))


def _multipliers(exp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The low and high halves of Ryū's 128-bit multiplier for each biased exponent, made
    with Python integers the first time an exponent is met."""
    *_, power, up, lo, hi, made = _exponent_tables()
    with _making:
        for e in np.flatnonzero((np.bincount(exp, minlength=2048) > 0) & ~made).tolist():
            five = 5 ** int(power[e])
            n = five.bit_length()
            v = (1 << (n + 124)) // five + 1 if up[e] else five << 125 >> n
            lo[e], hi[e], made[e] = v & (2**64 - 1), v >> 64, True
    return np.take(lo, exp), np.take(hi, exp)


_making = threading.Lock()


def _umul128(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The low and high 64 bits of a * b."""
    a0, a1, b0, b1 = a & _LOW32, a >> _32, b & _LOW32, b >> _32
    p00 = a0 * b0
    mid = a1 * b0 + (p00 >> _32)
    mid2 = a0 * b1 + (mid & _LOW32)
    return (mid2 << _32) | (p00 & _LOW32), a1 * b1 + (mid >> _32) + (mid2 >> _32)


def _digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest round-trip digits ``d`` (uint64) and exponent ``e`` of every |x|, finite,
    with |x| = d * 10**e; ``d`` is 0 for a zero."""
    bits = np.abs(x).view(_U64)
    zero = bits == 0
    bits[zero] = 0x3FF0000000000000  # worked as 1.0
    exp = (bits >> _U64(52)).astype(np.intp)
    mant = bits & _U64(2**52 - 1)
    shift, e10, mask, special, q = (np.take(t, exp) for t in _exponent_tables()[:5])
    lo, hi = _multipliers(exp)
    m2 = np.where(exp == 0, mant, mant | _U64(2**52))
    even = (m2 & _ONE) == 0
    mm_shift = (mant != 0) | (exp <= 1)  # the lower bound is half an ulp away, not a quarter
    mv = m2 << _TWO
    vr, vp, vm = _bounds(mv, lo, hi, shift, mm_shift)

    # whether vr, or vm when it is in the interval, is exact (has only zeros removed)
    vr_tz = (mv & mask) == 0
    vm_tz = np.zeros(len(bits), dtype=bool)
    at = np.flatnonzero(special)
    if at.size:
        vr_tz[at], vm_tz[at], down = _special_bounds(exp[at] >= 1077, q[at], mv[at], even[at],
                                                     mm_shift[at])
        vp[at] -= down

    # Remove the most digits that leave vp and vm apart: k at a time for k = 16, 8, 4, 2, 1,
    # each at most once.  vr_tz stays true while every digit removed from vr but the last is a
    # zero, vm_tz while every digit removed from vm is.
    removed = np.zeros(len(bits), dtype=np.intp)
    vm_before = vm.copy()
    for k in (16, 8, 4, 2, 1):
        scale = _U64(10**k)
        p, m = vp // scale, vm // scale
        go = p > m
        np.copyto(vp, p, where=go)
        np.copyto(vm, m, where=go)
        removed += go * k
    scale, lead = np.take(_POW10, removed), np.take(_POW10, np.maximum(removed - 1, 0))
    r = vr // scale
    dropped = vr - r * scale
    last = dropped // lead  # the last digit removed from vr
    vr_tz &= dropped == last * lead
    vm_tz &= vm_before == vm * scale
    vr = r
    at = np.flatnonzero(vm_tz & (vm == vm // _TEN * _TEN) & (vm > _ZERO))
    while at.size:  # vm, exact and accepted, drops every zero it ends in
        r, p, m = vr[at] // _TEN, vp[at] // _TEN, vm[at] // _TEN
        vr_tz[at] &= last[at] == _ZERO
        last[at] = vr[at] - r * _TEN
        vr[at], vp[at], vm[at] = r, p, m
        removed[at] += 1
        at = at[m == m // _TEN * _TEN]
    last[vr_tz & (last == _FIVE) & (vr & _ONE == _ZERO)] = 4  # a tie: round to even
    out = vr + (((vr == vm) & ~(even & vm_tz)) | (last >= _FIVE))
    out[zero] = 0
    return out, np.where(zero, 0, e10 + removed)


def _bounds(mv, lo, hi, shift, mm_shift) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ryū's vr, vp and vm: X, X + 2 mul and X - (1 + mm_shift) mul shifted right by
    64 + shift, where X = mv * mul, in three limbs, and mul = hi * 2**64 + lo."""
    x0, h0 = _umul128(mv, lo)
    x1, x2 = _umul128(mv, hi)
    x1 += h0
    x2 += x1 < h0
    left = _U64(64) - shift

    def shifted(y1, y2):
        return (y1 >> shift) | (y2 << left)

    lo2, hi2 = lo << _ONE, (hi << _ONE) | (lo >> _U64(63))  # 2 mul
    c0 = x0 + lo2 < lo2
    y1 = x1 + hi2
    carry = y1 < hi2
    y1 += c0
    carry |= y1 < c0
    vp = shifted(y1, x2 + carry)
    b0, b1 = np.where(mm_shift, lo2, lo), np.where(mm_shift, hi2, hi)
    c0 = x0 < b0
    y1 = x1 - b1
    borrow = (x1 < b1) | (y1 < c0)
    y1 -= c0
    return shifted(x1, x2), vp, shifted(y1, x2 - borrow)


def _special_bounds(above, q, mv, even, mm_shift) -> tuple:
    """Ryū's exactness tests where a mask does not do: the power-of-5 tests for mv * 2**e2
    with e2 >= 0 and q <= 21, and the bounds of q <= 1 below.  Returns vr_tz, vm_tz and what
    to take from vp."""
    p5 = _FIVE ** q.astype(_U64)
    mod5 = mv % _FIVE == _ZERO
    vr_tz = np.where(above, mod5 & (mv % p5 == _ZERO), True)
    low = mv - _ONE - mm_shift.astype(_U64)
    vm_tz = np.where(above, ~mod5 & even & (low % p5 == _ZERO), even & mm_shift)
    down = np.where(above, ~mod5 & ~even & ((mv + _TWO) % p5 == _ZERO), ~even)
    return vr_tz, vm_tz, down


def texts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``json.dumps`` of every value of the float64 array ``x``, which is ``repr`` for a
    finite one, in ASCII: row i of a (len(x), WIDTH) uint8 array holds the text of x[i] in
    the columns where row i of the bool array returned with it is true.

    With x = 0.d1d2... * 10**decpt, a row is '0's, then the digits d1d2... ending at column
    24; an integer has its zeros and the 0 of ".0" among them.  Every column before the
    point's then takes the next column's character, and the point goes in.  A fixed point
    keeps its '0' before the point when decpt <= 0, and the '0's after it when decpt < 0;
    an exponent, as repr writes it when decpt <= -4 or decpt > 16, follows from column 24.
    """
    finite = np.isfinite(x)
    d, e = _digits(np.where(finite, x, 0.0))
    n = np.maximum(np.searchsorted(_POW10, d, side="right"), 1)  # the digits of d
    decpt = n + e
    sci = (decpt <= -4) | (decpt > 16)
    whole = ~sci & (decpt >= n)  # an integer: its zeros, then ".0"
    d = np.where(whole, d * np.take(_POW10, np.where(whole, decpt - n + 1, 0)), d)
    n = np.where(whole, decpt + 1, n)
    after = np.where(sci, n - 1, n - decpt)  # the digits after the point, with its '0's
    point = np.where(sci & (n == 1), 0, 23 - after)  # 0: no point
    start = np.where(point, point - np.where(sci, 1, np.clip(decpt, 1, None)), 23)
    start -= np.signbit(x)
    chars = np.full((len(x), WIDTH), ord("0"), dtype=np.uint8)
    pairs = chars.view(np.uint16)  # d in columns 6..23, two digits at a time
    high = d // _U64(10**8)  # d < 10**17: one digit, then two parts of 8
    parts = [high - high // _U64(10**8) * _U64(10**8), d - high * _U64(10**8)]
    pairs[:, 3] = np.take(_PAIRS, (high // _U64(10**8)).astype(np.intp))
    for k in range(4):  # from their last pair
        for col, part in zip((7, 11), parts):
            pair = (part - part // _HUNDRED * _HUNDRED).astype(np.intp)
            pairs[:, col - k] = np.take(_PAIRS, pair)
        parts = [part // _HUNDRED for part in parts]
    flat, rows = chars.ravel(), np.arange(0, chars.size, WIDTH)  # one long loop, not one per row
    move = np.take(_FIRST, point, axis=0).ravel()[:-1]
    flat[:-1] ^= (flat[1:] ^ flat[:-1]) & move
    flat[rows + np.where(point, point, WIDTH - 1)] = ord(".")
    sign = np.flatnonzero(np.signbit(x))
    flat[rows[sign] + start[sign]] = ord("-")
    end = np.full(len(x), 24)
    at = np.flatnonzero(sci)
    if at.size:
        power = decpt[at] - 1
        three = np.abs(power) >= 100
        chars[at, 24], chars[at, 25] = ord("e"), np.where(power < 0, ord("-"), ord("+"))
        chars[at, 26] = ord("0") + np.abs(power) // 100
        chars[at, 26 + three], chars[at, 27 + three] = _DIGIT_PAIRS[np.abs(power) % 100].T
        end[at] = 28 + three
    keep = np.take(_FIRST, end, axis=0) != np.take(_FIRST, start, axis=0)
    for i in np.flatnonzero(~finite).tolist():
        word = json.dumps(x[i].item()).encode()  # NaN, Infinity, -Infinity
        chars[i, : len(word)], keep[i] = np.frombuffer(word, dtype=np.uint8), False
        keep[i, : len(word)] = True
    return chars, keep

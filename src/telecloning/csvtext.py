"""CSV rows with the bytes of ``"%d"`` and ``"%.12g"``, a block at a time.

Each field is built by a fixed number of numpy operations per block in 20
bytes padded with NUL, and one ``bytes.translate`` per block deletes the
padding. Python's ``%`` formats only what ``_round12`` cannot decide.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_SEP = _U64(ord(",") << 56)  # the last byte of a field's last word
_APART = _U64(1 << 63)  # marks the prefix of a key laid out apart
_BYTE_MASK = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)  # k bytes

# A value's key is 2 * (e + 12) + (value < 0) for its exponent e in -12..33:
# one exact power of ten scales -11..33 to 12 digits, and -12 stands for every
# smaller exponent, unscaled. -4, -3 and %e form are laid out apart.
_EXP = np.repeat(np.arange(-12, 34), 2)
_NEG = np.tile([0, 1], _EXP.size // 2)
_FIXED = (_EXP >= -4) & (_EXP < 12)  # %f form
_SCALE = np.array([float(10 ** abs(11 - e)) if e > -12 else 1.0 for e in _EXP.tolist()])
_SCALE_UP = np.where(_EXP <= 11, _SCALE, 1.0) * np.where(_NEG, -1.0, 1.0)
_SCALE_DOWN = np.where(_EXP > 11, _SCALE, 1.0)
# sign and "0.", "0.0", ... below 1 in %f form, and the "e+XX" of %e form
_PREFIX = np.array([int.from_bytes(b"\0-"[n:n + 1] + b"0." + b"0" * (-e - 1), "little")
                    if f and e < 0 else n * ord("-")
                    for e, n, f in zip(_EXP.tolist(), _NEG.tolist(), _FIXED)], dtype=np.uint64)
_PREFIX[(_EXP < -2) | ~_FIXED] |= _APART
_SUFFIX = np.array([0 if f else int.from_bytes(b"e%+03d" % e, "little")
                    for e, f in zip(_EXP.tolist(), _FIXED)], dtype=np.uint64)
# The top 12 bits of a double (sign, biased exponent b) give the exponent e0
# of 2**(b - 1023); the value's is e0, or e0 + 1 where its bits reach those
# of 10**(e0 + 1) correctly rounded. _KEY is indexed by 2 * top + reached.
# log10 of a power of two is never within 4e-4 of an integer, so its floor
# is the same on every host. Zeros, subnormals, inf, NaN and exponents the
# tables cannot scale get keys that scale them out of [1e11, 1e12): e = -12
# leaves every value below 1e-11 under 1, and e = 33 divides by 1e22.
_e0 = np.floor(np.log10(np.ldexp(1.0, np.arange(-1022, 1024)))).astype(np.intp)
_steps = (_e0 >= -12) & (_e0 <= 32)
_KEY = np.zeros((2, 2048, 2), dtype=np.intp) + [[[0]], [[1]]]
_KEY[:, 1:2047] += 2 * (np.clip(np.stack((_e0, _e0 + _steps), 1), -12, 33) + 12)
_POWERS = np.array([float(f"1e{k}") for k in range(-11, 34)])
_REACH = np.full((2, 2048), 2**64 - 1, dtype=np.uint64)
_REACH[:, 1:2047][:, _steps] = (_POWERS[_e0[_steps] + 12].view(np.uint64)
                                | np.array([[0], [1 << 63]], dtype=np.uint64))
# The 12 digits are three groups of four in 5-byte slots: _SLOT[j, strip, q]
# holds q's digits with a point after the j-th (none for j = 0); with strip,
# the zeros ending q after the point are NUL, and the point if none follow.
_PAIR = (48 * 0x0101 + np.arange(10)[:, None] + (np.arange(10) << 8)).ravel()
_DIGITS4 = (_PAIR[:, None] + (_PAIR << 16)).ravel().astype(np.uint64)
_KEPT = np.full(_DIGITS4.size, 4)  # the digits of q before its ending zeros
for _p in 10, 100, 1000, 10000:
    _KEPT[::_p] -= 1
_SLOT = np.empty((5, 2, _DIGITS4.size), dtype=np.uint64)  # index 10000 * (2 * j + strip) + q
for _j in range(5):
    _lead = _BYTE_MASK[_j or 8]  # the digits before the point
    _SLOT[_j, 0] = (_DIGITS4 & _lead | (_DIGITS4 & ~_lead) << _U64(8)
                    | _U64(ord(".") << 8 * _j if _j else 0))
    _SLOT[_j, 1] = _SLOT[_j, 0] & _BYTE_MASK[np.where(_KEPT > _j, _KEPT + (_j > 0), _j)]
# The point follows digit e + 1 in %f form (none below 1), 1 in %e form; _at
# is its place in group g. The last group strips; the others (_MODE_STRIP)
# where every later group is 0, if they hold the point or follow it.
_at = np.where(_FIXED, np.maximum(_EXP + 1, 0), 1) - 4 * np.arange(3)[:, None]
_inside = (_at >= 1) & (_at <= 4)
_MODE = _DIGITS4.size * (2 * np.where(_inside, _at, 0) + [[0], [0], [1]])
_MODE_STRIP = _MODE + _DIGITS4.size * (_inside | (_at <= 0))
_SHIFT = np.where(_FIXED, 48, 8).astype(np.uint64)  # apart: digits after prefix or sign


def _round12(values: np.ndarray) -> tuple:
    """``(key, digits, slow)``: where ``slow`` is false, ``digits`` is
    ``round(|v| * 10**(11 - e))`` in [1e11, 1e12) for the exponent e of
    ``key``, as ``%.12g`` rounds it. The scaling multiplies or divides by one
    exact power of ten: one correctly rounded operation. Rounding is monotone
    and half-integers below 2**52 are doubles, so a scaled value not exactly
    at a half lies on the same side of every half as the exact product and
    rounds to the same integer. Python gets the scaled values exactly at a
    half, the values outside the tables and those that round up to 1e12."""
    bits = values.view(np.uint64)
    top = bits >> _U64(52)
    key = _KEY.take(top << _U64(1) | (bits >= _REACH.take(top)))
    half = values * _SCALE_UP.take(key)
    half /= _SCALE_DOWN.take(key)
    half += 0.5
    digits = np.floor(half)
    tie = digits == half
    with np.errstate(invalid="ignore"):  # NaN and inf, which are slow
        digits = digits.astype(np.int64)
    return key, digits, ((digits - 10**11).view(np.uint64) >= _U64(9 * 10**11)) | tie


def _float_words(values: np.ndarray) -> np.ndarray:
    """``"%.12g," % v`` of each float64 value in five 32-bit words: the sign
    and prefix in bytes 0-3, the three slots in 4-18, the comma in 19. Apart,
    the slots close up to 13 bytes after a 6-byte prefix, or between the
    sign and the exponent."""
    key, digits, slow = _round12(values)
    q0 = digits // 100_000_000
    digits -= q0 * 100_000_000
    q1 = digits // 10_000
    q2 = digits - q1 * 10_000
    slot = [_SLOT.take(q + m, mode="clip") for q, m in zip((q0, q1, q2), _MODE.take(key, 1))]
    rare = np.flatnonzero(q2 == 0)
    for g in (1, 0):  # strip the group too where every later group is 0
        slot[g][rare] = _SLOT.take((q0, q1)[g][rare] + _MODE_STRIP[g, key[rare]], mode="clip")
        rare = rare[q1[rare] == 0]
    words = np.empty((values.size, 5), dtype=np.uint32)
    low, high = words[:, 1:3].view(np.uint64)[:, 0], words[:, 3:].view(np.uint64)[:, 0]
    words[:, 0] = prefix = _PREFIX.take(key)
    np.bitwise_or(slot[1] << _U64(40), slot[0], out=low)
    slot[1] >>= _U64(24)
    slot[2] <<= _U64(16)
    slot[2] |= slot[1]
    np.bitwise_or(slot[2], _SEP, out=high)
    odd = np.flatnonzero(slow | (prefix >= _APART))
    slow = slow[odd]
    apart, odd = odd[~slow], odd[slow]
    if apart.size:
        k, lo, hi = key[apart], low[apart], high[apart]
        hi = hi & _U64(0xFF) | (hi >> _U64(16) & _U64(0xFFFFFFFF)) << _U64(8)  # closed up
        shift, suffix = _SHIFT[k], _SUFFIX[k]
        field = np.stack((prefix[apart] ^ _APART | lo << shift,
                          lo >> 64 - shift | hi << shift | suffix << _U64(48),
                          hi >> 64 - shift | suffix >> _U64(16) | _SEP >> _U64(32)), 1)
        words[apart] = field.view(np.uint32)[:, :5]
    text = b"".join(("%.12g" % v).encode().ljust(19, b"\0") + b"," for v in values[odd].tolist())
    words[odd] = np.frombuffer(text, dtype=np.uint32).reshape(-1, 5)
    return words


def _int_words(index: np.ndarray) -> np.ndarray:
    """``"%d," % j`` of each int j in [0, 2**63), right-aligned in as few
    words as the largest j needs, its leading zeros NUL."""
    width = len(str(int(index.max(initial=0)))) // 8 + 1
    groups, rest = [], index.astype(np.int64, copy=False)
    for _ in range(2 * width):  # 4-digit groups from the last
        rest, group = rest // 10_000, rest % 10_000
        groups.append(_DIGITS4.take(group))
    words = np.empty((index.size, width), dtype=np.uint64)
    leading = _BYTE_MASK[8]  # where every earlier word is all 0s
    for k in reversed(range(width)):  # word k from the end; the last ends in the comma
        low = groups[2 * k - 1] << _U64(56) if k else _SEP
        text = groups[2 * k + 1] >> _U64(8) | groups[2 * k] << _U64(24) | low
        # digits 0 become NUL up to the first other one, the last digit at
        # the latest: the whole bytes below the lowest set bit of x
        x = text ^ _U64(0x3030303030303030 if k else 0x2C30303030303030) | _U64(not k) << 48
        mask = (x & (0 - x)) - _U64(1) & _U64(0xF0F0F0F0F0F0F0F0) & leading
        words[:, -1 - k] = text & ~(mask | mask >> _U64(4))
        leading = leading * (x == 0)
    return words


def csv_rows(values: np.ndarray, index: np.ndarray | None = None) -> bytes:
    """The CSV rows ``"%d" % index[r]`` (if given) and ``"%.12g" % v`` for
    each ``v`` of ``values[r]``, comma-separated, one per line."""
    rows, width = values.shape
    words = _float_words(np.ascontiguousarray(values, dtype=np.float64).ravel())
    words = words.reshape(rows, 5 * width)
    words[:, -1] ^= np.uint32((ord(",") ^ ord("\n")) << 24)
    if index is not None:
        words = np.hstack((_int_words(index).view(np.uint32), words))
    return words.tobytes().translate(None, b"\0")

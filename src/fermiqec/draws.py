"""The doubles each exchange shot draws: numpy's stream, as array arithmetic.

Shot ``shot`` at point ``point`` of a run seeded ``seed`` draws the doubles
of ``numpy.random.default_rng(SeedSequence([seed, point, shot]))``, fixed
by those three integers alone, so no result depends on how shots are spread
over workers.  numpy keeps that stream fixed (NEP 19), and
:func:`shot_draws` computes it for a block of shots at once with uint64
array arithmetic, holding no generator object:

* SeedSequence's ``mix_entropy`` and ``generate_state(4, uint64)`` give each
  shot PCG64's seed words, as uint32 arithmetic over the block;
* PCG64 seeds from them in two LCG steps and steps once before each draw,
  so draw ``k`` reads the state ``M^(k+2) x + (1 + M + ... + M^(k+2)) inc``
  (mod 2**128) of the seed ``x`` and increment ``inc``: the LCG jump-ahead
  (F. Brown, "Random number generation with arbitrary strides", 1994), with
  one pair of constants per column;
* a draw is that state's XSL-RR output (O'Neill, PCG, 2014), and its double
  ``(out >> 11) * 2**-53``, as ``Generator.random()`` makes it.

Every scalar that meets an array is a numpy scalar of the array's own
dtype, so numpy 1.x's value-based casting and NEP 50 give the same bits.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

__all__ = ["shot_draws"]

#: Shots seeded at once: the arrays held do not grow with a range's length.
#: 256 is one benchmark call.
_SEED_BLOCK = 256

# numpy's SeedSequence (pool of 4 words, hash and mix constants) and
# PCG64's 128-bit multiplier, fixed by numpy's stream-compatibility policy.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1

# scalars of the dtype of the arrays they meet (see above)
_U16 = np.uint32(16)
_U1, _U11, _U32, _U58, _U63, _U64 = (np.uint64(n) for n in (1, 11, 32, 58, 63, 64))
_LOW32 = np.uint64(_MASK32)
_TO_DOUBLE = np.float64(2.0**-53)


def _words(n: int) -> list[int]:
    """``n`` as SeedSequence reads an int: 32-bit words, least significant
    first, at least one."""
    out = [n & _MASK32]
    while n := n >> 32:
        out.append(n & _MASK32)
    return out


def _hasher(const: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's hash of one uint32 word per shot, with the running
    hash constant starting at ``const``; the constant does not depend on
    the data, so one hasher serves every shot of a block."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> _U16

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two pool words."""
    out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return out ^ out >> _U16


def _seed_words(seed: int, point: int, start: int, stop: int) -> np.ndarray:
    """``SeedSequence([seed, point, shot]).generate_state(4, uint64)`` of
    each shot ``start..stop-1``, PCG64's seed and sequence words, high half
    first: four rows, one column per shot.  The shots must share every word
    but the lowest, so the range lies in one 2**32-aligned window."""
    n = stop - start
    low = np.arange(n, dtype=np.uint32) + np.uint32(start & _MASK32)
    entropy = [np.full(n, w, np.uint32) for w in (*_words(seed), *_words(point))]
    entropy += [low, *(np.full(n, w, np.uint32) for w in _words(start)[1:])]
    zero = np.zeros(n, np.uint32)
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    halves = np.array([hashmix(pool[i % _POOL_SIZE]) for i in range(8)], np.uint64)
    return halves[0::2] | halves[1::2] << _U32


def _columns(width: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """The jump-ahead constants of draws ``0..width-1``: ``M^(k+2)``, then
    ``1 + M + ... + M^(k+2)`` (mod 2**128), each as uint64 rows of its high
    half, its low half, and the upper and lower 32 bits of its low half."""
    power, total, powers, totals = _PCG64_MULT, 1 + _PCG64_MULT, [], []
    for _ in range(width):
        power = power * _PCG64_MULT & _MASK128
        total = total + power & _MASK128
        powers.append(power)
        totals.append(total)
    out = []
    for values in (powers, totals):
        lo = np.array([v & _MASK64 for v in values], np.uint64)
        hi = np.array([v >> 64 for v in values], np.uint64)
        out.append((hi, lo, lo >> _U32, lo & _LOW32))
    return tuple(out)


def _add_mulhi(
    hi: np.ndarray, a: tuple[np.ndarray, ...], x: np.ndarray, t: np.ndarray, u: np.ndarray
) -> None:
    """``hi +=`` the high 64 bits of the product of ``a``'s low halves, one
    per column (as :func:`_columns` gives them), and ``x``, one per shot as a
    ``(shots, 1)`` array, summed over their 32-bit limbs where no partial sum
    can overflow; ``t`` and ``u`` are scratch of ``hi``'s shape."""
    _, _, a1, a0 = a
    x1, x0 = x >> _U32, x & _LOW32
    np.multiply(a0, x0, out=t)
    t >>= _U32
    np.multiply(a1, x0, out=u)
    u += t  # below (2**32 - 1) * 2**32
    np.multiply(a1, x1, out=t)
    hi += t
    np.right_shift(u, _U32, out=t)
    hi += t
    u &= _LOW32
    np.multiply(a0, x1, out=t)
    u += t  # below 2**64 - 2**32
    u >>= _U32
    hi += u


def _states(
    powers: tuple[np.ndarray, ...], totals: tuple[np.ndarray, ...],
    x_hi: np.ndarray, x_lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """PCG64's state at each draw of each shot, ``powers * x + totals * inc``
    (mod 2**128), as its high and low halves of shape ``(shots, width)``:
    the column constants as :func:`_columns` gives them, and each shot's
    seed ``x`` and increment ``inc`` as ``(shots, 1)`` halves.

    The low half is the wrapping sum of the low halves' wrapping products.
    The high half adds the carry of that sum, the four products of a high
    and a low half, and the high 64 bits of both low halves' products."""
    a_hi, a_lo, _, _ = powers
    c_hi, c_lo, _, _ = totals
    lo = a_lo * x_lo
    t = c_lo * inc_lo
    lo += t
    hi = a_lo * x_hi
    hi += lo < t  # the carry of the low sum
    for a, x in ((a_hi, x_lo), (c_lo, inc_hi), (c_hi, inc_lo)):
        np.multiply(a, x, out=t)
        hi += t
    u = np.empty_like(t)
    _add_mulhi(hi, powers, x_lo, t, u)
    _add_mulhi(hi, totals, inc_lo, t, u)
    return hi, lo


def _doubles(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """The double ``Generator.random()`` makes of each PCG64 state: its
    XSL-RR output, the xor of its halves rotated right by its top 6 bits,
    then ``(out >> 11) * 2**-53``.  Overwrites both halves."""
    lo ^= hi
    hi >>= _U58
    t = np.right_shift(lo, hi)
    np.subtract(_U64, hi, out=hi)
    hi &= _U63
    lo <<= hi
    lo |= t
    lo >>= _U11
    out = lo.astype(np.float64)
    out *= _TO_DOUBLE
    return out


def shot_draws(
    seed: int, point: int, start: int, stop: int, width: int
) -> Iterator[np.ndarray]:
    """The doubles of shots ``start..stop-1`` at ``point``, in float64
    blocks of shape ``(shots, width)`` of at most ``_SEED_BLOCK`` shots, in
    order: row ``shot`` holds the first ``width`` doubles of
    ``default_rng(SeedSequence([seed, point, shot]))``.  Seeds and draws
    each block at once, and holds no block once it has handed it out."""
    powers, totals = _columns(width)
    while start < stop:
        end = min(start + _SEED_BLOCK, stop, (start >> 32) + 1 << 32)
        x_hi, x_lo, seq_hi, seq_lo = _seed_words(seed, point, start, end)[:, :, None]
        inc_hi, inc_lo = seq_hi << _U1 | seq_lo >> _U63, seq_lo << _U1 | _U1
        # no local names the block, so a suspended frame does not hold it
        yield _doubles(*_states(powers, totals, x_hi, x_lo, inc_hi, inc_lo))
        start = end

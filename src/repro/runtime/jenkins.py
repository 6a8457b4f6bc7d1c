"""Bob Jenkins' one-at-a-time hash.

The paper (section 3.1) hashes keys wider than 32 bits down to a 32-bit
key with "a hash function [11]" — reference [11] is Jenkins' Dr. Dobb's
article.  We implement the classic one-at-a-time variant over the bytes
of the key words.

:func:`hash_key_words` hashes one key and serves table probes.
:func:`hash_key_batch` hashes many keys at once for compile-time
replays (the collision-adjusted reuse rate, figures 7/8): each key is a
64-bit lane of one Python int, and every one-at-a-time step runs once
per byte position over all lanes.  The lanes cannot interfere: every
lane stays below 2**48 before it is masked back to 32 bits, so no carry
reaches its neighbour, and every right shift is masked per lane, so no
neighbour's low bits leak in.
"""

from __future__ import annotations

import struct
from typing import Iterable, Sequence

_U32 = 0xFFFFFFFF
_LANE_ONE = (1).to_bytes(8, "little")


def jenkins_one_at_a_time(data: Iterable[int]) -> int:
    """Hash a byte iterable to an unsigned 32-bit value."""
    h = 0
    for byte in data:
        h = (h + (byte & 0xFF)) & _U32
        h = (h + ((h << 10) & _U32)) & _U32
        h ^= h >> 6
    h = (h + ((h << 3) & _U32)) & _U32
    h ^= h >> 11
    h = (h + ((h << 15) & _U32)) & _U32
    return h


def _word_bytes(words: tuple) -> Iterable[int]:
    for word in words:
        w = word & _U32
        yield w & 0xFF
        yield (w >> 8) & 0xFF
        yield (w >> 16) & 0xFF
        yield (w >> 24) & 0xFF


def hash_key_words(words: tuple) -> int:
    """Hash a tuple of 32-bit key words to an unsigned 32-bit value.

    A single-word key is used directly (the paper's simple case: "the
    hash key is simply the value of the input"); wider keys go through
    Jenkins' function.
    """
    if len(words) == 1:
        return words[0] & _U32
    return jenkins_one_at_a_time(_word_bytes(words))


def hash_key_batch(keys: Sequence[tuple]) -> list[int]:
    """``[hash_key_words(k) for k in keys]``, computed one width at a
    time with all keys of that width hashed side by side."""
    out = [0] * len(keys)
    by_width: dict[int, list[int]] = {}
    for index, key in enumerate(keys):
        by_width.setdefault(len(key), []).append(index)
    for width, indices in by_width.items():
        if width == 1:
            for index in indices:
                out[index] = keys[index][0] & _U32
            continue
        n = len(indices)
        fmt = f"<{n}Q"
        ones = int.from_bytes(_LANE_ONE * n, "little")
        L = ones * _U32  # 0xFFFFFFFF in every lane
        B = ones * 0xFF  # 0xFF in every lane
        # h + (h << 10), h + (h << 3) and h + (h << 15) mod 2**32 are the
        # products by 1025, 9 and 32769 below
        h = 0
        # one column of word values per word position, a lane per key
        for column in zip(*[keys[i] for i in indices]):
            w = int.from_bytes(
                struct.pack(fmt, *[word & _U32 for word in column]), "little"
            )
            for shift in (0, 8, 16, 24):
                h = (h + ((w >> shift) & B)) * 1025 & L
                h ^= (h >> 6) & L
        h = h * 9 & L
        h ^= (h >> 11) & L
        h = h * 32769 & L
        hashed = struct.unpack(fmt, h.to_bytes(8 * n, "little"))
        for index, value in zip(indices, hashed):
            out[index] = value
    return out

"""numpy's ``SeedSequence`` + ``PCG64`` seeding, vectorised across lanes.

:class:`repro.simcore.rng.RngStreams` names each stream and seeds it as
``Generator(PCG64(SeedSequence(entropy=root_seed, spawn_key=words)))``,
``words`` being the first 16 bytes of the name's SHA-256.  Building that
object costs ~45 µs; this module derives the same PCG64 state for many
streams at once, one numpy pass over all of them:

* the ``SeedSequence`` entropy-pool mix (Doty-Humphrey's hashes).  The
  hash-constant schedule is data-independent, so every lane mixes in
  lockstep.  Each assembled word is a Python ``int`` (the same for every
  lane) or a per-lane ``uint32`` array: the fleet's vector sampler
  varies the root seed per lane and shares one name, a bulk first draw
  (:meth:`RngStreams.first_uniforms`) shares the root seed and varies
  the name;
* PCG64 seeding (``state = (inc + seed) * MULT + inc``) in 32-bit limbs
  held in ``uint64``, so the 128-bit arithmetic never overflows;
* one LCG step, the XSL-RR output function and ``next_double``.

Depends on numpy and the standard library only.  Its consumers check it
bit for bit against numpy: ``tests/test_simcore_rng.py`` (first draws)
and ``tests/test_fleet_columns.py`` (the fleet sampler).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "D53",
    "M32",
    "M64",
    "M128",
    "MULT",
    "entropy_words",
    "first_doubles",
    "mix_words",
    "next_raw64",
    "seed_limbs",
    "spawn_key_array",
    "spawn_key_words",
    "to_doubles",
]

M32 = 0xFFFFFFFF
M64 = 0xFFFFFFFFFFFFFFFF
M128 = (1 << 128) - 1

#: The PCG64 LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
MULT = (2549297995355413924 << 64) | 4865540595714422341
_MULT_LIMBS = tuple((MULT >> (32 * k)) & M32 for k in range(4))

# SeedSequence hash constants (Doty-Humphrey's entropy pool).
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
POOL = 4

#: ``2**-53``, the ``next_double`` scale.
D53 = 1.0 / 9007199254740992.0

#: A ``SeedSequence`` word: one value for every lane, or one per lane.
Word = Union[int, np.ndarray]


def _hash_chain(init: int, mult: int, calls: int) -> List[int]:
    """The hash-constant schedule: value ``j`` is XORed at call ``j`` and
    value ``j+1`` is the multiplier of call ``j`` (data-independent)."""
    consts = [init]
    h = init
    for _ in range(calls):
        h = (h * mult) & M32
        consts.append(h)
    return consts


def _mix_calls(n_words: int) -> int:
    """Pool hashes for ``n_words`` assembled words: one per pool slot,
    the pairwise pool mix, then every remaining word into every slot."""
    return POOL + POOL * (POOL - 1) + (n_words - POOL) * POOL


# four entropy words (the pool) + four spawn-key words: 32 calls
_CHAIN_A = _hash_chain(_INIT_A, _MULT_A, _mix_calls(2 * POOL))
_CHAIN_B = _hash_chain(_INIT_B, _MULT_B, 8)


def spawn_key_words(name: str) -> Tuple[int, ...]:
    """The four uint32 spawn-key words ``RngStreams.stream(name)`` uses."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i:i + 4], "little")
                 for i in range(0, 16, 4))


def spawn_key_array(names: Iterable[str]) -> np.ndarray:
    """Spawn-key words of many names as a ``(4, n)`` uint32 array
    (row ``k`` holds word ``k`` of every name)."""
    digests = b"".join(hashlib.sha256(name.encode("utf-8")).digest()[:16]
                       for name in names)
    words = np.frombuffer(digests, dtype="<u4").reshape(-1, 4)
    return np.ascontiguousarray(words.T, dtype=np.uint32)


def entropy_words(value: int) -> List[int]:
    """``SeedSequence``'s uint32 words for a non-negative integer entropy,
    zero-padded to the pool size as it pads when a spawn key follows."""
    if value < 0:
        raise ValueError(f"entropy must be non-negative, got {value}")
    words = []
    while True:
        words.append(value & M32)
        value >>= 32
        if not value:
            break
    return words + [0] * (POOL - len(words))


# -- the entropy-pool mix over scalar-or-lane words -----------------------


def _hmix(value: Word, j: int, chain: Sequence[int]) -> Word:
    if isinstance(value, np.ndarray):
        value = (value ^ np.uint32(chain[j])) * np.uint32(chain[j + 1])
        return value ^ (value >> np.uint32(_XSHIFT))
    value = ((value ^ chain[j]) * chain[j + 1]) & M32
    return value ^ (value >> _XSHIFT)


def _times(value: Word, const: int) -> Word:
    if isinstance(value, np.ndarray):
        return value * np.uint32(const)
    return np.uint32((value * const) & M32)


def _mix(dst: Word, hashed: Word) -> Word:
    if isinstance(dst, np.ndarray) or isinstance(hashed, np.ndarray):
        res = _times(dst, _MIX_L) - _times(hashed, _MIX_R)
        return res ^ (res >> np.uint32(_XSHIFT))
    res = (dst * _MIX_L - hashed * _MIX_R) & M32
    return res ^ (res >> _XSHIFT)


def mix_words(assembled: Sequence[Word]) -> List[np.ndarray]:
    """``SeedSequence(...).generate_state(4, np.uint64)`` of the assembled
    words, as four uint64 arrays (one element per lane): the entropy
    words, zero-padded to the pool size, then the spawn-key words.

    Each word is an ``int`` or a per-lane uint32 array.  Pool words
    mixed from ints alone stay ints, computed once rather than per lane.
    """
    n = len(assembled)
    chain = (_CHAIN_A if n == 2 * POOL
             else _hash_chain(_INIT_A, _MULT_A, _mix_calls(n)))
    pool = [_hmix(assembled[i], i, chain) for i in range(POOL)]
    j = POOL
    for i_src in range(POOL):
        for i_dst in range(POOL):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], _hmix(pool[i_src], j, chain))
                j += 1
    # Every remaining word is hashed into the four slots in turn, and no
    # slot reads another: mix all four at once, as a (4, lanes) array.
    u32 = np.uint32
    slots = np.stack(np.broadcast_arrays(
        *[np.asarray(v, dtype=u32).reshape(-1) for v in pool]))
    for word in assembled[POOL:]:
        xor = np.array(chain[j:j + POOL], dtype=u32)[:, None]
        mul = np.array(chain[j + 1:j + POOL + 1], dtype=u32)[:, None]
        hashed = (word ^ xor) * mul
        hashed ^= hashed >> u32(_XSHIFT)
        res = slots * u32(_MIX_L) - hashed * u32(_MIX_R)
        slots = res ^ (res >> u32(_XSHIFT))
        j += POOL
    out = (slots[_OUT_SLOTS] ^ _OUT_XOR) * _OUT_MUL
    out = (out ^ (out >> u32(_XSHIFT))).astype(np.uint64)
    words = out[0::2] | (out[1::2] << np.uint64(32))
    return list(words)


#: ``generate_state(4, uint64)``: eight uint32 outputs from the pool slots.
_OUT_SLOTS = [i % POOL for i in range(8)]
_OUT_XOR = np.array(_CHAIN_B[:8], dtype=np.uint32)[:, None]
_OUT_MUL = np.array(_CHAIN_B[1:9], dtype=np.uint32)[:, None]


# -- PCG64 in 32-bit limbs -----------------------------------------------


def seed_limbs(words: Sequence[np.ndarray]
               ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """PCG64 ``(state, inc)`` limbs (least significant first) from the
    four uint64 ``generate_state`` words: ``seed = w0:w1``,
    ``inc = (w2:w3 << 1) | 1``, ``state = (inc + seed) * MULT + inc``."""
    u64 = np.uint64
    w = [np.asarray(word, dtype=u64) for word in words]
    inc_lo = (w[3] << u64(1)) | u64(1)
    inc_hi = (w[2] << u64(1)) | (w[3] >> u64(63))
    m32 = u64(M32)
    inc = [inc_lo & m32, inc_lo >> u64(32), inc_hi & m32, inc_hi >> u64(32)]
    seed = [w[1] & m32, w[1] >> u64(32), w[0] & m32, w[0] >> u64(32)]
    state = _add128(inc, seed)
    state = _mul128_const(state, _MULT_LIMBS)
    return _add128(state, inc), inc


def next_raw64(state: List[np.ndarray], inc: List[np.ndarray]
               ) -> Tuple[List[np.ndarray], np.ndarray]:
    """One LCG step of every lane: the new state and its XSL-RR outputs."""
    state = _add128(_mul128_const(state, _MULT_LIMBS), inc)
    u64 = np.uint64
    lo = state[0] | (state[1] << u64(32))
    hi = state[2] | (state[3] << u64(32))
    value = hi ^ lo
    rot = state[3] >> u64(26)
    return state, (value >> rot) | (value << ((u64(64) - rot) & u64(63)))


def to_doubles(raw: np.ndarray) -> np.ndarray:
    """numpy's ``next_double``: the top 53 bits scaled into ``[0, 1)``."""
    return (raw >> np.uint64(11)).astype(np.float64) * D53


def first_doubles(entropy: Sequence[int], spawn: np.ndarray) -> np.ndarray:
    """``Generator(PCG64(SeedSequence(e, spawn_key=s))).random()`` for one
    entropy (its :func:`entropy_words`) and many spawn keys (a ``(4, n)``
    uint32 array, as :func:`spawn_key_array` returns)."""
    words = mix_words(list(entropy) + list(spawn))
    state, inc = seed_limbs(words)
    return to_doubles(next_raw64(state, inc)[1])


# -- 128-bit limb arithmetic (base 2**32, limbs held in uint64) ----------


def _add128(a: List[np.ndarray], b: List[np.ndarray]) -> List[np.ndarray]:
    u64 = np.uint64
    m32 = u64(M32)
    out = []
    carry = u64(0)
    for k in range(4):
        col = a[k] + b[k] + carry
        out.append(col & m32)
        carry = col >> u64(32)
    return out


def _mul128_const(a: List[np.ndarray],
                  m: Tuple[int, int, int, int]) -> List[np.ndarray]:
    """``a * m mod 2**128`` with ``m`` a 4-limb constant.

    Column sums collect the 32-bit halves of every partial product; at
    most 7 sub-2**32 terms plus a sub-2**36 carry per column, far inside
    uint64.
    """
    u64 = np.uint64
    m32 = u64(M32)
    mk = [u64(limb) for limb in m]
    p = {}
    for i in range(4):
        ai = a[i]
        for j in range(4 - i):
            p[(i, j)] = ai * mk[j]
    cols = [None] * 4
    for k in range(4):
        acc = None
        for i in range(k + 1):
            term = p[(i, k - i)] & m32
            acc = term if acc is None else acc + term
        if k > 0:
            for i in range(k):
                acc = acc + (p[(i, k - 1 - i)] >> u64(32))
        cols[k] = acc
    out = []
    carry = u64(0)
    for k in range(4):
        col = cols[k] + carry
        out.append(col & m32)
        carry = col >> u64(32)
    return out

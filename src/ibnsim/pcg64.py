"""numpy's ``Generator(PCG64(seed)).random()`` stream, in pure Python.

Three pieces reproduce it bit for bit:

- numpy's ``SeedSequence`` pool mixing turns the seed into four 64-bit
  words (``generate_state(4, uint64)``, low 32-bit word first);
- the 128-bit PCG64 LCG with the XSL-RR output (O'Neill, "PCG: A Family
  of Simple Fast Space-Efficient Statistically Good Algorithms for Random
  Number Generation", HMC-CS-2014-0905), seeded from words (s0, s1, i0, i1)
  as ``state = ((inc + initstate) * MULT + inc) mod 2**128`` with
  ``initstate = s0:s1`` and ``inc = 2 * (i0:i1) + 1``;
- a double in [0, 1) from the top 53 output bits, ``(x >> 11) * 2**-53``.
"""

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF
MASK128 = (1 << 128) - 1
MULT = 0x2360ED051FC65DA44385DF649FCCF645

_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def seed_words(seed: int) -> list:
    """``SeedSequence(seed).generate_state(4, uint64)`` as ints."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    entropy = [seed & MASK32]
    while seed > MASK32:
        seed >>= 32
        entropy.append(seed & MASK32)

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & MASK32
        value = value * hash_const & MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_L * x - _MIX_R * y) & MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    halves = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & MASK32
        value = value * hash_const & MASK32
        halves.append(value ^ value >> 16)
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]


def random_doubles(seed: int, count: int) -> list:
    """The first ``count`` values of ``Generator(PCG64(seed)).random()``."""
    s0, s1, i0, i1 = seed_words(seed)
    inc = ((i0 << 64 | i1) << 1 | 1) & MASK128
    state = ((inc + (s0 << 64 | s1)) * MULT + inc) & MASK128
    # XSL-RR rotates x = hi ^ lo right by the top 6 state bits; the double
    # keeps the top 53 bits of that rotation, which are the bits of
    # x * (2**64 + 1) (x twice, side by side) from rot + 11 up.
    mult, mask128, mask64 = MULT, MASK128, MASK64
    twice, mask53, scale = (1 << 64) + 1, (1 << 53) - 1, 2.0 ** -53
    out = []
    append = out.append
    for _ in range(count):
        state = (state * mult + inc) & mask128
        append((((state >> 64 ^ state) & mask64) * twice >> (state >> 122) + 11 & mask53) * scale)
    return out

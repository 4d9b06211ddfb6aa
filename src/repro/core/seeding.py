"""Stable seed derivation for scheduler policies.

The engine derives one scheduler-policy seed per campaign from
``(base_seed, campaign_index)``.  Python's builtin
``hash`` is unsuitable for this: its value for ints is implementation
defined (it differs between CPython builds and alternative interpreters),
so runs would not be reproducible across environments.  ``mix_seeds``
instead packs the parts as little-endian 64-bit words and CRC-32s them —
explicit, portable, and pinned by a golden-value test.
"""

import struct
import zlib

_MASK64 = (1 << 64) - 1


def mix_seeds(*parts):
    """Deterministically mix integer parts into one 32-bit seed.

    Stable across Python builds and platforms (unlike ``hash``): each part
    is reduced mod 2**64, packed little-endian, and CRC-32'd.
    """
    if not parts:
        return 0
    packed = struct.pack("<%dQ" % len(parts),
                         *(part & _MASK64 for part in parts))
    return zlib.crc32(packed) & 0xFFFFFFFF


def policy_seed(base_seed, campaign_index):
    """The scheduler-policy seed for one campaign of one session."""
    return mix_seeds(base_seed, campaign_index)

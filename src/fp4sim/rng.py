"""Counter-based randomness: every draw is addressed by (stream key, position).

A stream is an immutable 128-bit Philox key derived from a tuple of identity
parts (seed, layer index, step, role tag, ...).  The uniform at position i is
a pure function of (key, i): it does not depend on how many other positions
were generated, or in what order.  That property is what makes stochastic
rounding reproducible under any evaluation schedule.

Each thread draws from one Philox generator of its own, made once.  Every
call resets its whole state (key, counter, output buffer and the spare
32-bit half), so a draw depends only on the call's arguments: nothing an
earlier call drew is carried over, and no thread sees another's state.

The element-wise passes walk a tensor with _row_chunks, here because every
module can import rng without a cycle.  Stochastic rounding draws the
stretch of the stream that each chunk covers (uniforms_at of a range), so
it builds no position array and no full-size uniform array.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np

# Philox-4x64 emits four 64-bit words per counter block; Generator.random
# consumes one word per double, so advance(1) skips four draw positions.
_DRAWS_PER_BLOCK = 4

_thread = threading.local()
_ZEROS = np.zeros(_DRAWS_PER_BLOCK, dtype=np.uint64)
_ZEROS.setflags(write=False)

# Elements per chunk of the chunked element-wise loops (the codecs, the
# block amax and stats passes, the tiled Hadamard transform): a chunk and
# its temporaries stay in a core's L2 cache.
_CHUNK = 1 << 15


def _row_chunks(a: np.ndarray) -> list[slice]:
    """Slices of a's first axis, each about _CHUNK elements (at least one
    index), so a chunk and its temporaries stay in a core's L2 cache."""
    if a.size <= _CHUNK:
        return [slice(None)]
    step = max(1, _CHUNK // max(1, a[:1].size))
    return [slice(i, i + step) for i in range(0, a.shape[0], step)]


def stream_key(*parts) -> np.ndarray:
    """Derive a 128-bit Philox key (2 x uint64) from identity parts.

    Parts are formatted with repr and joined with an unambiguous separator,
    so ("a", 1) and ("a1",) key different streams.
    """
    payload = "\x1f".join(repr(p) for p in parts).encode()
    digest = hashlib.blake2b(payload, digest_size=16).digest()
    return np.frombuffer(digest, dtype=np.uint64).copy()


def _generator(key: np.ndarray, block: int = 0) -> np.random.Generator:
    """This thread's generator, in the state of a fresh Philox(key=key)
    advanced by block counter blocks.  Setting the state is cheaper than
    making a Philox, which also draws OS entropy for a seed it never uses."""
    gen = getattr(_thread, "generator", None)
    if gen is None:
        gen = _thread.generator = np.random.Generator(np.random.Philox(key=key))
    # the setter copies the arrays' values, so the zeros can be shared
    counter = _ZEROS if block == 0 else np.array([block, 0, 0, 0], dtype=np.uint64)
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": key},
        "buffer": _ZEROS,
        "buffer_pos": _DRAWS_PER_BLOCK,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def uniforms(key: np.ndarray, count: int, start: int = 0) -> np.ndarray:
    """Uniforms in [0, 1) at stream positions start .. start+count-1."""
    if count < 0 or start < 0:
        raise ValueError("count and start must be non-negative")
    block, offset = divmod(int(start), _DRAWS_PER_BLOCK)
    return _generator(key, block).random(offset + int(count))[offset:]


def uniforms_at(key: np.ndarray, positions: range) -> np.ndarray:
    """Uniforms at the stream positions of a range with step 1, drawn as
    uniforms(key, len(positions), positions.start).  Raises ValueError for
    anything else."""
    if not (isinstance(positions, range) and positions.step == 1):
        raise ValueError(f"positions must be a range with step 1, got {positions!r}")
    return uniforms(key, len(positions), positions.start)


def normals(key: np.ndarray, shape) -> np.ndarray:
    """Standard normals for a fresh stream (whole-tensor draws, not
    position-addressed; key the stream by tensor identity instead)."""
    return _generator(key).standard_normal(shape)

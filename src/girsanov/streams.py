"""The random bits every path reads: Philox streams, their uniforms and
normals, and the C library's ``log`` and ``exp`` over arrays.

Path ``i`` of a run draws from the counter-based Philox4x64-10 stream
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11) keyed
by ``(seed, offset + i)`` (see :class:`RngSpec`), so results do not depend
on batching or execution order.  Every sampler, scalar or batched, takes its
keys from :meth:`RngSpec.keys`.  :func:`_philox_block` computes numpy's
``Philox`` words for many streams at once; :class:`_PhiloxUniforms` turns
them into the ``random()`` draws of consecutive streams, and
:func:`stream_uniforms` into a run of stream 0's.

The kernel runs on a caller's workspace: one uint64 array of
``(12, capacity)`` (two banks of four counter words, the running key and
three scratch rows), grown when a caller needs more streams and otherwise
reused.  Every step of a block writes into it, so a block allocates no array
and a long run does not build and free a kernel's worth of temporaries per
chunk.  The words a block returns are rows of the workspace and hold until
the next block on it.  A block of at most :data:`_PACKED_STREAMS` streams
runs on Python ints instead (:func:`_philox_packed`), which allocate no
numpy data.  :class:`_PhiloxUniforms` keeps its uniforms the same way, and
its draws write into scratch rows the caller lends it: rows that draw in
lockstep draw by one ``take``, and every fourth draw refills them at one
shared counter, a Python int, so that round 0 needs no product over the
rows.  Small arrays matter here beyond their size: numpy keeps freed data
blocks under 1024 bytes in a cache of up to 7 a byte size, unseen by
``tracemalloc``, and a loop whose live sets shrink through every size would
fill it, run after run.

The continuum engine maps each word ``w`` into the open unit interval as
``((w >> 11) + 0.5) * 2**-53`` (:func:`_open_uniform`), takes its normals
from :func:`_ndtri`, the Cephes inverse normal CDF that ``scipy.special.ndtri``
evaluates, in numpy with the same bits, and its Poisson counts from a pinned
CDF table (:func:`_poisson_cdf`).

Holding times take ``log(1 - u)`` and weights ``exp(log_w)`` with the C
library's bits, which the scalar route gets through ``math`` and numpy's own
``log`` and ``exp`` miss on some inputs.  :data:`_log` and :data:`_exp` are
numpy ufuncs built once from numpy's ufunc C-API over the process's own C
``log`` and ``exp`` (:func:`_libm_ufunc`): one C loop per array and no
Python call per value.  ``math`` calls the same C function for a finite
argument (a positive one, for ``log``), so the bits are the same by
construction; each ufunc is still checked against ``math`` bit for bit on a
fixed probe (``_PROBES``) before it is taken.  Where a ufunc cannot be built
(a platform without ``ctypes.CDLL(None)``) or fails its probe, ``math`` is
mapped over the array instead, with the same bits at some 20 times the
cost.  The ufuncs differ from ``math`` only where ``math`` raises: ``_log``
gives ``-inf`` at 0 and NaN below it, and ``_exp`` gives ``inf`` above
``log(DBL_MAX)``, about 709.78, each with numpy's floating-point warning.
"""

from __future__ import annotations

import ctypes
import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError

__all__ = ["RngSpec", "stream_uniforms"]


_MASK64 = (1 << 64) - 1


def _index(value) -> Optional[int]:
    """``value`` as an exact Python int, or None for a bool or a non-integer."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _nonnegative(value, name: str) -> int:
    """``value`` as an exact integer >= 0, not a bool; else :class:`DomainError`."""
    i = _index(value)
    if i is None or i < 0:
        raise DomainError(f"{name} must be a nonnegative integer, got {value!r}")
    return i


@dataclass(frozen=True)
class RngSpec:
    """Reproducible random source: one independent stream per path index.

    Streams are counter-based (Philox keyed by ``(seed, offset + index)``),
    so the path produced for a given index never depends on how many other
    paths ran, in what order, or on how work was batched.  ``offset`` shifts
    the whole block of indices, which gives disjoint blocks of streams.
    """

    seed: int
    offset: int = 0

    def __post_init__(self):
        seed = _index(self.seed)
        if seed is None or not 0 <= seed <= _MASK64:  # a larger seed would alias seed & _MASK64
            raise DomainError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        object.__setattr__(self, "seed", seed)  # numpy integers become ints, so key arithmetic is exact
        object.__setattr__(self, "offset", _nonnegative(self.offset, "offset"))

    def keys(self, first: int, count: int):
        """Philox keys of streams ``first .. first + count - 1``: the word
        ``seed`` they share and one word ``offset + index`` each, both
        modulo 2**64 (uint64 array arithmetic wraps, as the keys do).
        ``first`` is an integer >= 0, taken as an exact int, as
        :meth:`stream` takes its index."""
        first = _nonnegative(first, "first stream index")
        return self.seed & _MASK64, np.arange(count, dtype=np.uint64) + np.uint64((self.offset + first) & _MASK64)

    def stream(self, index: int) -> np.random.Generator:
        """Generator of stream ``index``, an integer >= 0 as ``offset`` is: a negative one aliases another block."""
        key0, key1 = self.keys(_nonnegative(index, "stream index"), 1)
        return np.random.Generator(np.random.Philox(key=np.array([key0, key1[0]], dtype=np.uint64)))


# ---------------------------------------------------------------------------
# vectorised Philox4x64-10


def _word(value: int) -> np.ndarray:
    """``value`` as a 0-d uint64 array: as an operand of a ufunc on a short
    row it costs about 0.4 us a call, a numpy scalar about 0.65 us."""
    return np.array(value, dtype=np.uint64)


_LO32 = _word(0xFFFFFFFF)
_SHIFT32 = _word(32)
_PHILOX_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
# each multiplier as 0-d arrays (low limb, high limb, whole), and the key's second Weyl step
_PHILOX_LIMBS = tuple((_word(m & 0xFFFFFFFF), _word(m >> 32), _word(m)) for m in _PHILOX_MUL)
_PHILOX_WEYL1 = _word(_PHILOX_WEYL[1])
_PHILOX_ROUNDS = 10
_PHILOX_ROWS = 12  # two banks of four counter words, the running key, three scratch rows
_ELEVEN = _word(11)  # a word's top 53 bits, times 2**-53, are its uniform
_TWO_M53 = 2.0 ** -53
# blocks of at most this many streams run on Python ints (_philox_packed),
# wider ones on numpy (~300 ufunc calls, ~150 us up to a few hundred
# streams).  The two alternating in one process (2-core VM, BENCH_30.json):
# packed 14, 53 and 220 us at 4, 64 and 256 streams against numpy's
# 140-241, then 189 against 171 us at 320 and 543 against 221 at 1024
_PACKED_STREAMS = 256
_LANE = (1).to_bytes(16, "little")  # a 128-bit lane holding 1


def _grown(ws: np.ndarray, capacity: int) -> np.ndarray:
    """``ws`` itself when its rows hold ``capacity`` values, else a new
    array of its dtype, with as many rows, that does."""
    if ws.shape[-1] >= capacity:
        return ws
    return np.empty(ws.shape[:-1] + (capacity,), dtype=ws.dtype)


def _philox_workspace(capacity: int, ws: Optional[np.ndarray] = None) -> np.ndarray:
    """Scratch for :func:`_philox_block` over up to ``capacity`` streams:
    ``ws`` itself when it has room, else a new workspace."""
    return _grown(np.empty((_PHILOX_ROWS, 0), dtype=np.uint64) if ws is None else ws, capacity)


def _mulhilo(a: np.ndarray, mul: tuple, hi: np.ndarray, lo: np.ndarray, scratch) -> None:
    """Write the high and low 64-bit words of ``a * mul`` into ``hi``, ``lo``.

    ``mul`` is one entry of :data:`_PHILOX_LIMBS`.  The 64x64 -> 128 product
    from 32-bit limbs (Warren, *Hacker's Delight*, ``mulhu``) in fifteen
    ufunc calls, each writing into one of ``hi``, ``lo`` and the three
    ``scratch`` rows; none of the sums can wrap.
    """
    m0, m1, whole = mul
    a_lo, w, t = scratch
    np.bitwise_and(a, _LO32, out=a_lo)
    np.multiply(a_lo, m0, out=w)
    np.right_shift(w, _SHIFT32, out=w)  # the carry out of the low limb
    np.right_shift(a, _SHIFT32, out=hi)
    np.multiply(hi, m0, out=t)
    np.add(t, w, out=t)
    np.bitwise_and(t, _LO32, out=w)
    np.right_shift(t, _SHIFT32, out=t)
    np.multiply(a_lo, m1, out=a_lo)
    np.add(w, a_lo, out=w)
    np.right_shift(w, _SHIFT32, out=w)  # the carry out of the middle limb
    np.multiply(hi, m1, out=hi)
    np.add(hi, t, out=hi)
    np.add(hi, w, out=hi)
    np.multiply(a, whole, out=lo)


def _philox_block(counter, key0: int, key1: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """Philox4x64-10 output words for counters ``(counter[i], 0, 0, 0)``
    under keys ``(key0, key1[i])``, as numpy's ``Philox`` computes them.
    ``counter`` is a uint64 array, one counter a stream, or a Python int in
    ``[0, 2**64)`` that every stream shares.

    Every step writes into the workspace ``ws`` (from
    :func:`_philox_workspace`, with room for ``key1.size`` streams), so a
    call allocates no array.  The words returned are a ``(4, key1.size)``
    view of ``ws``, word ``j`` in row ``j``: they hold until the next call on
    the same workspace, and the caller may write over them.

    The first two rounds are folded.  Round 0 meets words 1-3 equal to 0, so
    its second product is 0 and it gives ``(key0, 0, hi ^ key1, lo)`` from
    the one product ``counter * M0``, a Python int when the counter is one.
    Round 1's first product is then the scalar ``key0 * M0``, a Python int,
    and its fourth word the same for every stream.

    A block of at most :data:`_PACKED_STREAMS` streams runs on Python ints
    instead (:func:`_philox_packed`), with the same words in the same rows.
    """
    if key1.size <= _PACKED_STREAMS:
        return _philox_packed(counter, key0, key1, ws)
    words = ws[4:8, : key1.size]  # ten rounds, from the first bank, end in the second
    rows = tuple(ws[:, : key1.size])
    c, nxt, k1, scratch = rows[0:4], rows[4:8], rows[8], rows[9:12]
    if isinstance(counter, int):
        product = counter * _PHILOX_MUL[0]
        np.bitwise_xor(key1, _word(product >> 64), out=c[2])
        c[3].fill(product & _MASK64)
    else:
        _mulhilo(counter, _PHILOX_LIMBS[0], c[2], c[3], scratch)
        np.bitwise_xor(c[2], key1, out=c[2])
    product = key0 * _PHILOX_MUL[0]
    key0 = (key0 + _PHILOX_WEYL[0]) & _MASK64
    np.add(key1, _PHILOX_WEYL1, out=k1)
    _mulhilo(c[2], _PHILOX_LIMBS[1], nxt[0], nxt[1], scratch)
    np.bitwise_xor(nxt[0], _word(key0), out=nxt[0])
    np.bitwise_xor(c[3], _word(product >> 64), out=nxt[2])
    np.bitwise_xor(nxt[2], k1, out=nxt[2])
    nxt[3].fill(product & _MASK64)
    c, nxt = nxt, c
    for _ in range(2, _PHILOX_ROUNDS):
        key0 = (key0 + _PHILOX_WEYL[0]) & _MASK64
        np.add(k1, _PHILOX_WEYL1, out=k1)
        _mulhilo(c[0], _PHILOX_LIMBS[0], nxt[2], nxt[3], scratch)
        _mulhilo(c[2], _PHILOX_LIMBS[1], nxt[0], nxt[1], scratch)
        np.bitwise_xor(nxt[0], c[1], out=nxt[0])
        np.bitwise_xor(nxt[0], _word(key0), out=nxt[0])
        np.bitwise_xor(nxt[2], c[3], out=nxt[2])
        np.bitwise_xor(nxt[2], k1, out=nxt[2])
        c, nxt = nxt, c
    return words


def _philox_packed(counter, key0: int, key1: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """:func:`_philox_block` on Python ints: each word of all ``r`` streams
    is one int of ``r`` 128-bit lanes, so a round is two big-int products
    (a lane's 128-bit product stays in its lane) and shifts, xors and masks.
    Words 1 and 3 stay whole products and the keys unmasked (ten Weyl steps
    keep a lane below 2**68); the masks ending words 0 and 2 drop the high
    halves.  Keys and counters are staged in rows 8-11 of ``ws``, the words
    written to rows 4-7; no lane constant is cached between calls.
    """
    r = key1.size
    unit = int.from_bytes(_LANE * r, "little")  # 1 in every lane
    low = unit * _MASK64  # the low word of every lane
    lanes = ws[8:12].reshape(-1)[: 2 * r].reshape(r, 2)  # a lane a row, low word first
    lanes[:, 0] = key1
    if isinstance(counter, int):
        lanes[:, 1] = 0
        k1, x0 = int.from_bytes(lanes, "little"), counter * unit
    else:
        lanes[:, 1] = counter
        both = int.from_bytes(lanes, "little")
        k1, x0 = both & low, both >> 64 & low
    k0, x1, x2, x3 = key0 * unit, 0, 0, 0
    weyl0, weyl1 = _PHILOX_WEYL[0] * unit, _PHILOX_WEYL[1] * unit
    for _ in range(_PHILOX_ROUNDS):
        p0, p1 = x0 * _PHILOX_MUL[0], x2 * _PHILOX_MUL[1]
        x0, x1, x2, x3 = (p1 >> 64 ^ x1 ^ k0) & low, p1, (p0 >> 64 ^ x3 ^ k1) & low, p0
        k0 += weyl0
        k1 += weyl1
    words = ws[4:8, :r]
    for pair, lo, hi in ((words[0:2], x0, x1), (words[2:4], x2, x3)):
        packed = (lo | (hi & low) << 64).to_bytes(16 * r, "little")
        np.copyto(pair, np.frombuffer(packed, dtype=np.uint64).reshape(r, 2).T)
    return words


def _ranks(mask: np.ndarray, k: int, rank: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Where each entry of an array goes so that ``mask`` selects it: the
    ``i``-th of the ``k`` selected entries to ``i``, every other one to
    ``n = mask.size``.  A scatter ``out[rank] = values`` into ``n + 1``
    values then leaves ``values[mask]`` in ``out[:k]``, with nothing
    allocated.  Written into ``rank[:n]``; ``index`` is an ``arange`` of at
    least ``k`` values."""
    rank = rank[: mask.size]
    rank.fill(mask.size)
    rank[mask] = index[:k]
    return rank


def _gather(values: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``values[index]``, written into ``out[:index.size]``.  Every index is
    in range: ``take``'s mode "raise" would buffer the output."""
    return values.take(index, out=out[: index.size], mode="clip")


class _PhiloxUniforms:
    """The uniform draws of consecutive streams, advanced together.

    Row ``i`` yields, draw for draw, ``rng.stream(first + i).random()``:
    numpy's Philox increments the counter before each block (so the first
    block has counter 1), hands out the block's four words in order and maps
    a word ``x`` to ``(x >> 11) * 2**-53``.

    One object serves run after run of streams: :meth:`start` sets it on a
    run and keeps its buffers, growing them only for a longer run, and a
    draw writes into them and into its scratch, so neither allocates an
    array.  The words are shifted in the Philox workspace and mapped to
    uniforms by a cast and a product into ``_buf``, word ``j`` of row ``i``
    at ``[j, i]``: directly for the first block, and for a refill in the
    workspace's idle first bank, then one scatter a word.

    A run started with ``keep`` keeps a copy of its first block, and
    :meth:`rewind` sets it back on its first draw from that copy, with no
    kernel call: the same streams read again, as another start law on the
    same paths does.

    :meth:`draw_live` serves rows that have all drawn alike and leave only
    between draws, as a chain chunk's live paths: the run keeps one position
    ``pos``, a draw takes ``_buf[pos & 3]``, and every fourth refills the
    rows at the shared int counter ``pos // 4 + 1``.  :meth:`draw` serves
    any subset, as the redraw of a zero: each row counts its own draws in
    ``_drawn``.  The run's first :meth:`draw` sets every count to ``pos``,
    right for the rows still drawing, and sends later :meth:`draw_live`
    calls to :meth:`draw`.
    """

    def __init__(self, rng: Optional[RngSpec] = None, first: int = 0, count: int = 0):
        self._buf = np.empty((4, 0))
        self._first = np.empty((4, 0))
        self._drawn = np.empty(0, dtype=np.intp)
        self._keys = np.empty(0, dtype=np.uint64)
        if rng is not None:
            self.start(rng, first, count)

    def start(self, rng: RngSpec, first: int, count: int, scratch: Optional[tuple] = None,
              keep: bool = False) -> "_PhiloxUniforms":
        """Set on streams ``first .. first + count - 1``, from their first draws.

        ``scratch`` is what a draw may write over: a Philox workspace for
        ``count`` streams, three intp rows of at least ``count + 1`` values,
        a float row and two bool rows of ``count``, and an ``arange`` of
        ``count + 1``; new rows when None.  A draw returns a view of the
        float row.  ``keep`` keeps a copy of the first block for :meth:`rewind`.
        """
        key0, key1 = rng.keys(first, count)
        if self._drawn.size < count:
            self._buf = np.empty((4, count))
            self._drawn = np.empty(count, dtype=np.intp)
            self._keys = np.empty(count, dtype=np.uint64)
        if scratch is None:
            scratch = (_philox_workspace(count), np.empty((3, count + 1), dtype=np.intp), np.empty(count),
                       np.empty((2, count), dtype=bool), np.arange(count + 1))
        self._ws, *self._scratch = scratch
        self._key0, self._key1 = key0, key1
        self._count, self._pos = count, 0  # _pos is None once the run draws row by row
        for row, words in zip(self._buf[:, :count], self._words(1, key1)):
            np.copyto(row, words, casting="unsafe")  # exact: the words are below 2**53
            np.multiply(row, _TWO_M53, out=row)
        if keep:
            self._first = _grown(self._first, count)
            np.copyto(self._first[:, :count], self._buf[:, :count])
        return self

    def rewind(self) -> "_PhiloxUniforms":
        """Back on the first draw of the run, which :meth:`start` began with
        ``keep``: the first block from its copy, the words bit for bit."""
        np.copyto(self._buf[:, : self._count], self._first[:, : self._count])
        self._pos = 0
        return self

    @property
    def nbytes(self) -> int:
        """Bytes of the buffers kept from run to run."""
        return sum(a.nbytes for a in (self._buf, self._first, self._drawn, self._keys))

    def _words(self, counter, key1: np.ndarray) -> np.ndarray:
        """The block's words, each shifted to its top 53 bits in place, a row
        at a time: before an in-place ufunc numpy copies a strided block."""
        words = _philox_block(counter, self._key0, key1, self._ws)
        for row in words:
            np.right_shift(row, _ELEVEN, out=row)
        return words

    def _refill(self, counter, rows: np.ndarray) -> None:
        """Load block ``counter`` (an int, or one a row) of each listed row into ``_buf``."""
        r = rows.size
        # the bank the rounds left, idle until the next block, as r floats a word
        spare = self._ws[:4].reshape(-1)[: 4 * r].reshape(4, r).view(np.float64)
        np.copyto(spare, self._words(counter, _gather(self._key1, rows, self._keys)), casting="unsafe")
        np.multiply(spare, _TWO_M53, out=spare)
        for row, uniforms in zip(self._buf, spare):
            row[rows] = uniforms

    def draw_live(self, rows: np.ndarray) -> np.ndarray:
        """Next uniform of each listed row, where every listed row has drawn
        as often as the others in this run; in a buffer that holds until the
        next draw."""
        pos = self._pos
        if pos is None:
            return self.draw(rows)
        self._pos = pos + 1
        if pos and not pos & 3:
            self._refill(pos // 4 + 1, rows)
        return _gather(self._buf[pos & 3], rows, self._scratch[1])

    def draw(self, rows: np.ndarray) -> np.ndarray:
        """Next uniform of each listed row, in a buffer that holds until the next draw."""
        if self._pos is not None:
            self._drawn[: self._count].fill(self._pos)
            self._pos = None
        n = rows.size
        (drawn, slot, refill), out, (spent, other), index = self._scratch
        drawn, slot, spent, other = _gather(self._drawn, rows, drawn), slot[:n], spent[:n], other[:n]
        np.bitwise_and(drawn, 3, out=slot)
        np.logical_and(np.equal(slot, 0, out=spent), np.greater(drawn, 0, out=other), out=spent)
        r = np.count_nonzero(spent)
        if r:
            refill[_ranks(spent, r, slot, index)] = rows
            refill = refill[:r]
            block = _gather(self._drawn, refill, slot)
            np.right_shift(block, 2, out=block)
            lead = int(block[0])
            if np.count_nonzero(np.equal(block, lead, out=other[:r])) == r:
                counter = lead + 1
            else:
                counter = np.add(block, 1, out=block).view(np.uint64)
            self._refill(counter, refill)
            np.bitwise_and(drawn, 3, out=slot)  # the ranks and blocks wrote over the slots
        np.add(drawn, 1, out=drawn)
        self._drawn[rows] = drawn
        np.multiply(slot, self._buf.shape[1], out=slot)
        return _gather(self._buf.reshape(-1), np.add(slot, rows, out=slot), out)


def stream_uniforms(rng: RngSpec, start: int, count: int) -> np.ndarray:
    """Draws ``start .. start + count - 1`` of ``rng.stream(0).random()``, bit
    for bit: the words of counters ``start // 4 + 1 .. (start + count - 1) //
    4 + 1`` under stream 0's key, read in counter order from word ``start & 3``."""
    first, blocks = start // 4 + 1, (start + count - 1) // 4 - start // 4 + 1
    key0, key1 = rng.keys(0, 1)
    counter = np.arange(first, first + blocks, dtype=np.uint64)
    words = _philox_block(counter, key0, np.repeat(key1, blocks), _philox_workspace(blocks))
    np.right_shift(words, _ELEVEN, out=words)
    return words.T.ravel()[start & 3 :][:count] * _TWO_M53


# ---------------------------------------------------------------------------
# the C library's log and exp over arrays


def _libm(fn):
    """Elementwise ``fn`` of the ``math`` module over a float array, one
    Python call a value: the route where :func:`_libm_ufunc` cannot serve."""

    def apply(a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        # a memoryview iterates as Python floats without building a list
        values = np.fromiter(map(fn, memoryview(np.ascontiguousarray(a, dtype=float))),
                             dtype=float, count=a.size)
        if out is None:
            return values
        out[...] = values
        return out

    return apply


_NPY_DOUBLE = 12
# the ctypes arrays and strings a built ufunc points into, referenced for the
# life of the process, since the ufunc reads them on every call
_UFUNC_KEEPALIVE = []


def _libm_ufunc(name: str) -> np.ufunc:
    """A numpy ufunc, float64 to float64, over the process's C function ``name``.

    It comes from numpy's ufunc C-API, whose function table the
    ``_UFUNC_API`` capsule of ``numpy._core._multiarray_umath`` holds: entry
    1 is ``PyUFunc_FromFuncAndData`` and entry 5 the generic loop
    ``PyUFunc_d_d``, which calls the ``double (*)(double)`` in its data
    pointer once a value.  That pointer is the address of ``name`` in the
    process (``ctypes.CDLL(None)``), the C library's function that ``math``
    calls too.  Raises ImportError, AttributeError, OSError, TypeError or
    ValueError where the capsule or the symbol cannot be had, as on a
    platform without ``ctypes.CDLL(None)``.
    """
    from numpy._core import _multiarray_umath

    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    table = ctypes.cast(get_pointer(_multiarray_umath._UFUNC_API, None), ctypes.POINTER(ctypes.c_void_p))
    # PyUFunc_FromFuncAndData(func, data, types, ntypes, nin, nout, identity, name, doc, unused)
    make = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                             ctypes.c_int, ctypes.c_int, ctypes.c_int, ctypes.c_int,
                             ctypes.c_char_p, ctypes.c_char_p, ctypes.c_int)(table[1])
    loops = (ctypes.c_void_p * 1)(table[5])
    data = (ctypes.c_void_p * 1)(ctypes.cast(getattr(ctypes.CDLL(None), name), ctypes.c_void_p).value)
    types = (ctypes.c_char * 2)(_NPY_DOUBLE, _NPY_DOUBLE)
    label, doc = name.encode(), f"The C library's {name}, elementwise.".encode()
    _UFUNC_KEEPALIVE.append((loops, data, types, label, doc))
    no_identity = -1  # PyUFunc_None
    return make(ctypes.addressof(loops), ctypes.addressof(data), ctypes.addressof(types),
                1, 1, 1, no_identity, label, doc, 0)


# Inputs on which a ufunc must give ``math``'s bits before it is taken: the
# values the chain engine passes (``1 - u`` from 1 down to 2**-53, log
# weights over the range where ``exp`` is a normal or subnormal double),
# subnormals, and values where numpy 2.4's own log and exp, on x86-64, differ
# from the C library's in the last bit.
_PROBES = {
    "log": [2.0 ** -k for k in range(54)] + [1.0 - 2.0 ** -k for k in range(1, 54)]
    + [2.0 ** -53 + (1.0 - 2.0 ** -53) * i / 1024 for i in range(1025)]
    + [5e-324, 2.0 ** -1060, 2.0 ** -1023]
    + [float.fromhex(h) for h in ("0x1.f82e361cb63ecp-1", "0x1.f33d36ad49123p-1",
                                  "0x1.92a85b98cfea4p-1", "0x1.fbfa2af534060p-1")],
    "exp": [-745.0 + 1454.0 * i / 1024 for i in range(1025)] + [0.0, -0.0, 2.0 ** -60, -(2.0 ** -60)]
    + [float.fromhex(h) for h in ("-0x1.8b9ec00916a00p+1", "-0x1.7f7aad6153457p+8",
                                  "0x1.246a673a95214p+9", "0x1.28e99051e903cp+7")],
}


def _agrees(candidate, fn, probe: list) -> bool:
    """Whether ``candidate`` over the floats ``probe``, as an array, gives,
    bit for bit, ``fn`` of each value."""
    x = np.array(probe)
    expected = np.fromiter(map(fn, probe), dtype=float, count=len(probe))
    with np.errstate(all="ignore"):  # exp underflows on the probe, whatever numpy settings the importer chose
        got = np.asarray(candidate(x), dtype=float)
    return got.shape == x.shape and bool((got.view(np.uint64) == expected.view(np.uint64)).all())


def _c_library(name: str):
    """``math.<name>`` over float arrays: a :func:`_libm_ufunc` where it can
    be built and gives ``math``'s bits on every value of its probe, else the
    :func:`_libm` route, which gives them by construction."""
    fn = getattr(math, name)
    try:
        ufunc = _libm_ufunc(name)
    except (ImportError, AttributeError, OSError, TypeError, ValueError):
        return _libm(fn)
    return ufunc if _agrees(ufunc, fn, _PROBES[name]) else _libm(fn)


_log = _c_library("log")
_exp = _c_library("exp")


# ---------------------------------------------------------------------------
# open uniforms, normals and Poisson counts


_BELOW_ONE = 1.0 - 2.0 ** -53  # the largest double below 1


def _open_uniform(words: np.ndarray) -> np.ndarray:
    """Philox words as uniforms ``((w >> 11) + 0.5) * 2**-53``, never 0."""
    return _open_unit((words >> _ELEVEN).astype(float))


def _open_unit(top: np.ndarray) -> np.ndarray:
    """The uniforms of words whose top 53 bits ``top`` holds as doubles
    (exactly), written over it: ``(top + 0.5) * 2**-53``.

    Above 1/2 the half does not fit in a double and the sum rounds to even,
    so the top word would give exactly 1; it is held at the largest double
    below 1 instead, and every uniform lies in the open unit interval.
    """
    top += 0.5
    top *= _TWO_M53
    return np.minimum(top, _BELOW_ONE, out=top)


# Cephes ``ndtri`` (Moshier, *Methods and Programs for Mathematical
# Functions*, 1989), the inverse of the standard normal CDF, as
# ``scipy.special.ndtri`` evaluates it: ``y`` in ``(e^-2, 1 - e^-2]`` takes
# the central rational in ``y - 1/2``; below or above it, with ``1 - y`` on
# the upper side, the tail rational in ``1/x``, ``x = sqrt(-2 log y)``, from
# the first table up to ``x = 8`` and the second beyond.  Each denominator
# starts with the leading 1 of Cephes' ``p1evl``.
_NDTRI_LOW = 0.13533528323661269189  # e^-2
_NDTRI_HIGH = 1.0 - _NDTRI_LOW
_SQRT_2PI = 2.50662827463100050242
_NDTRI_CENTRAL = (
    (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
     1.39312609387279679503e1, -1.23916583867381258016e0),
    (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
     -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
     1.59056225126211695515e1, -1.18331621121330003142e0),
)
_NDTRI_TAIL = (
    (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
     4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
     -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4),
    (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
     1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
     -3.80806407691578277194e-2, -9.33259480895457427372e-4),
)
_NDTRI_FAR = (  # x >= 8, that is y <= e^-32
    (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
     1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
     3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9),
    (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
     2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
     2.89247864745380683936e-6, 6.79019408009981274425e-9),
)


def _horner(x: np.ndarray, coef: tuple, out: np.ndarray) -> np.ndarray:
    """``(c0 x + c1) x + c2 ...`` into ``out``, in Cephes' order: ``polevl``,
    and ``p1evl`` when ``c0`` is 1 (``1 x`` is ``x``)."""
    np.multiply(x, coef[0], out=out)
    np.add(out, coef[1], out=out)
    for c in coef[2:]:
        np.multiply(out, x, out=out)
        np.add(out, c, out=out)
    return out


def _rational(x: np.ndarray, table: tuple, num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``(x P(x)) / Q(x)`` into ``num``, as Cephes groups it."""
    _horner(x, table[0], num)
    num *= x
    num /= _horner(x, table[1], den)
    return num


def _ndtri(y: np.ndarray, work: Optional[np.ndarray] = None) -> np.ndarray:
    """The standard normal quantile of every ``y`` in the open unit
    interval, written over ``y`` (a C-contiguous float array), with the bits
    of ``scipy.special.ndtri``.

    It follows the Cephes code operation for operation, taking ``log`` from
    :data:`_log` (the C library's, which Cephes calls too).  The central
    rational runs over the whole array in place, with ``work`` (three
    arrays of ``y``'s shape, allocated when not given) as its scratch: its
    denominator has no root for ``|y - 1/2| < 1/2``, so the values that
    belong to the tails give finite values there, and only those, about 27%
    of uniform draws, are gathered, taken through the tail and scattered
    back.  Outside ``(0, 1)`` the result is undefined.
    """
    flat = y.reshape(-1)
    tail = ((flat <= _NDTRI_LOW) | (flat > _NDTRI_HIGH)).nonzero()[0]
    t = flat[tail]
    upper = t > _NDTRI_HIGH
    if work is None:
        work = np.empty((3,) + y.shape)
    y2, num, den = work
    np.subtract(y, 0.5, out=y)
    np.multiply(y, y, out=y2)
    _rational(y2, _NDTRI_CENTRAL, num, den)
    num *= y
    y += num
    y *= _SQRT_2PI
    if tail.size:
        np.minimum(t, 1.0 - t, out=t)
        x = _log(t)
        x *= -2.0
        np.sqrt(x, out=x)
        z = 1.0 / x
        x1 = _rational(z, _NDTRI_TAIL, np.empty_like(z), np.empty_like(z))
        far = (x >= 8.0).nonzero()[0]
        if far.size:
            x1[far] = _rational(z[far], _NDTRI_FAR, np.empty(far.size), np.empty(far.size))
        x -= _log(x) / x
        x -= x1
        np.negative(x, out=x, where=~upper)
        flat[tail] = x
    return y


def _poisson_cdf(mean: float) -> np.ndarray:
    """CDF table ``c_0 .. c_kmax`` of a Poisson count, for inversion.

    Sequential recurrence ``p_k = p_{k-1} mean / k``, ``c_k = c_{k-1} + p_k``
    from ``p_0 = e^{-mean}``, out to ``mean + 10 sqrt(mean) + 20``, where the
    tail left is far below one ulp; the last entry is pinned to 1.0, so every
    uniform in (0, 1] finds a count (:func:`_poisson_count`).
    """
    if mean > 700.0:  # e^{-mean} would be subnormal or 0
        raise DomainError(
            f"{mean:.4g} explicit jumps per path on average is beyond the count "
            "table; raise eps"
        )
    p = math.exp(-mean)
    kmax = int(mean + 10.0 * math.sqrt(mean) + 20.0)
    cdf = np.empty(kmax + 1)
    c = cdf[0] = p
    for k in range(1, kmax + 1):
        p = p * mean / k
        c = cdf[k] = c + p
    cdf[-1] = 1.0
    return cdf


def _poisson_count(cdf: np.ndarray, u):
    """Inversion: the least ``k`` with ``u <= c_k``."""
    return np.searchsorted(cdf, u, side="left")

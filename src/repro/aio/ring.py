"""Submission/completion rings laid out inside a relay segment.

The paper's ``xcall``/``xret`` is strictly synchronous: one blocked
caller per call chain, one boundary crossing per request.  This module
adds the io_uring/AnyCall-style aggregation layer on top — *without*
changing the ISA semantics.  A single relay segment carries:

``+--------+----------------+----------------+--------------------+``
``| header | SQE ring       | CQE ring       | payload arena      |``
``+--------+----------------+----------------+--------------------+``

* The **header** holds the geometry and the index block as real bytes
  in simulated physical memory.  The index block is six u32s at byte 24
  (``sq_head``/``sq_tail``/``cq_head``/``cq_tail``, the arena cursor and
  the next sequence number).  Each ring operation reads the whole block
  once, computes the new indices locally and writes the block back once,
  only when it succeeds: a refused push leaves the header as it found
  it.  No index is cached in Python between operations, because the
  client ring and the worker's :meth:`XPCRing.attach` view are separate
  objects over the same bytes.  Indices are *monotonic* (never wrap); a
  record's slot is ``index % entries``.  ``head <= tail`` is therefore a
  memory-checkable invariant (see :func:`repro.verify.check_ring_invariants`).
* **SQEs** are fixed 32-byte records pointing at arena-resident meta and
  payload bytes; **CQEs** mirror them with a status and reply locations.
  Replies land *in place* in the request's arena slot — the same
  zero-copy convention as the synchronous transport.
* The **arena** is a bump allocator, reset by the client between batch
  rounds once every completion has been harvested.
* **Metas** are stored as ``repr(tuple(meta))`` in UTF-8.  The byte
  length sets arena offsets and fill cycles, so the encoding never
  changes.  :func:`decode_meta` parses it directly: tuples of ``str``,
  ``bytes``, ``int``, ``float``, ``bool`` and ``None``, in the ``repr``
  spelling of each.

TOCTTOU safety comes for free from relay-seg ownership (§3.3/§6.1):
the client fills SQEs while it owns the segment, the single ``xcall``
hands ownership to the worker, which drains while *it* owns the
segment; there is never a moment with two writers.

Every enqueue/dequeue is cycle-accounted through the operating core
(``aio_*`` fields of :class:`repro.params.CycleParams`); arena fills
charge the same ``relay_fill_per_byte`` as the synchronous transport's
message production.
"""

from __future__ import annotations

import codecs
import re
import struct
from typing import List, NamedTuple, Optional, Tuple

import repro.faults as faults
import repro.probe as probe
from repro.hw.cpu import Core
from repro.xpc.errors import XPCError
from repro.xpc.relayseg import RelaySegment, SegReg

#: Header field layout (all little-endian u32):
#:   magic, entries, sqe_off, cqe_off, arena_off, arena_len,
#:   sq_head, sq_tail, cq_head, cq_tail, arena_cur, next_seq
_HDR = struct.Struct("<12I")
HDR_BYTES = 64
#: The index block: the last six header fields, read and written whole.
_IDX = struct.Struct("<6I")
_IDX_OFF = 24
_IDX_FIELDS = ("sq_head", "sq_tail", "cq_head", "cq_tail",
               "arena_cursor", "next_seq")
MAGIC = 0x58504352  # "XPCR"

_SQE = struct.Struct("<6I")   # seq, meta_off, meta_len, data_off, slot_len, data_len
_CQE = struct.Struct("<Ii4I")  # seq, status, rmeta_off, rmeta_len, rdata_off, rdata_len
SQE_BYTES = 32
CQE_BYTES = 32

#: CQE status values.
SQE_OK = 0
SQE_ERR = -1


class XPCRingFullError(XPCError):
    """Bounded-queue backpressure: the submission ring (or its payload
    arena) cannot admit another request right now."""

    def __init__(self, name: str, reason: str) -> None:
        self.ring_name = name
        self.reason = reason
        super().__init__(f"{name}: {reason}")


class SQE(NamedTuple):
    """A submission-queue entry as read back from ring memory."""

    seq: int
    meta_off: int
    meta_len: int
    data_off: int
    slot_len: int      # bytes reserved in the arena (>= data and reply)
    data_len: int      # bytes of request payload actually filled


class CQE(NamedTuple):
    """A completion-queue entry as read back from ring memory."""

    seq: int
    status: int
    rmeta_off: int
    rmeta_len: int
    rdata_off: int
    rdata_len: int


def encode_meta(meta: tuple) -> bytes:
    """Deterministically serialize a transport ``meta`` tuple."""
    return repr(tuple(meta)).encode("utf-8")


#: One token of a meta's ``repr``: a parenthesis, a separator (``,``
#: with at most one space, as ``repr`` writes it), a quoted ``str`` or
#: ``bytes`` literal, a number, or ``True``/``False``/``None``.  String
#: bodies admit no raw newline, CR or NUL, and an escape takes one ASCII
#: character (the escape itself is decoded by the codec below).
_TOKEN = re.compile(r"""
    [()] | ,\x20?
  | b?'[^'\\\n\r\x00]*(?:\\[\x01-\x0c\x0e-\x7f][^'\\\n\r\x00]*)*'
  | -?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?
  | b?"[^"\\\n\r\x00]*(?:\\[\x01-\x0c\x0e-\x7f][^"\\\n\r\x00]*)*"
  | True | False | None
""", re.VERBOSE)
_NAMES = {"True": True, "False": False, "None": None}
#: CPython's parser refuses more nested parentheses than this.
_MAX_DEPTH = 200


def _scalar(tok: str):
    first = tok[0]
    if first == "'" or first == '"':
        body = tok[1:-1]
        if "\\" in body:
            # unicode_escape (the decoder of Python's own string literals)
            # reads Latin-1 bytes: backslashreplace spells any wider
            # character as an escape it decodes back.  _TOKEN keeps the
            # character after each backslash ASCII, so no escape splits.
            return codecs.decode(body.encode("latin-1", "backslashreplace"),
                                 "unicode_escape")
        return body
    if first == "b":
        raw = tok[2:-1].encode("ascii")
        return codecs.escape_decode(raw)[0] if b"\\" in raw else raw
    if tok in _NAMES:
        return _NAMES[tok]
    # A separator in a value's place fails int() below.
    if "." in tok or "e" in tok or "E" in tok:
        return float(tok)
    value = int(tok)
    if value and tok.lstrip("-").startswith("0"):
        raise ValueError(f"leading zeros in integer literal {tok!r}")
    return value


def _group(tokens: List[str], i: int, depth: int) -> Tuple[object, int]:
    """Parse from just after a ``(`` to just after its ``)``.

    ``(x)`` is *x* itself, as in Python; a comma makes a tuple."""
    if depth > _MAX_DEPTH:
        raise ValueError("too many nested parentheses")
    if tokens[i] == ")":
        return (), i + 1
    items = []
    while True:
        tok = tokens[i]
        if tok == "(":
            value, i = _group(tokens, i + 1, depth + 1)
        else:
            value = _scalar(tok)
            i += 1
        items.append(value)
        tok = tokens[i]
        if tok == ")":
            return (tuple(items) if len(items) > 1 else value), i + 1
        if tok[0] != ",":
            raise ValueError(f"expected ',' or ')', got {tok!r}")
        i += 1
        if tokens[i] == ")":
            return tuple(items), i + 1


def decode_meta(data: bytes) -> tuple:
    """Parse :func:`encode_meta`'s bytes back into the meta tuple.

    The result equals ``ast.literal_eval`` on the same text.  Input
    outside the ``repr`` grammar raises :class:`ValueError` and never
    returns a value: trailing bytes, ``inf``/``nan``, other spellings
    (hex, underscores, string prefixes other than ``b``, extra
    whitespace) and a top level that is not a tuple."""
    text = data.decode("utf-8")
    tokens = _TOKEN.findall(text)
    # findall skips what no token matches: the tokens must spell the text.
    if "".join(tokens) != text or not tokens or tokens[0] != "(":
        raise ValueError(f"malformed meta {text!r}")
    try:
        meta, end = _group(tokens, 1, 1)
    except IndexError:
        raise ValueError(f"unterminated meta {text!r}") from None
    if end != len(tokens) or type(meta) is not tuple:
        raise ValueError(f"malformed meta {text!r}")
    return meta


def _align8(n: int) -> int:
    return (n + 7) & ~7


class XPCRing:
    """One submission/completion ring over one relay segment.

    Create it client-side with :meth:`format` (writes the header) and
    view it worker-side with :meth:`attach` (reads the header from the
    handed-over window).  All mutation of ring memory anywhere in the
    tree must go through this API — enforced by the ``aio-discipline``
    lint rule.
    """

    def __init__(self, mem, pa_base: int, va_base: int, length: int,
                 segment: Optional[RelaySegment], name: str) -> None:
        self._mem = mem
        self.pa_base = pa_base
        self.va_base = va_base
        self.length = length
        self.segment = segment
        self.name = name
        self.entries = 0
        self._sqe_off = 0
        self._cqe_off = 0
        self._arena_off = 0
        self._arena_len = 0

    # -- construction --------------------------------------------------
    @classmethod
    def format(cls, core: Core, mem, seg: RelaySegment,
               entries: int = 64, name: str = "aio") -> "XPCRing":
        """Client-side: lay a fresh ring out inside *seg*."""
        if entries <= 0:
            raise ValueError("ring needs at least one entry")
        sqe_off = HDR_BYTES
        cqe_off = sqe_off + entries * SQE_BYTES
        arena_off = _align8(cqe_off + entries * CQE_BYTES)
        if arena_off + 64 > seg.length:
            raise ValueError(
                f"segment of {seg.length} bytes too small for "
                f"{entries}-entry ring")
        ring = cls(mem, seg.pa_base, seg.va_base, seg.length, seg, name)
        ring.entries = entries
        ring._sqe_off = sqe_off
        ring._cqe_off = cqe_off
        ring._arena_off = arena_off
        ring._arena_len = seg.length - arena_off
        mem.write(seg.pa_base, _HDR.pack(
            MAGIC, entries, sqe_off, cqe_off, arena_off, ring._arena_len,
            0, 0, 0, 0, arena_off, 0))
        core.tick(core.params.aio_index_reload
                  + int(HDR_BYTES * core.params.relay_fill_per_byte))
        return ring

    @classmethod
    def attach(cls, core: Core, mem, window: SegReg,
               name: str = "aio") -> "XPCRing":
        """Worker-side: view the ring inside a handed-over window."""
        if not window.valid:
            raise XPCError("cannot attach a ring to an invalid window")
        ring = cls(mem, window.pa_base, window.va_base, window.length,
                   window.segment, name)
        hdr = _HDR.unpack(mem.read(window.pa_base, _HDR.size))
        core.tick(core.params.aio_index_reload)
        if hdr[0] != MAGIC:
            raise XPCError(f"{name}: window holds no ring (bad magic)")
        ring.entries = hdr[1]
        ring._sqe_off, ring._cqe_off = hdr[2], hdr[3]
        ring._arena_off, ring._arena_len = hdr[4], hdr[5]
        return ring

    # -- the index block (memory-resident) -----------------------------
    def _read_index(self) -> Tuple[int, int, int, int, int, int]:
        """The six indices, in :data:`_IDX_FIELDS` order, read at once."""
        return _IDX.unpack(self._mem.read(self.pa_base + _IDX_OFF, _IDX.size))

    def _write_index(self, sq_head: int, sq_tail: int, cq_head: int,
                     cq_tail: int, arena_cursor: int, next_seq: int) -> None:
        self._mem.write(self.pa_base + _IDX_OFF, _IDX.pack(
            sq_head, sq_tail, cq_head, cq_tail, arena_cursor, next_seq))

    @property
    def sq_head(self) -> int:
        return self._read_index()[0]

    @property
    def sq_tail(self) -> int:
        return self._read_index()[1]

    @property
    def cq_head(self) -> int:
        return self._read_index()[2]

    @property
    def cq_tail(self) -> int:
        return self._read_index()[3]

    @property
    def arena_cursor(self) -> int:
        return self._read_index()[4]

    @property
    def next_seq(self) -> int:
        return self._read_index()[5]

    def peek_indices(self) -> dict:
        """Uncharged snapshot of the memory-resident indices (for
        observers and invariant checkers — never moves the clock)."""
        return dict(zip(_IDX_FIELDS, self._read_index()))

    # -- capacity ------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Requests admitted but not yet harvested (SQ fill + CQ fill)."""
        idx = self._read_index()
        return idx[1] - idx[2]

    def space(self) -> int:
        """SQEs that can still be pushed before the ring refuses.

        Bounded by ``cq_head`` (not ``sq_head``) so the completion ring
        can never overflow: a slot is only reusable once its completion
        has been harvested."""
        return self.entries - self.outstanding

    # -- arena ---------------------------------------------------------
    def _arena_alloc(self, cursor: int, nbytes: int) -> int:
        """The arena cursor after taking *nbytes* at *cursor*; the
        caller commits it with the rest of the index block."""
        need = _align8(nbytes)
        end = self._arena_off + self._arena_len
        if cursor + need > end:
            raise XPCRingFullError(
                self.name,
                f"payload arena exhausted ({need} bytes wanted, "
                f"{end - cursor} free)")
        return cursor + need

    # -- submission side (client owns the segment) ---------------------
    def push_sqe(self, core: Core, meta: tuple, payload: bytes = b"",
                 reply_capacity: int = 0) -> int:
        """Append one request; returns its sequence number.

        Raises :class:`XPCRingFullError` when the ring or the arena is
        full — the ``aio.ring_full`` fault point injects that refusal
        even with space remaining (a racing producer got there first).
        A refused push writes nothing.
        """
        if faults.ACTIVE is not None:
            if faults.fire("aio.ring_full") is not None:
                raise XPCRingFullError(
                    self.name, "submission ring full (injected)")
        sq_head, sq_tail, cq_head, cq_tail, cursor, seq = self._read_index()
        if sq_tail - cq_head >= self.entries:
            raise XPCRingFullError(
                self.name,
                f"submission ring full ({self.entries} outstanding)")
        meta_bytes = encode_meta(meta)
        slot_len = _align8(max(len(payload), reply_capacity, 1))
        # Meta and data slot are one allocation: both fit or neither.
        meta_off = cursor
        data_off = meta_off + _align8(len(meta_bytes))
        cursor = self._arena_alloc(meta_off, data_off + slot_len - meta_off)
        mem, base = self._mem, self.pa_base
        mem.write(base + meta_off, meta_bytes)
        if payload:
            mem.write(base + data_off, payload)
        mem.write(
            base + self._sqe_off + (sq_tail % self.entries) * SQE_BYTES,
            _SQE.pack(seq, meta_off, len(meta_bytes), data_off,
                      slot_len, len(payload)))
        self._write_index(sq_head, sq_tail + 1, cq_head, cq_tail,
                          cursor, seq + 1)
        if probe.ACCESS:
            probe.ACCESS(core, self, "ring-sq", "aio.ring.push_sqe", "write")
        fill = len(meta_bytes) + len(payload)
        core.tick(core.params.aio_sqe_op
                  + int(fill * core.params.relay_fill_per_byte))
        return seq

    def pop_cqe(self, core: Core) -> Optional[CQE]:
        """Harvest one completion (client side); None when drained."""
        sq_head, sq_tail, cq_head, cq_tail, cursor, seq = self._read_index()
        if cq_head >= cq_tail:
            return None
        raw = self._mem.read(
            self.pa_base + self._cqe_off
            + (cq_head % self.entries) * CQE_BYTES, _CQE.size)
        self._write_index(sq_head, sq_tail, cq_head + 1, cq_tail,
                          cursor, seq)
        if probe.ACCESS:
            probe.ACCESS(core, self, "ring-cq", "aio.ring.pop_cqe", "write")
        core.tick(core.params.aio_cqe_op)
        return CQE(*_CQE.unpack(raw))

    def reset(self, core: Core) -> None:
        """Rewind the arena once every completion has been harvested."""
        sq_head, sq_tail, cq_head, cq_tail, _, seq = self._read_index()
        if sq_head != sq_tail or cq_head != cq_tail:
            raise XPCError(
                f"{self.name}: reset with requests in flight "
                f"(sq {sq_head}/{sq_tail}, cq {cq_head}/{cq_tail})")
        self._write_index(sq_head, sq_tail, cq_head, cq_tail,
                          self._arena_off, seq)
        if probe.ACCESS:
            probe.ACCESS(core, self, "ring-sq", "aio.ring.reset", "write")
            probe.ACCESS(core, self, "ring-cq", "aio.ring.reset", "write")
        core.tick(core.params.aio_index_reload)

    # -- drain side (worker owns the segment after the xcall) ----------
    def pop_sqe(self, core: Core) -> Optional[SQE]:
        """Consume one submission (worker side); None when empty.

        The ``aio.stale_head`` fault point models a stale cached index:
        recovery is a charged re-read of the header line.
        """
        if faults.ACTIVE is not None:
            if faults.fire("aio.stale_head") is not None:
                core.tick(core.params.aio_index_reload)
                if probe.COUNT:
                    probe.COUNT(f"aio.stale_head_recovered.{self.name}", 1,
                                core.cycles)
        sq_head, sq_tail, cq_head, cq_tail, cursor, seq = self._read_index()
        if sq_head >= sq_tail:
            return None
        raw = self._mem.read(
            self.pa_base + self._sqe_off
            + (sq_head % self.entries) * SQE_BYTES, _SQE.size)
        self._write_index(sq_head + 1, sq_tail, cq_head, cq_tail,
                          cursor, seq)
        if probe.ACCESS:
            probe.ACCESS(core, self, "ring-sq", "aio.ring.pop_sqe", "write")
        core.tick(core.params.aio_sqe_op)
        return SQE(*_SQE.unpack(raw))

    def push_cqe(self, core: Core, seq: int, status: int,
                 reply_meta: tuple, rdata_off: int, rdata_len: int) -> None:
        """Publish one completion (worker side).

        Reply payload bytes are already in place in the request's arena
        slot; only the reply meta is serialized here."""
        rmeta_bytes = encode_meta(reply_meta)
        (sq_head, sq_tail, cq_head, cq_tail,
         rmeta_off, next_seq) = self._read_index()
        cursor = self._arena_alloc(rmeta_off, len(rmeta_bytes))
        mem, base = self._mem, self.pa_base
        mem.write(base + rmeta_off, rmeta_bytes)
        mem.write(
            base + self._cqe_off + (cq_tail % self.entries) * CQE_BYTES,
            _CQE.pack(seq, status, rmeta_off, len(rmeta_bytes),
                      rdata_off, rdata_len))
        self._write_index(sq_head, sq_tail, cq_head, cq_tail + 1,
                          cursor, next_seq)
        if probe.ACCESS:
            probe.ACCESS(core, self, "ring-cq", "aio.ring.push_cqe", "write")
        core.tick(core.params.aio_cqe_op
                  + int(len(rmeta_bytes) * core.params.relay_fill_per_byte))

    # -- record payloads (uncharged reads, like sync reply reads) ------
    def read_meta(self, sqe: SQE) -> tuple:
        return decode_meta(self._mem.read(self.pa_base + sqe.meta_off,
                                          sqe.meta_len))

    def read_reply_meta(self, cqe: CQE) -> tuple:
        return decode_meta(self._mem.read(self.pa_base + cqe.rmeta_off,
                                          cqe.rmeta_len))

    def read_bytes(self, offset: int, n: int) -> bytes:
        if n <= 0:
            return b""
        return self._mem.read(self.pa_base + offset, n)

    def payload_window(self, sqe: SQE) -> SegReg:
        """A SegReg view of one request's arena slot — the window a
        zero-copy :class:`~repro.ipc.transport.RelayPayload` wraps."""
        if self.segment is None:
            raise XPCError(f"{self.name}: ring has no backing segment")
        return SegReg(
            segment=self.segment,
            va_base=self.va_base + sqe.data_off,
            pa_base=self.pa_base + sqe.data_off,
            length=sqe.slot_len,
            perm=self.segment.perm,
        )

    def peek_cqes(self) -> List[CQE]:
        """Uncharged view of unharvested completions (for invariant
        checks and crash-recovery harvesting)."""
        _, _, cq_head, cq_tail, _, _ = self._read_index()
        out = []
        for i in range(cq_head, cq_tail):
            raw = self._mem.read(
                self.pa_base + self._cqe_off
                + (i % self.entries) * CQE_BYTES, _CQE.size)
            out.append(CQE(*_CQE.unpack(raw)))
        return out

    def __repr__(self) -> str:
        sq_head, sq_tail, cq_head, cq_tail, _, _ = self._read_index()
        return (f"XPCRing({self.name!r}, entries={self.entries}, "
                f"sq={sq_head}/{sq_tail}, cq={cq_head}/{cq_tail})")

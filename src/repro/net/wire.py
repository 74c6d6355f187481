"""The ``repro-wire/1`` and ``repro-wire/2`` codecs: length-prefixed frames.

Live transports move the exact payload dataclasses the simulator moves —
:mod:`repro.core.messages` protocol messages, bounded labels, MWMR
timestamps, :class:`~repro.sim.messages.Garbage` — wrapped in
:class:`~repro.sim.messages.Envelope` records, over byte streams. The
codec is deliberately value-faithful rather than schema-strict: a
*corrupted lookalike* (an ``AlonLabel`` whose antistings field is a list,
a ``WriteRequest`` whose ``ts`` is ``()``) must survive the wire
unchanged, because receiver-side validation is part of the protocol under
test. Rejecting malformed labels at the codec would silently launder the
very inputs the stabilization story is about.

Framing::

    +----------------+------+---------+------------------+
    | length (u32 BE)| b"RW"| version | JSON body (utf-8)|
    +----------------+------+---------+------------------+

``length`` counts everything after the length word. A frame whose magic,
version, or body does not parse raises :class:`WireError`; stream readers
drop the frame (and count it) rather than crash — garbage on a live
channel is the moral equivalent of the simulator's corrupted envelopes.

The JSON body is a tagged tree: scalars pass through verbatim; every
composite carries a ``"§"`` tag (``tuple``, ``fset``, ``alon``, ``mwmr``,
``msg``, ...). Decoding an unknown tag or a non-scalar without a tag is a
:class:`WireError`. Unknown *extra keys* on a tagged object are ignored,
so a later ``repro-wire/1.x`` producer can add fields without breaking
this decoder; a bumped *version byte* is rejected outright (the
``repro-fuzz-recipe/1`` → ``/2`` pattern: minor additions are tolerated,
major revisions are explicit).

``repro-wire/2`` (version byte 2) keeps the framing and the faithfulness
contract but swaps the body for a struct-packed binary tree: fixed-width
ints, length-prefixed strings and containers, a packed fast path for
well-shaped Alon labels (sting + sorted antisting array as ``u32``), and
a **tagged-JSON escape hatch** — any node the binary vocabulary cannot
carry byte-faithfully (Garbage blobs, corrupted lookalike labels whose
fields hold the wrong types or out-of-range values) is embedded as its
``repro-wire/1`` JSON encoding. The hot protocol path never touches
JSON; the adversarial path loses nothing. Both codecs are exposed as
:func:`get_codec` objects with identical surfaces; a frame of either
version is rejected by the other's decoder exactly as an unknown future
version would be.

The binary codec memoizes what honest traffic repeats — labels,
timestamps, old_vals entries, envelope headers, broadcast payloads — in
:class:`BoundedMemo` tables, each capped by entries and bytes
(:data:`MEMO_BUDGETS`), so a peer sending fresh values in every frame can
pin at most the budgets. Decode keys are exact bytes of the prefix-free
encoding; encode keys are values of shapes whose equality implies
identical bytes. Memos never change the wire (docs/LIVE.md, section 2).
"""

from __future__ import annotations

import dataclasses
import json
import struct
from typing import Any, Optional

from repro.core import messages as protocol_messages
from repro.sim.messages import Envelope, Garbage

__all__ = [
    "WIRE_FORMAT",
    "WIRE_VERSION",
    "WIRE_FORMAT_V2",
    "WIRE_VERSION_V2",
    "DEFAULT_WIRE",
    "MAX_FRAME",
    "WireError",
    "get_codec",
    "CODECS",
    "JsonCodec",
    "BinaryCodec",
    "BoundedMemo",
    "MEMO_BUDGETS",
    "encode_value",
    "decode_value",
    "encode_frame",
    "decode_frame",
    "pack_frame",
    "encode_envelope",
    "decode_envelope",
    "hello_frame",
    "decode_hello",
    "FrameAssembler",
]

#: The format tag advertised in HELLO frames and benchmark artifacts.
WIRE_FORMAT = "repro-wire/1"
#: The version byte every frame carries. Bump = incompatible revision.
WIRE_VERSION = 1

_MAGIC = b"RW"
_HEADER = struct.Struct(">I")

#: Hard per-frame cap. A corrupted or adversarial length word must not be
#: able to make a reader buffer gigabytes before noticing the garbage.
MAX_FRAME = 1 << 20

_TAG = "§"  # "§": cannot collide with dataclass field names


class WireError(ValueError):
    """A frame or value that the codec refuses to encode or decode."""


# ----------------------------------------------------------------------
# value codec (tagged JSON tree)
# ----------------------------------------------------------------------
_SCALARS = (str, int, float, bool, type(None))

#: Protocol message registry: class name -> class. Everything the fuzz
#: harness, the Byzantine zoo, or a corrupted server can put on a channel
#: is one of these (or Garbage, or a scrambled lookalike thereof).
_MESSAGE_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        protocol_messages.GetTs,
        protocol_messages.TsReply,
        protocol_messages.WriteRequest,
        protocol_messages.WriteAck,
        protocol_messages.WriteNack,
        protocol_messages.ReadRequest,
        protocol_messages.ReadReply,
        protocol_messages.CompleteRead,
        protocol_messages.Flush,
        protocol_messages.FlushAck,
        protocol_messages.StateRequest,
        protocol_messages.StateReply,
    )
}


_LABEL_TYPES: Optional[tuple[type, type]] = None


def _label_types() -> tuple[type, type]:
    # Deferred import: labels/ must stay importable without net/ (NET001
    # enforces the reverse direction; this keeps module import light).
    # Cached after the first call — this sits on the per-message hot path.
    global _LABEL_TYPES
    if _LABEL_TYPES is None:
        from repro.labels.alon import AlonLabel
        from repro.labels.ordering import MwmrTimestamp

        _LABEL_TYPES = (AlonLabel, MwmrTimestamp)
    return _LABEL_TYPES


def encode_value(value: Any) -> Any:
    """Lower ``value`` to a JSON-able tagged tree.

    Raises :class:`WireError` for objects outside the wire vocabulary —
    better to fail loudly at the sender than to deliver something the
    receiving side cannot reconstruct faithfully.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value
    AlonLabel, MwmrTimestamp = _label_types()
    if isinstance(value, AlonLabel):
        return {_TAG: "alon", "s": encode_value(value.sting), "a": encode_value(value.antistings)}
    if isinstance(value, MwmrTimestamp):
        return {_TAG: "mwmr", "l": encode_value(value.label), "w": encode_value(value.writer_id)}
    if isinstance(value, Garbage):
        return {_TAG: "garbage", "n": encode_value(value.noise)}
    if isinstance(value, tuple):
        return {_TAG: "tuple", "v": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return {_TAG: "list", "v": [encode_value(v) for v in value]}
    if isinstance(value, frozenset):
        # Deterministic element order: identical values encode to identical
        # bytes regardless of set iteration order (PYTHONHASHSEED).
        items = sorted((encode_value(v) for v in value), key=repr)
        return {_TAG: "fset", "v": items}
    if type(value).__name__ in _MESSAGE_TYPES and dataclasses.is_dataclass(value):
        fields = {
            f.name: encode_value(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {_TAG: "msg", "t": type(value).__name__, "f": fields}
    raise WireError(f"value outside the wire vocabulary: {value!r}")


def decode_value(node: Any) -> Any:
    """Rebuild a value from :func:`encode_value` output."""
    if isinstance(node, _SCALARS):
        return node
    if not isinstance(node, dict):
        raise WireError(f"undecodable wire node: {node!r}")
    tag = node.get(_TAG)
    if tag == "tuple":
        return tuple(decode_value(v) for v in _want(node, "v", list))
    if tag == "list":
        return [decode_value(v) for v in _want(node, "v", list)]
    if tag == "fset":
        return frozenset(decode_value(v) for v in _want(node, "v", list))
    if tag == "alon":
        from repro.labels.alon import AlonLabel

        return AlonLabel(
            sting=decode_value(node.get("s")),
            antistings=decode_value(node.get("a")),
        )
    if tag == "mwmr":
        from repro.labels.ordering import MwmrTimestamp

        return MwmrTimestamp(
            label=decode_value(node.get("l")),
            writer_id=decode_value(node.get("w")),
        )
    if tag == "garbage":
        return Garbage(noise=decode_value(node.get("n")))
    if tag == "msg":
        cls = _MESSAGE_TYPES.get(_want(node, "t", str))
        if cls is None:
            raise WireError(f"unknown message type: {node.get('t')!r}")
        fields = _want(node, "f", dict)
        known = {f.name for f in dataclasses.fields(cls)}
        # Extra keys from a newer minor revision are dropped; missing keys
        # are a malformed frame (every v1 field is required).
        kwargs = {k: decode_value(v) for k, v in fields.items() if k in known}
        if set(kwargs) != known:
            raise WireError(
                f"message {cls.__name__} missing fields: {sorted(known - set(kwargs))}"
            )
        return cls(**kwargs)
    raise WireError(f"unknown wire tag: {tag!r}")


def _want(node: dict, key: str, kind: type) -> Any:
    value = node.get(key)
    if not isinstance(value, kind):
        raise WireError(f"malformed wire node: {key}={value!r}")
    return value


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def _encode_body(obj: Any) -> bytes:
    body = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    frame = _MAGIC + bytes([WIRE_VERSION]) + body
    if len(frame) > MAX_FRAME:
        raise WireError(f"frame of {len(frame)} bytes exceeds MAX_FRAME")
    return _HEADER.pack(len(frame)) + frame


def _decode_body(frame: bytes) -> Any:
    if len(frame) < 3 or frame[:2] != _MAGIC:
        raise WireError("bad frame magic")
    version = frame[2]
    if version != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {version} (this build speaks "
            f"{WIRE_FORMAT})"
        )
    try:
        return json.loads(frame[3:].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"unparseable frame body: {exc}") from None


def pack_frame(body: bytes) -> bytes:
    """Re-attach a length header to a frame body.

    The fault proxy forwards frames *opaquely* — split by
    :class:`FrameAssembler`, never decoded — and this puts the header
    back on the way out.
    """
    return _HEADER.pack(len(body)) + body


def encode_frame(value: Any) -> bytes:
    """One length-prefixed frame holding a bare tagged value."""
    return _encode_body(encode_value(value))


def decode_frame(frame: bytes) -> Any:
    """Inverse of :func:`encode_frame` (frame = header-less body bytes)."""
    return decode_value(_decode_body(frame))


def encode_envelope(env: Envelope) -> bytes:
    """One frame carrying a routed protocol message."""
    return _encode_body(
        {
            _TAG: "env",
            "src": env.src,
            "dst": env.dst,
            "p": encode_value(env.payload),
            "st": env.send_time,
        }
    )


def decode_envelope(frame: bytes) -> Envelope:
    node = _decode_body(frame)
    if not isinstance(node, dict) or node.get(_TAG) != "env":
        raise WireError(f"expected an envelope frame, got {node!r}")
    src = _want(node, "src", str)
    dst = _want(node, "dst", str)
    send_time = node.get("st", 0.0)
    if not isinstance(send_time, (int, float)) or isinstance(send_time, bool):
        raise WireError(f"malformed envelope send_time: {send_time!r}")
    return Envelope(
        src=src, dst=dst, payload=decode_value(node.get("p")), send_time=float(send_time)
    )


def hello_frame(pid: str) -> bytes:
    """The connection-opening identification frame."""
    return _encode_body({_TAG: "hello", "format": WIRE_FORMAT, "pid": pid})


def decode_hello(frame: bytes) -> str:
    """Validate a HELLO frame; returns the peer pid."""
    node = _decode_body(frame)
    if not isinstance(node, dict) or node.get(_TAG) != "hello":
        raise WireError(f"expected a hello frame, got {node!r}")
    fmt = node.get("format")
    if fmt != WIRE_FORMAT:
        raise WireError(f"peer speaks {fmt!r}, this build speaks {WIRE_FORMAT!r}")
    return _want(node, "pid", str)


class FrameAssembler:
    """Incremental frame splitter for stream readers.

    Feed raw bytes; iterate complete frame bodies (header stripped, magic
    and version *not yet* checked — that is the decoder's job, so a
    corrupt frame surfaces as a :class:`WireError` at decode time rather
    than desynchronizing the splitter).
    """

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        """Append ``data``; return every now-complete frame body."""
        if not self._buf:
            # Fast path: no partial frame pending, so complete frames can
            # be sliced straight out of ``data`` without the extend/del
            # churn on the carry buffer (the overwhelmingly common case —
            # a read usually delivers whole frames).
            frames: list[bytes] = []
            pos, size = 0, len(data)
            while size - pos >= 4:
                length = _HEADER.unpack_from(data, pos)[0]
                if length > MAX_FRAME:
                    raise WireError(
                        f"declared frame length {length} exceeds MAX_FRAME — "
                        f"stream is garbage or adversarial"
                    )
                end = pos + 4 + length
                if end > size:
                    break
                frames.append(bytes(data[pos + 4 : end]))
                pos = end
            if pos < size:
                self._buf.extend(data[pos:])
            return frames
        self._buf.extend(data)
        frames = []
        while True:
            if len(self._buf) < _HEADER.size:
                return frames
            (length,) = _HEADER.unpack_from(self._buf)
            if length > MAX_FRAME:
                raise WireError(
                    f"declared frame length {length} exceeds MAX_FRAME — "
                    f"stream is garbage or adversarial"
                )
            end = _HEADER.size + length
            if len(self._buf) < end:
                return frames
            frames.append(bytes(self._buf[_HEADER.size : end]))
            del self._buf[:end]

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)


# ----------------------------------------------------------------------
# repro-wire/2: struct-packed binary bodies with a JSON escape hatch
# ----------------------------------------------------------------------
#: Format tag / version byte of the binary codec.
WIRE_FORMAT_V2 = "repro-wire/2"
WIRE_VERSION_V2 = 2
#: The version new connections speak unless configured otherwise.
DEFAULT_WIRE = 2

_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1

# One-byte node tags. The vocabulary is closed: every tag below, and
# nothing else, may appear in a v2 body. ENV and HELLO are frame-level
# tags — meeting one where a value is expected is a WireError.
_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_I64 = 0x03
_T_BIGINT = 0x04  # decimal ASCII, for ints beyond 64 bits
_T_F64 = 0x05
_T_STR = 0x06
_T_TUPLE = 0x07
_T_LIST = 0x08
_T_FSET = 0x09
_T_ALONP = 0x0A  # packed well-shaped AlonLabel: u32 sting + u8 n + n*u32
_T_MWMR = 0x0B
_T_MSG = 0x0C
_T_ENV = 0x0D
_T_HELLO = 0x0E
_T_JSONESC = 0x0F  # embedded repro-wire/1 JSON node (the escape hatch)

#: Fixed positional registry for _T_MSG: index on the wire is position in
#: this tuple. Append-only — reordering is a wire-breaking change.
_MESSAGE_ORDER: tuple[type, ...] = (
    protocol_messages.GetTs,
    protocol_messages.TsReply,
    protocol_messages.WriteRequest,
    protocol_messages.WriteAck,
    protocol_messages.WriteNack,
    protocol_messages.ReadRequest,
    protocol_messages.ReadReply,
    protocol_messages.CompleteRead,
    protocol_messages.Flush,
    protocol_messages.FlushAck,
    protocol_messages.StateRequest,
    protocol_messages.StateReply,
)
_MESSAGE_INDEX: dict[type, int] = {cls: i for i, cls in enumerate(_MESSAGE_ORDER)}
_MESSAGE_FIELDS: dict[type, tuple] = {
    cls: dataclasses.fields(cls) for cls in _MESSAGE_ORDER
}

#: Identity-memo "empty" marker; `is`-distinct from every encodable value.
_MEMO_UNSET = object()


# ----------------------------------------------------------------------
# bounded memos
# ----------------------------------------------------------------------
class BoundedMemo:
    """A memo table bounded by an entry count and a byte count.

    ``put`` charges each entry the length of the wire bytes it stands for
    (its encoding, or the span it was decoded from). An admission that
    would exceed either budget first clears the table, which later misses
    refill: a hit is one lookup with no recency bookkeeping (as LRU would
    need), and an admission a few operations, which matters because a
    forging replica makes every value it sends an admission. Honest entries a flood cleared are back
    after their next miss. An entry larger than the whole byte budget is
    never admitted. ``hits``, ``misses`` and ``evictions`` count lookups
    that found an entry, lookups that did not, and entries cleared.
    """

    __slots__ = (
        "max_entries",
        "max_bytes",
        "table",
        "nbytes",
        "hits",
        "misses",
        "evictions",
    )

    def __init__(self, max_entries: int, max_bytes: int) -> None:
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.table: dict[Any, Any] = {}
        self.nbytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Any) -> Any:
        """The entry for ``key``, or ``None``. Raises TypeError if unhashable."""
        hit = self.table.get(key)
        if hit is None:
            self.misses += 1
        else:
            self.hits += 1
        return hit

    def put(self, key: Any, value: Any, nbytes: int) -> None:
        """Admit ``key -> value`` at a cost of ``nbytes`` (first entry wins)."""
        if nbytes > self.max_bytes:
            return
        table = self.table
        size = len(table)
        if size >= self.max_entries or self.nbytes + nbytes > self.max_bytes:
            self.evictions += size
            table.clear()
            self.nbytes = size = 0
        table.setdefault(key, value)  # hashes the key once
        if len(table) > size:
            self.nbytes += nbytes

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self.table),
            "bytes": self.nbytes,
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


#: Per-table budgets of :class:`BinaryCodec` as ``(entries, bytes)``.
#: Honest traffic needs a few dozen of each (the labels, timestamps and
#: old_vals entries live in the servers' windows, one prefix per channel,
#: a payload per recent broadcast); everything beyond that is a forger's
#: one-off values, which is what the budgets exist to shed.
MEMO_BUDGETS: dict[str, tuple[int, int]] = {
    "alon_enc": (1024, 64 << 10),
    "alon_dec": (1024, 64 << 10),
    "mwmr_enc": (1024, 64 << 10),
    "mwmr_dec": (1024, 64 << 10),
    "entry_enc": (1024, 1 << 20),
    "entry_dec": (1024, 1 << 20),
    "env_prefix": (1024, 64 << 10),
    "dec_prefix": (1024, 64 << 10),
    "dec_payloads": (1024, 1 << 20),
}


def _alon_ok(label: Any) -> bool:
    """True iff ``label`` is an AlonLabel the ALONP tag carries exactly.

    Exact-``int`` stings in ``[0, 2**32)`` and a frozenset of at most 255
    such ints. Two such labels that compare equal encode to identical
    bytes, which is what makes value-keyed encode memos sound: ``True ==
    1`` and ``1.0 == 1`` would otherwise let a lookalike hit a
    well-shaped label's entry and be laundered on the wire.
    """
    if type(label) is not _label_types()[0]:
        return False
    sting, ants = label.sting, label.antistings
    if type(sting) is not int or not 0 <= sting < 2**32:
        return False
    if type(ants) is not frozenset or len(ants) > 255:
        return False
    for a in ants:
        if type(a) is not int or not 0 <= a < 2**32:
            return False
    return True


def _ts_ok(ts: Any) -> bool:
    """True iff ``ts`` is a packable label, or an MwmrTimestamp of one
    with a ``str``/``None`` writer — the shapes the timestamp memos hold."""
    if type(ts) is _label_types()[1]:
        writer = ts.writer_id
        return (writer is None or type(writer) is str) and _alon_ok(ts.label)
    return _alon_ok(ts)


def _enc2_rawstr(out: bytearray, s: str) -> None:
    raw = s.encode("utf-8", "surrogatepass")
    out += _U32.pack(len(raw))
    out += raw


def _pack_alon(label: Any, codec: "BinaryCodec") -> Optional[bytes]:
    """The ALONP fast path, or ``None`` if the label is not well-shaped.

    Only exact-``int`` stings in ``[0, 2**32)`` and frozensets of at most
    255 such ints qualify — anything a scrambled replica bent out of that
    shape (negative stings, alien types, oversized sets) falls through to
    the JSON escape hatch so it survives byte-faithfully.
    """
    key = (label.sting, label.antistings)
    try:
        hit = codec._alon_enc.get(key)
    except TypeError:  # unhashable lookalike fields (e.g. list antistings)
        return None
    # Entries exist only for well-shaped labels; an equal probe is served
    # only if it is the stored label itself or well-shaped too.
    if hit is not None and hit[0] is label:
        return hit[1]
    if not _alon_ok(label):
        return None
    if hit is not None:
        return hit[1]
    out = bytearray()
    _enc2_alonp(out, label)
    packed = bytes(out)
    _intern(codec._alon_enc, codec._alon_dec, key, label, packed)
    return packed


#: ALONP node bodies by antisting count: sting, count, sorted antistings.
_ALONP = [struct.Struct(f">IB{n}I") for n in range(256)]


def _enc2_alonp(out: bytearray, label: Any) -> None:
    """Append the ALONP encoding of an ``_alon_ok`` label."""
    ants = sorted(label.antistings)
    out.append(_T_ALONP)
    out += _ALONP[len(ants)].pack(label.sting, len(ants), *ants)


def _intern(enc: BoundedMemo, dec: BoundedMemo, key: Any, value: Any, raw: bytes) -> None:
    """Record a freshly encoded value in an encode memo and its twin.

    Encode keys are the value's fields as a plain tuple: hashing that runs
    in C, where the frozen label dataclasses' generated ``__hash__`` is
    Python code, called twice per timestamp lookup. Seeding the decode
    side with the sender's own object means every in-process receiver of
    ``raw`` shares that object, so re-encoding it (a server echoing the
    timestamp it adopted) hits by identity.
    """
    enc.put(key, (value, raw), len(raw))
    dec.put(raw, value, len(raw))


def _enc2_escape(value: Any, out: bytearray, codec: "BinaryCodec") -> None:
    # encode_value raises WireError for out-of-vocabulary objects, so the
    # escape hatch widens *faithfulness*, never the vocabulary itself.
    blob = json.dumps(encode_value(value), separators=(",", ":")).encode("utf-8")
    codec.esc_encodes += 1
    out.append(_T_JSONESC)
    out += _U32.pack(len(blob))
    out += blob


def _enc2(value: Any, out: bytearray, codec: "BinaryCodec") -> None:
    # Exact-type dispatch: bool is not int, 1 is not 1.0, subclasses and
    # lookalikes drop to the escape hatch. Faithfulness includes types.
    if value is None:
        out.append(_T_NONE)
        return
    t = type(value)
    if t is bool:
        out.append(_T_TRUE if value else _T_FALSE)
        return
    if t is int:
        if _I64_MIN <= value <= _I64_MAX:
            out.append(_T_I64)
            out += _I64.pack(value)
        else:
            digits = str(value).encode("ascii")
            out.append(_T_BIGINT)
            out += _U32.pack(len(digits))
            out += digits
        return
    if t is float:
        out.append(_T_F64)
        out += _F64.pack(value)
        return
    if t is str:
        out.append(_T_STR)
        _enc2_rawstr(out, value)
        return
    AlonLabel, MwmrTimestamp = _label_types()
    if t is AlonLabel:
        _enc2_alon(value, out, codec)
        return
    if t is MwmrTimestamp:
        _enc2_mwmr(value, out, codec)
        return
    if t is tuple or t is list:
        out.append(_T_TUPLE if t is tuple else _T_LIST)
        out += _U32.pack(len(value))
        for v in value:
            _enc2(v, out, codec)
        return
    if t is frozenset:
        # Canonical order = sort by encoded bytes: identical sets encode
        # to identical frames regardless of iteration order.
        encoded = []
        for v in value:
            item = bytearray()
            _enc2(v, item, codec)
            encoded.append(bytes(item))
        encoded.sort()
        out.append(_T_FSET)
        out += _U32.pack(len(encoded))
        for item in encoded:
            out += item
        return
    idx = _MESSAGE_INDEX.get(t)
    if idx is not None:
        coders = _FIELD_CODERS[t]
        out.append(_T_MSG)
        out.append(idx)
        out.append(len(coders))
        for name, enc, _ in coders:
            enc(getattr(value, name), out, codec)
        return
    _enc2_escape(value, out, codec)


def _enc2_alon(label: Any, out: bytearray, codec: "BinaryCodec") -> bool:
    """Encode an AlonLabel; True iff it took the memoized ALONP path."""
    packed = _pack_alon(label, codec)
    if packed is None:
        _enc2_escape(label, out, codec)
        return False
    out += packed
    return True


def _enc2_mwmr(ts: Any, out: bytearray, codec: "BinaryCodec") -> bool:
    """Encode an MwmrTimestamp; True iff it has a memoized (``_ts_ok``) shape.

    A server's current ts rides in every reply it sends, and inside every
    old_vals entry after it, so it is memoized by value like labels. The
    label is packed directly, not through the label memo: in MWMR mode
    labels travel only inside timestamps, so a label that missed here
    would only ever be looked up again from here.
    """
    label = ts.label
    writer = ts.writer_id
    if type(label) is _label_types()[0]:
        key = (label.sting, label.antistings, writer)
        try:
            hit = codec._mwmr_enc.get(key)
        except TypeError:  # unhashable lookalike fields
            hit = key = None
        if hit is not None and (hit[0] is ts or _ts_ok(ts)):
            out += hit[1]
            return True
        if key is not None and (writer is None or type(writer) is str) and _alon_ok(label):
            head = bytearray((_T_MWMR,))
            _enc2_alonp(head, label)
            _enc2(writer, head, codec)
            raw = bytes(head)
            out += raw
            _intern(codec._mwmr_enc, codec._mwmr_dec, key, ts, raw)
            return True
    out.append(_T_MWMR)
    _enc2(label, out, codec)
    _enc2(writer, out, codec)
    return False


#: Node head of a 2-tuple: an old_vals ``(value, ts)`` entry.
_PAIR_HEAD = bytes((_T_TUPLE,)) + _U32.pack(2)


def _enc2_window(window: Any, out: bytearray, codec: "BinaryCodec") -> None:
    """Encode a ReadReply's old_vals, memoizing each ``(value, ts)`` entry.

    Consecutive replies repeat most of the window (a write shifts it by
    one entry), and every honest server's window holds the same entries,
    so a reply re-encodes only the entries it has not sent before. The
    memo holds entries of an exact ``str``/``int``/``None`` value and a
    ``_ts_ok`` timestamp: deeply immutable, and equal ones encode alike.
    Any other entry takes the plain recursive path.
    """
    if type(window) is not tuple:
        _enc2(window, out, codec)
        return
    out.append(_T_TUPLE)
    out += _U32.pack(len(window))
    AlonLabel, MwmrTimestamp = _label_types()
    memo = codec._entry_enc
    for entry in window:
        if type(entry) is not tuple or len(entry) != 2:
            _enc2(entry, out, codec)
            continue
        value, ts = entry
        if value is not None and type(value) is not str and type(value) is not int:
            _enc2(entry, out, codec)
            continue
        t = type(ts)
        if t is MwmrTimestamp and type(ts.label) is AlonLabel:
            label = ts.label
            key = (value, label.sting, label.antistings, ts.writer_id)
        elif t is AlonLabel:
            key = (value, ts.sting, ts.antistings)
        else:
            _enc2(entry, out, codec)
            continue
        try:
            hit = memo.get(key)
        except TypeError:  # unhashable lookalike inside the timestamp
            _enc2(entry, out, codec)
            continue
        if hit is not None:
            # Each server builds its own pair around the shared value and
            # ts objects, so the cheap proof is usually identity of parts;
            # the value's exact type is already checked above.
            stored = hit[0]
            if (stored[0] is value and stored[1] is ts) or _ts_ok(ts):
                out += hit[1]
                continue
        start = len(out)
        out += _PAIR_HEAD
        _enc2(value, out, codec)
        enc_ts = _enc2_mwmr if t is MwmrTimestamp else _enc2_alon
        if enc_ts(ts, out, codec):
            _intern(memo, codec._entry_dec, key, entry, bytes(out[start:]))


def _need(buf: bytes, pos: int, n: int) -> None:
    if pos + n > len(buf):
        raise WireError("truncated v2 frame body")


def _dec2_len(buf: bytes, pos: int) -> tuple[int, int]:
    _need(buf, pos, 4)
    return _U32.unpack_from(buf, pos)[0], pos + 4


def _dec2_count(buf: bytes, pos: int) -> tuple[int, int]:
    n, pos = _dec2_len(buf, pos)
    # Each element occupies at least one byte; an adversarial count can
    # never allocate more elements than there are bytes left.
    if n > len(buf) - pos:
        raise WireError(f"v2 container count {n} exceeds remaining bytes")
    return n, pos


def _dec2_rawstr(buf: bytes, pos: int) -> tuple[str, int]:
    n, pos = _dec2_len(buf, pos)
    _need(buf, pos, n)
    try:
        return bytes(buf[pos : pos + n]).decode("utf-8", "surrogatepass"), pos + n
    except UnicodeDecodeError as exc:
        raise WireError(f"undecodable v2 string: {exc}") from None


def _alonp_end(buf: bytes, pos: int, size: int) -> int:
    """End of the ALONP node at ``pos``, or -1 if there is none."""
    if pos + 6 > size or buf[pos] != _T_ALONP:
        return -1
    end = pos + 6 + 4 * buf[pos + 5]
    return end if end <= size else -1


def _ts_end(buf: bytes, pos: int, size: int) -> int:
    """End of the timestamp node at ``pos`` if it has a memoizable shape.

    The shapes are ALONP, and MWMR of ALONP plus a STR or NONE writer:
    exactly what decodes to a ``_ts_ok`` value. Returns -1 for anything
    else, including truncation — the caller then runs the full decoder,
    which raises the same WireError it always did.
    """
    if pos >= size or buf[pos] != _T_MWMR:
        return _alonp_end(buf, pos, size)
    p = _alonp_end(buf, pos + 1, size)
    if p < 0 or p >= size:
        return -1
    if buf[p] == _T_NONE:
        return p + 1
    if buf[p] != _T_STR or p + 5 > size:
        return -1
    end = p + 5 + _U32.unpack_from(buf, p + 1)[0]
    return end if end <= size else -1


def _entry_end(buf: bytes, pos: int, size: int) -> int:
    """End of the old_vals entry node at ``pos`` if it has a memoizable
    shape — a 2-TUPLE of a STR/I64/NONE value and a ``_ts_end`` timestamp
    — else -1."""
    if pos + 6 > size or buf[pos] != _T_TUPLE:
        return -1
    if _U32.unpack_from(buf, pos + 1)[0] != 2:
        return -1
    p = pos + 5
    tag = buf[p]
    if tag == _T_STR:
        if p + 5 > size:
            return -1
        p += 5 + _U32.unpack_from(buf, p + 1)[0]
    elif tag == _T_I64:
        p += 9
    elif tag == _T_NONE:
        p += 1
    else:
        return -1
    return _ts_end(buf, p, size)


def _dec2_window(buf: bytes, pos: int, codec: "BinaryCodec") -> tuple[Any, int]:
    """Decode a ReadReply's old_vals, memoizing each entry by its bytes.

    Only the lookups are new: every entry that misses, and any window
    that is not a well-formed TUPLE, goes through :func:`_dec2` exactly
    as before, so malformed input fails the same way.
    """
    size = len(buf)
    if pos + 5 > size or buf[pos] != _T_TUPLE:
        return _dec2(buf, pos, codec)
    n = _U32.unpack_from(buf, pos + 1)[0]
    if n > size - pos - 5:
        return _dec2(buf, pos, codec)  # raises the container-count error
    pos += 5
    memo = codec._entry_dec
    items = []
    for _ in range(n):
        end = _entry_end(buf, pos, size)
        if end < 0:
            v, pos = _dec2(buf, pos, codec)
        else:
            span = buf[pos:end]
            v = memo.get(span)
            if v is None:
                v, _ = _dec2(buf, pos, codec)
                memo.put(span, v, end - pos)
            pos = end
        items.append(v)
    return tuple(items), pos


def _dec2(buf: bytes, pos: int, codec: "BinaryCodec") -> tuple[Any, int]:
    # Bounds guards and the string path are inlined: this function runs
    # ~18 times per hot envelope and call overhead dominated the profile.
    size = len(buf)
    if pos >= size:
        raise WireError("truncated v2 frame body")
    tag = buf[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_I64:
        if pos + 8 > size:
            raise WireError("truncated v2 frame body")
        return _I64.unpack_from(buf, pos)[0], pos + 8
    if tag == _T_F64:
        if pos + 8 > size:
            raise WireError("truncated v2 frame body")
        return _F64.unpack_from(buf, pos)[0], pos + 8
    if tag == _T_STR:
        if pos + 4 > size:
            raise WireError("truncated v2 frame body")
        n = _U32.unpack_from(buf, pos)[0]
        pos += 4
        if pos + n > size:
            raise WireError("truncated v2 frame body")
        try:
            return bytes(buf[pos : pos + n]).decode("utf-8", "surrogatepass"), pos + n
        except UnicodeDecodeError as exc:
            raise WireError(f"undecodable v2 string: {exc}") from None
    if tag == _T_BIGINT:
        n, pos = _dec2_len(buf, pos)
        _need(buf, pos, n)
        raw = bytes(buf[pos : pos + n])
        try:
            return int(raw.decode("ascii")), pos + n
        except (UnicodeDecodeError, ValueError) as exc:
            raise WireError(f"malformed v2 bigint: {exc}") from None
    if tag == _T_TUPLE or tag == _T_LIST:
        n, pos = _dec2_count(buf, pos)
        items = []
        for _ in range(n):
            v, pos = _dec2(buf, pos, codec)
            items.append(v)
        if tag == _T_TUPLE:
            return tuple(items), pos
        codec._mutable_decodes += 1
        return items, pos
    if tag == _T_FSET:
        n, pos = _dec2_count(buf, pos)
        items = []
        for _ in range(n):
            v, pos = _dec2(buf, pos, codec)
            items.append(v)
        try:
            return frozenset(items), pos
        except TypeError as exc:  # adversarial bytes: unhashable elements
            raise WireError(f"unhashable v2 frozenset element: {exc}") from None
    if tag == _T_ALONP:
        start = pos - 1
        _need(buf, pos, 5)
        sting = _U32.unpack_from(buf, pos)[0]
        count = buf[pos + 4]
        pos += 5
        _need(buf, pos, 4 * count)
        end = pos + 4 * count
        span = buf[start:end]
        label = codec._alon_dec.get(span)
        if label is None:
            AlonLabel, _ = _label_types()
            label = AlonLabel(
                sting=sting,
                antistings=frozenset(
                    _U32.unpack_from(buf, pos + 4 * i)[0] for i in range(count)
                ),
            )
            codec._alon_dec.put(span, label, end - start)
        return label, end
    if tag == _T_MWMR:
        start = pos - 1
        end = _ts_end(buf, start, size)
        if end > 0:
            span = buf[start:end]
            ts = codec._mwmr_dec.get(span)
            if ts is not None:
                return ts, end
        _, MwmrTimestamp = _label_types()
        label, pos = _dec2(buf, pos, codec)
        writer, pos = _dec2(buf, pos, codec)
        ts = MwmrTimestamp(label=label, writer_id=writer)
        if end > 0:
            codec._mwmr_dec.put(span, ts, end - start)
        return ts, pos
    if tag == _T_MSG:
        _need(buf, pos, 2)
        idx = buf[pos]
        nvals = buf[pos + 1]
        pos += 2
        if idx >= len(_MESSAGE_ORDER):
            raise WireError(f"unknown message type index {idx}")
        cls = _MESSAGE_ORDER[idx]
        coders = _FIELD_CODERS[cls]
        if nvals < len(coders):
            raise WireError(
                f"message {cls.__name__} missing fields: carries {nvals} of "
                f"{len(coders)}"
            )
        vals = []
        for _, _, dec in coders:
            v, pos = dec(buf, pos, codec)
            vals.append(v)
        # Extra positional values from a newer minor revision are dropped,
        # mirroring v1's ignore-unknown-keys rule.
        for _ in range(nvals - len(coders)):
            _, pos = _dec2(buf, pos, codec)
        return cls(*vals), pos
    if tag == _T_JSONESC:
        n, pos = _dec2_len(buf, pos)
        _need(buf, pos, n)
        try:
            node = json.loads(bytes(buf[pos : pos + n]).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireError(f"unparseable v2 escape blob: {exc}") from None
        codec._mutable_decodes += 1  # lookalikes may hold lists
        return decode_value(node), pos + n
    raise WireError(f"unknown v2 wire tag 0x{tag:02x}")


#: Per message class, its fields as ``(name, encoder, decoder)``: ReadReply's
#: old_vals window goes through the entry memos, every other field through
#: the plain recursive codec.
_FIELD_CODERS: dict[type, tuple] = {
    cls: tuple(
        (f.name, _enc2_window, _dec2_window)
        if cls is protocol_messages.ReadReply and f.name == "old_vals"
        else (f.name, _enc2, _dec2)
        for f in fields
    )
    for cls, fields in _MESSAGE_FIELDS.items()
}


def _encode_body2(payload: bytes) -> bytes:
    frame = _MAGIC + b"\x02" + payload
    if len(frame) > MAX_FRAME:
        raise WireError(f"frame of {len(frame)} bytes exceeds MAX_FRAME")
    return _HEADER.pack(len(frame)) + frame


def _check_body2(frame: bytes) -> bytes:
    if type(frame) is not bytes:
        frame = bytes(frame)  # memo keys are slices of the body
    if len(frame) < 3 or frame[:2] != _MAGIC:
        raise WireError("bad frame magic")
    if frame[2] != WIRE_VERSION_V2:
        raise WireError(
            f"unsupported wire version {frame[2]} (this codec speaks "
            f"{WIRE_FORMAT_V2})"
        )
    return frame


def _guard_dec2(body: bytes, pos: int, codec: "BinaryCodec") -> tuple[Any, int]:
    """Run :func:`_dec2` with every parse failure folded into WireError."""
    try:
        return _dec2(body, pos, codec)
    except WireError:
        raise
    except (struct.error, ValueError, TypeError, OverflowError, IndexError) as exc:
        raise WireError(f"unparseable v2 frame body: {exc}") from None


class BinaryCodec:
    """The ``repro-wire/2`` codec: packed hot path, JSON escape hatch.

    Mirrors the module-level v1 functions method-for-method so transports
    can hold either codec behind one variable. ``esc_encodes`` counts how
    often the escape hatch fired — live tests use it to prove lookalike
    labels really took the adversarial path.
    """

    version = WIRE_VERSION_V2
    format = WIRE_FORMAT_V2

    pack_frame = staticmethod(pack_frame)

    def __init__(self) -> None:
        self.esc_encodes = 0
        # Value-keyed encode memos (labels, timestamps, old_vals entries)
        # and their exact-bytes decode twins; see MEMO_BUDGETS.
        memos = {name: BoundedMemo(*budget) for name, budget in MEMO_BUDGETS.items()}
        self.memos = memos
        self._alon_enc = memos["alon_enc"]
        self._alon_dec = memos["alon_dec"]
        self._mwmr_enc = memos["mwmr_enc"]
        self._mwmr_dec = memos["mwmr_dec"]
        self._entry_enc = memos["entry_enc"]
        self._entry_dec = memos["entry_dec"]
        # (src, dst) -> encoded envelope header, and its decode twin keyed
        # on the raw header bytes. The v2 encoding is length-prefixed,
        # hence prefix-free: the two length words locate the header's end
        # in O(1), and equal header bytes parse to equal strings.
        self._env_prefix = memos["env_prefix"]
        self._dec_prefix = memos["dec_prefix"]
        # Broadcast amortization: a protocol step sends one payload object
        # to many destinations (and, loopback, many hosts decode identical
        # payload bytes). The encoder keeps the last message object by
        # identity (a strong ref, so the identity stays valid); the decoder
        # shares decoded messages between receivers, but only those whose
        # decode built no list and took no escape hatch — frozen all the
        # way down. Sentinel, not None: a literal None payload must never
        # match an empty memo (the differential suite caught exactly that).
        self._enc_payload_obj: Any = _MEMO_UNSET
        self._enc_payload_bytes: bytes = b""
        self._dec_payloads = memos["dec_payloads"]
        self._mutable_decodes = 0

    def memo_stats(self) -> dict[str, dict[str, int]]:
        """Size, budget and hit/miss/eviction counters of every memo."""
        return {name: memo.stats() for name, memo in self.memos.items()}

    def encode_frame(self, value: Any) -> bytes:
        out = bytearray()
        _enc2(value, out, self)
        return _encode_body2(bytes(out))

    def decode_frame(self, frame: bytes) -> Any:
        body = _check_body2(frame)
        value, end = _guard_dec2(body, 3, self)
        if end != len(body):
            raise WireError(f"{len(body) - end} trailing bytes after v2 value")
        return value

    def encode_envelope(self, env: Envelope) -> bytes:
        out = bytearray()
        self.encode_payload_into(env.src, env.dst, env.send_time, env.payload, out)
        return bytes(out)

    def encode_envelope_into(self, env: Envelope, out: bytearray) -> None:
        """Append the full framed envelope to ``out``."""
        self.encode_payload_into(env.src, env.dst, env.send_time, env.payload, out)

    def encode_payload_into(
        self, src: str, dst: str, send_time: float, payload: Any, out: bytearray
    ) -> None:
        """Append a framed envelope built from its parts to ``out``.

        The hot-path variant: connections pass their coalescing buffer so
        the frame is built in place, with no intermediate bytes objects
        and no :class:`Envelope` allocation.
        """
        base = len(out)
        out += b"\x00\x00\x00\x00"  # length placeholder, patched below
        out += _MAGIC
        out.append(WIRE_VERSION_V2)
        key = (src, dst)
        prefix = self._env_prefix.get(key)
        if prefix is None:
            head = bytearray((_T_ENV,))
            _enc2_rawstr(head, src)
            _enc2_rawstr(head, dst)
            prefix = bytes(head)
            self._env_prefix.put(key, prefix, len(prefix))
        out += prefix
        out += _F64.pack(send_time)
        if payload is self._enc_payload_obj:
            out += self._enc_payload_bytes
        else:
            start = len(out)
            _enc2(payload, out, self)
            if type(payload) in _MESSAGE_INDEX:
                self._enc_payload_obj = payload  # strong ref: id stays valid
                self._enc_payload_bytes = bytes(out[start:])
        length = len(out) - base - 4
        if length > MAX_FRAME:
            raise WireError(f"frame of {length} bytes exceeds MAX_FRAME")
        _HEADER.pack_into(out, base, length)

    def decode_parts(self, frame: bytes) -> tuple[str, str, float, Any]:
        """Decode an envelope frame to ``(src, dst, send_time, payload)``.

        The hot-path variant of :meth:`decode_envelope`: same validation,
        no :class:`Envelope` allocation, and the (src, dst) header parse
        is memoized on its raw byte prefix.
        """
        body = _check_body2(frame)
        size = len(body)
        if size < 4 or body[3] != _T_ENV:
            raise WireError("expected an envelope frame")
        # Header = src STR body + dst STR body; its two length words give
        # its end, so one slice and one lookup cover any header.
        key = hit = None
        if size >= 8:
            pos = 12 + _U32.unpack_from(body, 4)[0]
            if pos <= size:
                pos += _U32.unpack_from(body, pos - 4)[0]
                if pos <= size:
                    key = body[4:pos]
                    hit = self._dec_prefix.get(key)
        if hit is not None:
            src, dst = hit
        else:
            try:
                src, pos = _dec2_rawstr(body, 4)
                dst, pos = _dec2_rawstr(body, pos)
            except WireError:
                raise
            except struct.error as exc:
                raise WireError(f"malformed v2 envelope: {exc}") from None
            # Both strings parsed, so both length words were in bounds
            # and ``key`` is this header.
            self._dec_prefix.put(key, (src, dst), pos - 4)
        _need(body, pos, 8)
        send_time = _F64.unpack_from(body, pos)[0]
        pos += 8
        span = body[pos:]
        payload = self._dec_payloads.get(span)
        if payload is None:
            mutable = self._mutable_decodes
            payload, end = _guard_dec2(body, pos, self)
            if end != size:
                raise WireError(f"{size - end} trailing bytes after v2 envelope")
            if type(payload) in _MESSAGE_INDEX and self._mutable_decodes == mutable:
                self._dec_payloads.put(span, payload, size - pos)
        return src, dst, send_time, payload

    def decode_envelope(self, frame: bytes) -> Envelope:
        src, dst, send_time, payload = self.decode_parts(frame)
        return Envelope(src=src, dst=dst, payload=payload, send_time=send_time)

    def hello_frame(self, pid: str) -> bytes:
        out = bytearray((_T_HELLO,))
        _enc2_rawstr(out, self.format)
        _enc2_rawstr(out, pid)
        return _encode_body2(bytes(out))

    def decode_hello(self, frame: bytes) -> str:
        body = _check_body2(frame)
        if len(body) < 4 or body[3] != _T_HELLO:
            raise WireError("expected a hello frame")
        fmt, pos = _dec2_rawstr(body, 4)
        if fmt != self.format:
            raise WireError(
                f"peer speaks {fmt!r}, this codec speaks {self.format!r}"
            )
        pid, end = _dec2_rawstr(body, pos)
        if end != len(body):
            raise WireError("trailing bytes after v2 hello")
        return pid


class JsonCodec:
    """The ``repro-wire/1`` functions wrapped as a codec object."""

    version = WIRE_VERSION
    format = WIRE_FORMAT
    #: Surface parity with BinaryCodec; v1 is all-JSON so this never moves.
    esc_encodes = 0

    encode_frame = staticmethod(encode_frame)
    decode_frame = staticmethod(decode_frame)
    encode_envelope = staticmethod(encode_envelope)
    decode_envelope = staticmethod(decode_envelope)
    hello_frame = staticmethod(hello_frame)
    decode_hello = staticmethod(decode_hello)
    pack_frame = staticmethod(pack_frame)

    def encode_envelope_into(self, env: Envelope, out: bytearray) -> None:
        out += encode_envelope(env)

    def encode_payload_into(
        self, src: str, dst: str, send_time: float, payload: Any, out: bytearray
    ) -> None:
        out += encode_envelope(
            Envelope(src=src, dst=dst, payload=payload, send_time=send_time)
        )

    def decode_parts(self, frame: bytes) -> tuple[str, str, float, Any]:
        env = decode_envelope(frame)
        return env.src, env.dst, env.send_time, env.payload


#: Singleton codec registry; transports resolve versions through this.
CODECS: dict[int, Any] = {WIRE_VERSION: JsonCodec(), WIRE_VERSION_V2: BinaryCodec()}


def get_codec(version: int = DEFAULT_WIRE) -> Any:
    """Resolve a wire version to its codec singleton."""
    try:
        return CODECS[version]
    except KeyError:
        raise WireError(f"unknown wire version {version!r}") from None

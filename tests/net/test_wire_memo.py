"""Budgets and transparency of the ``repro-wire/2`` codec memos.

A Byzantine replica may send a fresh label, timestamp and old_vals window
in every reply, and any peer may send envelope headers of any length.
These tests flood one codec with such traffic and pin the two promises of
:class:`~repro.net.wire.BoundedMemo`: every table stays within its entry
and byte budget (so a peer can pin at most the budget per process), and
the header parse does one lookup per frame whatever peers sent before.
Honest values must hit again once the flood stops.

Memos must also be invisible: a codec warmed by earlier traffic encodes
to the same bytes and decodes to the same values — type-exactly, with
the same WireError on malformed input — as a fresh one.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import messages as pm
from repro.labels.alon import AlonLabel
from repro.labels.ordering import MwmrTimestamp
from repro.net.wire import (
    MEMO_BUDGETS,
    BinaryCodec,
    BoundedMemo,
    WireError,
)
from tests.net.test_wire import (
    composites,
    first_frame,
    label_like,
    messages,
    old_vals,
    payloads,
    scalars,
)

FLOOD = 100_000

read_replies = st.builds(
    pm.ReadReply,
    server=st.text(max_size=8),
    value=scalars,
    ts=label_like,
    old_vals=old_vals,
    label=st.integers(),
)


def _label(i: int) -> AlonLabel:
    # Distinct for every i: the sting and the antistings both move.
    return AlonLabel(sting=i, antistings=frozenset(i + 1 + 97 * j for j in range(7)))


def _ts(i: int) -> MwmrTimestamp:
    return MwmrTimestamp(label=_label(i), writer_id=f"w{i % 16}")


def _send(codec: BinaryCodec, payload, src: str = "s5", dst: str = "c0") -> bytes:
    out = bytearray()
    codec.encode_payload_into(src, dst, 1.5, payload, out)
    return first_frame(bytes(out))


def _assert_within_budgets(codec: BinaryCodec) -> None:
    for name, stats in codec.memo_stats().items():
        assert (stats["max_entries"], stats["max_bytes"]) == MEMO_BUDGETS[name]
        assert stats["entries"] <= stats["max_entries"], name
        assert stats["bytes"] <= stats["max_bytes"], name


def _exact(a, b) -> bool:
    """Equality that also demands identical types all the way down."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_exact(x, y) for x, y in zip(a, b))
    if isinstance(a, frozenset):
        key = repr
        return len(a) == len(b) and all(
            _exact(x, y) for x, y in zip(sorted(a, key=key), sorted(b, key=key))
        )
    if dataclasses.is_dataclass(a):
        return all(
            _exact(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    if isinstance(a, float):
        return repr(a) == repr(b)
    return a == b


def _outcome(decode, frame):
    try:
        return ("ok", decode(frame))
    except WireError as exc:
        return ("error", str(exc))


def _same_outcome(warm, cold) -> bool:
    if warm[0] != cold[0]:
        return False
    return warm[1] == cold[1] if warm[0] == "error" else _exact(warm[1], cold[1])


# ----------------------------------------------------------------------
# the memo type
# ----------------------------------------------------------------------
class TestBoundedMemo:
    def test_full_table_clears_and_counts_evictions(self):
        memo = BoundedMemo(max_entries=3, max_bytes=100)
        for k in range(3):
            memo.put(k, str(k), 1)
        memo.put(3, "3", 1)
        assert memo.table == {3: "3"}
        assert memo.evictions == 3 and memo.nbytes == 1

    def test_byte_budget_clears_before_overflow(self):
        memo = BoundedMemo(max_entries=100, max_bytes=10)
        for key in "abc":
            memo.put(key, 1, 3)
        memo.put("d", 2, 6)
        assert list(memo.table) == ["d"] and memo.nbytes == 6
        assert memo.evictions == 3

    def test_entry_larger_than_the_budget_is_never_admitted(self):
        memo = BoundedMemo(max_entries=100, max_bytes=10)
        memo.put("a", 1, 4)
        memo.put("huge", 2, 11)
        assert list(memo.table) == ["a"] and memo.evictions == 0

    def test_first_entry_wins_and_is_charged_once(self):
        memo = BoundedMemo(max_entries=100, max_bytes=100)
        memo.put("a", 1, 4)
        memo.put("a", 2, 4)
        assert memo.table == {"a": 1} and memo.nbytes == 4

    def test_hits_and_misses(self):
        memo = BoundedMemo(max_entries=4, max_bytes=100)
        assert memo.get("a") is None
        memo.put("a", 1, 1)
        assert memo.get("a") == 1
        assert (memo.hits, memo.misses) == (1, 1)


# ----------------------------------------------------------------------
# floods
# ----------------------------------------------------------------------
class TestFloodBudgets:
    def test_forged_replies_stay_within_every_budget(self):
        # Every reply carries fresh labels (bare, as SWMR timestamps, and
        # inside MWMR timestamps), fresh old_vals entries and a fresh
        # payload: 100k of each kind.
        codec = BinaryCodec()
        for i in range(FLOOD):
            reply = pm.ReadReply(
                server="s5",
                value=f"forged-{i:06x}",
                ts=_ts(3 * i),
                old_vals=((f"f{i}", _label(3 * i + 1)), (i, _ts(3 * i + 2))),
                label=i,
            )
            decoded = codec.decode_parts(_send(codec, reply))[3]
            if i % 10_000 == 0:
                assert decoded == reply
                _assert_within_budgets(codec)
        _assert_within_budgets(codec)
        for name, stats in codec.memo_stats().items():
            if name not in ("env_prefix", "dec_prefix"):
                assert stats["evictions"] > 0, name

    def test_large_replies_are_bounded_by_bytes_not_entries(self):
        # 300 distinct ~100 KiB replies would pin ~30 MB under an
        # entry-only cap; the byte budgets keep each table near 1 MiB.
        codec = BinaryCodec()
        pad = "x" * (100 << 10)
        for i in range(300):
            reply = pm.ReadReply(
                server="s5",
                value=f"{i}{pad}",
                ts=_ts(i),
                old_vals=((f"{i}{pad}", _ts(i + 1)),),
                label=i,
            )
            codec.decode_parts(_send(codec, reply))
        _assert_within_budgets(codec)
        assert codec.memo_stats()["dec_payloads"]["bytes"] <= 1 << 20

    def test_header_parse_is_one_lookup_per_frame_after_any_lengths(self):
        codec = BinaryCodec()
        msg = pm.Flush(label=1)
        for length in range(1, 4097):
            frame = _send(codec, msg, src="s" * length, dst="d" * (4097 - length))
            assert codec.decode_parts(frame)[:2] == ("s" * length, "d" * (4097 - length))
        _assert_within_budgets(codec)
        honest = _send(codec, msg, src="s0", dst="c0")
        prefix = codec.memos["dec_prefix"]
        for _ in range(3):
            before = prefix.hits + prefix.misses
            assert codec.decode_parts(honest)[:2] == ("s0", "c0")
            assert prefix.hits + prefix.misses == before + 1
        assert prefix.hits >= 2
        # No table keeps a per-length index that later frames would scan.
        assert not any(
            isinstance(v, list) and len(v) > 16 for v in vars(codec).values()
        )

    def test_honest_values_hit_again_after_a_flood(self):
        # A full table is cleared, not frozen: honest values the flood
        # pushed out are admitted again on their next miss, then hit.
        codec = BinaryCodec()
        honest_ts = MwmrTimestamp(
            label=AlonLabel(sting=3, antistings=frozenset({1, 2})), writer_id="c0"
        )
        honest = [
            pm.ReadReply(
                server="s1",
                value="v1",
                ts=honest_ts,
                old_vals=(("v1", honest_ts), ("v0", honest_ts)),
                label=0,
            ),
            pm.TsReply(ts=AlonLabel(sting=5, antistings=frozenset({3, 4}))),
        ]

        def exchange():
            for msg in honest:
                assert codec.decode_parts(_send(codec, msg))[3] == msg

        exchange()
        for i in range(5_000):
            forged = pm.ReadReply(
                server="s5",
                value=f"f{i}",
                ts=_ts(i),
                old_vals=((f"g{i}", _ts(i + 1)), (f"h{i}", _label(i))),
                label=i,
            )
            codec.decode_parts(_send(codec, forged))
        before = codec.memo_stats()
        exchange()
        exchange()
        after = codec.memo_stats()
        for name in ("alon_enc", "alon_dec", "mwmr_enc", "mwmr_dec", "entry_enc", "entry_dec"):
            assert before[name]["evictions"] > 0, name
            assert after[name]["hits"] > before[name]["hits"], name


# ----------------------------------------------------------------------
# warm memos are invisible
# ----------------------------------------------------------------------
#: One codec shared by every example below, so each decode runs against
#: memos warmed by all earlier examples.
_WARM = BinaryCodec()


class TestWarmEqualsCold:
    @given(composites)
    @settings(max_examples=300)
    def test_frames(self, value):
        cold = BinaryCodec()
        raw = cold.encode_frame(value)
        assert _WARM.encode_frame(value) == raw
        frame = first_frame(raw)
        assert _exact(_WARM.decode_frame(frame), cold.decode_frame(frame))

    @given(
        src=st.text(max_size=8),
        dst=st.text(max_size=8),
        payload=st.one_of(messages, payloads),
    )
    @settings(max_examples=300)
    def test_envelopes(self, src, dst, payload):
        cold = BinaryCodec()
        frame = _send(cold, payload, src, dst)
        assert _send(_WARM, payload, src, dst) == frame
        for _ in range(2):  # the second decode is served by the memos
            assert _exact(_WARM.decode_parts(frame), cold.decode_parts(frame))

    @given(st.data())
    @settings(max_examples=60)
    def test_truncations_and_byte_flips_fail_alike(self, data):
        reply = data.draw(read_replies)
        frame = _send(_WARM, reply)
        _WARM.decode_parts(frame)
        cuts = [frame[:k] for k in range(len(frame))]
        at = data.draw(st.integers(0, len(frame) - 1))
        flip = data.draw(st.integers(1, 255))
        flipped = frame[:at] + bytes([frame[at] ^ flip]) + frame[at + 1 :]
        for near_miss in cuts + [flipped]:
            cold = BinaryCodec()
            assert _same_outcome(
                _outcome(_WARM.decode_parts, near_miss),
                _outcome(cold.decode_parts, near_miss),
            )


class TestNearMisses:
    def _warm(self) -> BinaryCodec:
        codec = BinaryCodec()
        ts = MwmrTimestamp(label=AlonLabel(1, frozenset({2, 3})), writer_id="c0")
        reply = pm.ReadReply("s0", 1, ts, ((1, ts), ("a", ts)), 0)
        codec.decode_parts(_send(codec, reply))
        return codec

    def test_truncated_alonp_count_raises_as_before(self):
        codec = self._warm()
        frame = _send(codec, pm.TsReply(ts=AlonLabel(1, frozenset({2, 3}))))
        alonp = frame.index(bytes([0x0A]))
        for cut in range(alonp + 1, len(frame)):
            with pytest.raises(WireError, match="truncated v2 frame body"):
                codec.decode_parts(frame[:cut])

    def test_non_str_writer_bypasses_the_memo_type_exactly(self):
        codec = self._warm()
        ts = MwmrTimestamp(label=AlonLabel(1, frozenset({2, 3})), writer_id=7)
        got = codec.decode_parts(_send(codec, pm.ReadReply("s0", 1, ts, ((1, ts),), 0)))[3]
        assert type(got.ts.writer_id) is int
        assert type(got.old_vals[0][1].writer_id) is int

    @pytest.mark.parametrize(
        "lookalike",
        [
            AlonLabel(sting=True, antistings=frozenset({2, 3})),
            AlonLabel(sting=1, antistings=frozenset({2.0, 3})),
            MwmrTimestamp(label=AlonLabel(1, frozenset({2, 3})), writer_id=type("S", (str,), {})("c0")),
            MwmrTimestamp(label=AlonLabel(1.0, frozenset({2, 3})), writer_id="c0"),
        ],
    )
    def test_equal_lookalikes_are_not_laundered_by_warm_memos(self, lookalike):
        # Each lookalike == a value the warm codec has memoized; it must
        # still take its own path and decode to its own types.
        codec = self._warm()
        cold = BinaryCodec()
        raw = codec.encode_frame(lookalike)
        assert raw == cold.encode_frame(lookalike)
        assert _exact(codec.decode_frame(first_frame(raw)), cold.decode_frame(first_frame(raw)))

    @pytest.mark.parametrize("value", [True, 1.0, -0.0])
    def test_equal_lookalike_entries_keep_their_types(self, value):
        codec = self._warm()
        ts = MwmrTimestamp(label=AlonLabel(1, frozenset({2, 3})), writer_id="c0")
        reply = pm.ReadReply("s0", 1, ts, ((value, ts),), 0)
        frame = _send(codec, reply)
        assert frame == _send(BinaryCodec(), reply)
        got = codec.decode_parts(frame)[3].old_vals[0][0]
        assert type(got) is type(value) and repr(got) == repr(value)

    def test_tuple_subclass_entry_with_the_same_parts_is_not_served(self):
        # Equal to a memoized entry and built from the very same objects,
        # but not a plain tuple: it must take the escape hatch, as cold.
        from collections import namedtuple

        Pair = namedtuple("Pair", "value ts")
        codec = BinaryCodec()
        ts = MwmrTimestamp(label=AlonLabel(1, frozenset({2, 3})), writer_id="c0")
        plain = ("v", ts)
        codec.decode_parts(_send(codec, pm.ReadReply("s0", "v", ts, (plain,), 0)))
        reply = pm.ReadReply("s0", "v", ts, (Pair(*plain),), 1)
        frame = _send(codec, reply)
        assert frame == _send(BinaryCodec(), reply)
        assert codec.esc_encodes == 1

    def test_mutable_payloads_are_never_shared_between_receivers(self):
        codec = BinaryCodec()
        frame = _send(codec, pm.WriteRequest(value=[1, 2], ts=None))
        first = codec.decode_parts(frame)[3]
        second = codec.decode_parts(frame)[3]
        assert first == second and first.value is not second.value
        frozen = _send(codec, pm.WriteRequest(value="v", ts=None))
        assert codec.decode_parts(frozen)[3] is codec.decode_parts(frozen)[3]

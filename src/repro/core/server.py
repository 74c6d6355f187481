"""The register server automaton (server side of Figures 1-3).

State (Section IV-B):

* ``value`` / ``ts`` — the current register copy and its timestamp;
* ``old_vals`` — sliding window of the last ``window`` written pairs,
  most recent first;
* ``running_read`` — readers currently reading (reader pid -> read label),
  to whom every applied write is forwarded.

Handlers:

* ``GET_TS``  -> reply with the current timestamp;
* ``WRITE``   -> ACK when the new timestamp follows the local one under
  ``≺``, NACK otherwise; *in either case* adopt the pair, shift the old
  pair into the window, and forward a fresh ``ReadReply`` to every running
  reader (the unconditional adoption is what Lemma 2's case analysis
  counts on);
* ``READ``    -> register the reader and reply with value, timestamp and
  the history window;
* ``COMPLETE_READ`` -> deregister the reader;
* ``FLUSH``   -> reflect a ``FLUSH_ACK`` (the FIFO flush of Figure 3).

Every handler validates its input: garbage from corrupted channels or
Byzantine peers is dropped, never raises. Transient corruption of the
server itself is modelled by :meth:`corrupt_state`, which randomizes every
variable above within its type domain.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.core.config import SystemConfig
from repro.core.messages import (
    CompleteRead,
    Flush,
    FlushAck,
    GetTs,
    ReadReply,
    ReadRequest,
    StateReply,
    StateRequest,
    TsReply,
    WriteAck,
    WriteNack,
    WriteRequest,
)
from repro.labels.base import LabelingScheme

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.environment import SimEnvironment

from repro.sim.process import Process

#: The register's conceptual initial value (never written by a client).
INITIAL_VALUE = None


def adopt_snapshot(
    replies: dict[str, tuple[Any, Any]],
    scheme: LabelingScheme,
    f: int,
) -> Optional[tuple[Any, Any]]:
    """The joiner's adoption rule over collected ``(value, ts)`` snapshots.

    A pair needs at least ``f + 1`` reporters to rule out Byzantine
    fabrication (up to ``f`` peers may lie in concert); among the
    witnessed pairs, the ≺-maximal one wins. Returns ``None`` when no
    pair reaches the witness threshold — the joiner then keeps whatever
    state it booted with, which the stabilization story already covers.

    Shared by the simulator's peer-to-peer handshake
    (:meth:`RegisterServer._finalize_join`) and the live server group's
    mediated transfer (:meth:`~repro.net.group.ServerGroup.respawn`), which
    both the live cluster and every fabric shard host.
    """
    votes: dict[tuple[Any, Any], int] = {}
    for peer in sorted(replies):
        pair = replies[peer]
        try:
            votes[pair] = votes.get(pair, 0) + 1
        except TypeError:
            # Unhashable fabricated value: cannot be witnessed by count.
            continue
    winner: Optional[tuple[Any, Any]] = None
    for pair, count in votes.items():
        if count < f + 1:
            continue
        if winner is None or scheme.precedes(winner[1], pair[1]):
            winner = pair
    return winner


class RegisterServer(Process):
    """A correct server replica."""

    def __init__(
        self,
        pid: str,
        env: "SimEnvironment",
        config: SystemConfig,
        scheme: LabelingScheme,
    ) -> None:
        super().__init__(pid, env)
        self.config = config
        self.scheme = scheme
        self.value: Any = INITIAL_VALUE
        self.ts: Any = scheme.initial_label()
        self.old_vals: list[tuple[Any, Any]] = []
        self.running_read: dict[str, int] = {}
        # Churn state-transfer handshake (populated by begin_join).
        self._join_nonce: Any = None
        self._join_replies: dict[str, tuple[Any, Any]] = {}
        self._join_quorum: Any = 0

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def on_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, GetTs):
            self.on_get_ts(src)
        elif isinstance(payload, WriteRequest):
            self.on_write(src, payload)
        elif isinstance(payload, ReadRequest):
            self.on_read(src, payload)
        elif isinstance(payload, CompleteRead):
            self.on_complete_read(src, payload)
        elif isinstance(payload, Flush):
            self.on_flush(src, payload)
        elif isinstance(payload, StateRequest):
            self.on_state_request(src, payload)
        elif isinstance(payload, StateReply):
            self.on_state_reply(src, payload)
        # anything else (garbage, stale foreign types) is silently dropped

    # ------------------------------------------------------------------
    # write protocol
    # ------------------------------------------------------------------
    def on_get_ts(self, src: str) -> None:
        self.send(src, TsReply(ts=self.ts))

    def on_write(self, src: str, msg: WriteRequest) -> None:
        if not self.scheme.is_label(msg.ts):
            # A structurally invalid timestamp cannot be adopted — storing
            # it would make this correct server indistinguishable from a
            # corrupted one. Refuse (NACK carries the offending ts back).
            self.send(src, WriteNack(ts=msg.ts))
            return
        if not self.scheme.precedes(self.ts, msg.ts):
            # Conditional adoption. The paper's Lemma 2 narration has
            # NACKing servers adopt anyway — under which any stale WRITE
            # relic (corrupted channel contents, or a replayed legitimate
            # pair: writers are not authenticated) rolls the replica
            # *backwards* to an overwritten value, and a few replayed
            # copies let a quorum read return it after a newer write
            # completed (reproduced in tests/core/test_design_deviations).
            # Refusing non-following timestamps makes relics inert and
            # keeps every replica ≺-monotone; the writer side compensates
            # for refused racing writes with dominating-timestamp retries.
            self.send(src, WriteNack(ts=msg.ts))
            return
        self.send(src, WriteAck(ts=msg.ts))
        self._shift_in(self.value, self.ts)
        self.value = msg.value
        self.ts = msg.ts
        # Forward the fresh pair to every running reader (Figure 1b).
        for reader, label in list(self.running_read.items()):
            self.send(reader, self._reply(label))

    def _shift_in(self, value: Any, ts: Any) -> None:
        self.old_vals.insert(0, (value, ts))
        del self.old_vals[self.config.old_vals_window:]

    # ------------------------------------------------------------------
    # read protocol
    # ------------------------------------------------------------------
    def on_read(self, src: str, msg: ReadRequest) -> None:
        if not isinstance(msg.label, int):
            return
        # One running read per reader: a fresh READ supersedes the old one.
        self.running_read[src] = msg.label
        self.send(src, self._reply(msg.label))

    def on_complete_read(self, src: str, msg: CompleteRead) -> None:
        if self.running_read.get(src) == msg.label:
            del self.running_read[src]

    def _reply(self, label: int) -> ReadReply:
        return ReadReply(
            server=self.pid,
            value=self.value,
            ts=self.ts,
            old_vals=tuple(self.old_vals),
            label=label,
        )

    # ------------------------------------------------------------------
    # FLUSH handshake
    # ------------------------------------------------------------------
    def on_flush(self, src: str, msg: Flush) -> None:
        if not isinstance(msg.label, int):
            return
        self.send(src, FlushAck(label=msg.label, server=self.pid))

    # ------------------------------------------------------------------
    # churn state transfer (membership extension, not in the paper)
    # ------------------------------------------------------------------
    def begin_join(self, peers: Sequence[str]) -> None:
        """Start the joiner's state-transfer handshake after a rejoin.

        The joiner keeps serving the protocol while it collects peer
        snapshots — there is deliberately *no* "joining" gate on
        :meth:`on_message`. A gate active while ``_join_nonce`` is set
        would be a state-triggered crash-stop: transient corruption of
        the handshake fields could then permanently silence a correct
        server, exceeding the ``f`` bound. Ungated, corrupted handshake
        state is harmless — the worst a forged flood of replies can do
        is trigger an adoption, and adoption is guarded (see
        :meth:`_finalize_join`).
        """
        self._join_nonce = self.restarts
        self._join_replies = {}
        # Enough replies that f liars cannot stall the handshake, yet at
        # least f+1 so some pair *can* reach the witness threshold.
        self._join_quorum = max(
            self.config.f + 1, len(peers) - self.config.f
        )
        self.broadcast(peers, StateRequest(nonce=self._join_nonce))

    def on_state_request(self, src: str, msg: StateRequest) -> None:
        if not isinstance(msg.nonce, int):
            return
        self.send(
            src,
            StateReply(
                nonce=msg.nonce, server=self.pid, value=self.value, ts=self.ts
            ),
        )

    def on_state_reply(self, src: str, msg: StateReply) -> None:
        if self._join_nonce is None or msg.nonce != self._join_nonce:
            return  # no handshake running, or a stale/forged one
        if not self.scheme.is_label(msg.ts):
            return  # structurally invalid snapshot: not adoptable
        self._join_replies[src] = (msg.value, msg.ts)
        quorum = self._join_quorum
        if not isinstance(quorum, int) or quorum < 1:
            quorum = self.config.f + 1  # corrupted threshold: re-derive
        if len(self._join_replies) < quorum:
            return
        self._finalize_join()

    def _finalize_join(self) -> None:
        """Adopt the best witnessed peer snapshot; end the handshake.

        Adoption obeys the same ≺-monotonicity rule as WRITE: the winner
        is taken only if it strictly follows the current timestamp. A
        write adopted *during* the handshake must not be rolled back by
        the snapshot — otherwise a single rejoined server plus ``f``
        stale-but-honest reporters could resurrect an overwritten value
        (the replay-rollback hazard of tests/core/test_design_deviations).
        When the current state is corrupted garbage the guard sometimes
        refuses a genuine snapshot too; that leaves the joiner exactly as
        corrupted as a corruption-wave victim, which stabilization
        already absorbs.
        """
        winner = adopt_snapshot(self._join_replies, self.scheme, self.config.f)
        self._join_nonce = None
        self._join_replies = {}
        self._join_quorum = 0
        if winner is None:
            return
        if not self.scheme.precedes(self.ts, winner[1]):
            return
        self.value, self.ts = winner
        # A fresh boot has no verified history window; replies built from
        # a scrambled window would vouch for values no write produced.
        self.old_vals = []

    # ------------------------------------------------------------------
    # transient faults
    # ------------------------------------------------------------------
    def corrupt_state(self, rng: random.Random) -> None:
        """Arbitrary (type-respecting) corruption of every local variable."""
        self.value = f"corrupt-{rng.getrandbits(24):06x}"
        self.ts = self.scheme.random_label(rng)
        window = rng.randrange(self.config.old_vals_window + 1)
        self.old_vals = [
            (
                f"corrupt-{rng.getrandbits(24):06x}",
                self.scheme.random_label(rng),
            )
            for _ in range(window)
        ]
        self.running_read = {}
        if rng.random() < 0.5:
            # Sometimes the corrupted bookkeeping names phantom readers.
            for _ in range(rng.randrange(3)):
                self.running_read[f"ghost{rng.randrange(8)}"] = rng.randrange(
                    self.config.read_label_count
                )
        # The churn handshake fields corrupt like any other state: the
        # server may wake believing it is mid-transfer, with arbitrary
        # collected snapshots and a nonsense threshold. The handlers
        # tolerate every shape (no gate to wedge, adoption is guarded).
        self._join_nonce = rng.randrange(8) if rng.random() < 0.3 else None
        self._join_quorum = rng.randrange(self.config.n + 2)
        self._join_replies = {}
        for _ in range(rng.randrange(3)):
            self._join_replies[f"ghost{rng.randrange(8)}"] = (
                f"corrupt-{rng.getrandbits(24):06x}",
                self.scheme.random_label(rng),
            )

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def snapshot(self) -> tuple[Any, Any]:
        """Current (value, ts) pair — used by the write-propagation census."""
        return (self.value, self.ts)

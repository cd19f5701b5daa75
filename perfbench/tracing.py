"""Span tracing installed from outside the program: wrappers around public calls.

``Tracer.wrap`` replaces a function or method with one that records a span
(id, parent id, name, start, end, message tag, bytes, outcome) and calls the
original.  Parents come from a per-thread stack, so a span's children are the
wrapped calls it made.  Spans stay in per-thread arrays until the run ends; the
``summarise_*`` functions turn them into the per-layer metrics.  A layer's
self time is its span durations minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import itertools
import socket
import statistics
import threading
import time
from array import array
from collections import defaultdict

from relay import TAG, percentile
from relaykit import channel, gbn, server, transport, wire
from relaykit.wire import MsgKind

_ADDRESSED = (MsgKind.DIRECT, MsgKind.DELIVER)
_ECHOED = (MsgKind.ECHO, MsgKind.ECHO_REPLY)


def frame_tag(frame):
    """The (stream, seq) tag the load generator put at the front of a message."""
    payload = frame.payload
    if frame.kind in _ADDRESSED and payload:
        offset = 1 + payload[0]
    elif frame.kind in _ECHOED:
        offset = 0
    else:
        return None
    if len(payload) < offset + TAG.size:
        return None
    return TAG.unpack_from(payload, offset)


def segment_tag(seg):
    return (0, seg.seq)


class _Columns:
    """One thread's spans, one array per field, so a span costs ~50 bytes."""

    FIELDS = ("sid", "parent", "name", "start", "end", "tag", "size", "outcome")

    def __init__(self):
        for field in self.FIELDS:
            setattr(self, field, array("q"))


def _tag_int(tag) -> int:
    """Pack a (stream, seq) tag into one int; -1 when the span has none."""
    return -1 if tag is None else (tag[0] << 32) | tag[1]


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_Columns] = []
        self._names: dict[str, int] = {}
        self._outcomes: dict[str, int] = {"ok": 0}
        self._offered_at = {}  # id(frame) -> ns when DeliveryHandle.offer queued it
        self.mailbox_waits = []  # (tag, ns from offer to the drain that removed it)
        self.mailbox_depth_max = 0

    def _columns(self) -> _Columns:
        cols = getattr(self._local, "cols", None)
        if cols is None:
            cols = self._local.cols = _Columns()
            self._local.stack = []
            with self._lock:
                self._threads.append(cols)
        return cols

    def wrap(self, owners, attr, name, tag=None, size=None, done=None):
        """Wrap ``attr`` on every object in ``owners`` with one span-recording function.

        ``tag(args, result)`` and ``size(args, result)`` label the span;
        ``done(args, result, start, end)`` runs after it closes.
        """
        fn = getattr(owners[0], attr)
        name_id = self._names.setdefault(name, len(self._names))
        ids, local, outcomes, clock = self._ids, self._local, self._outcomes, time.perf_counter_ns
        columns, lock = self._columns, self._lock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cols = columns()
            stack = local.stack
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = None
            outcome = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                with lock:
                    outcome = outcomes.setdefault(type(exc).__name__, len(outcomes))
                raise
            finally:
                end = clock()
                stack.pop()
                ok = outcome == 0
                cols.sid.append(sid)
                cols.parent.append(parent)
                cols.name.append(name_id)
                cols.start.append(start)
                cols.end.append(end)
                cols.tag.append(_tag_int(tag(args, result)) if tag and ok else -1)
                cols.size.append(size(args, result) if size and ok else 0)
                cols.outcome.append(outcome)
                if done is not None and ok:
                    done(args, result, start, end)

        for owner in owners:
            setattr(owner, attr, traced)

    def spans(self):
        """Every span as (sid, parent, name, start_ns, end_ns, tag, size, outcome)."""
        names = {v: k for k, v in self._names.items()}
        outcomes = {v: k for k, v in self._outcomes.items()}
        for cols in self._threads:
            for sid, parent, name, start, end, tag, size, outcome in zip(
                    *(getattr(cols, f) for f in _Columns.FIELDS)):
                tag = None if tag < 0 else (tag >> 32, tag & 0xFFFFFFFF)
                yield sid, parent, names[name], start, end, tag, size, outcomes[outcome]

    # --- relay process ---------------------------------------------------

    def install_relay(self) -> None:
        """Wrap the wire, transport and server calls a relay worker makes."""
        self.wrap([wire, transport], "encode_frame", "wire.encode",
                  tag=lambda a, r: frame_tag(a[0]), size=lambda a, r: len(a[0].payload))
        self.wrap([wire, transport], "decode_frame", "wire.decode",
                  tag=lambda a, r: frame_tag(r[0]), size=lambda a, r: len(r[0].payload))
        self.wrap([wire], "byte_sum", "wire.checksum")
        self.wrap([transport.StreamEndpoint], "send_frame", "transport.send",
                  tag=lambda a, r: frame_tag(a[1]))
        self.wrap([transport.StreamEndpoint], "recv_frame", "transport.recv",
                  tag=lambda a, r: frame_tag(r))
        self.wrap([socket.socket], "recv", "transport.wait")
        self.wrap([server.Registry], "route_direct", "server.route",
                  tag=lambda a, r: TAG.unpack_from(a[3]) if len(a[3]) >= TAG.size else None)
        self.wrap([server.Registry], "register", "server.register")
        self.wrap([server.DeliveryHandle], "offer", "server.offer",
                  tag=lambda a, r: frame_tag(a[1]), done=self._offered)
        self.wrap([server.DeliveryHandle], "drain", "server.drain",
                  size=lambda a, r: len(r), done=self._drained)

    def _offered(self, args, queued, start, end):
        handle, frame = args[0], args[1]
        if not queued:
            return
        depth = handle.queue.qsize()
        with self._lock:
            self._offered_at[id(frame)] = end
            self.mailbox_depth_max = max(self.mailbox_depth_max, depth)

    def _drained(self, args, frames, start, end):
        with self._lock:
            for frame in frames:
                offered = self._offered_at.pop(id(frame), None)
                if offered is not None:
                    self.mailbox_waits.append((frame_tag(frame), end - offered))

    # --- go-back-N simulation --------------------------------------------

    def install_arq(self) -> None:
        """Wrap the channel and gbn calls ``run_transfer`` makes."""
        seq_of = lambda data: int.from_bytes(data[1:5], "big")
        self.wrap([channel.LossyChannel], "push", "channel.push",
                  tag=lambda a, r: (0, seq_of(a[1])) if len(a[1]) >= 5 else None)
        self.wrap([channel.LossyChannel], "schedule", "channel.schedule")
        self.wrap([channel.LossyChannel], "pop_ready", "channel.pop",
                  size=lambda a, r: len(r))
        self.wrap([gbn], "encode_segment", "gbn.codec", tag=lambda a, r: segment_tag(a[0]))
        self.wrap([gbn], "decode_segment", "gbn.codec", tag=lambda a, r: segment_tag(r))
        for attr in ("send", "on_ack", "on_tick"):
            self.wrap([gbn.GbnSender], attr, "gbn.sender")
        self.wrap([gbn.GbnReceiver], "on_segment", "gbn.receiver",
                  tag=lambda a, r: segment_tag(a[1]))
        self.wrap([gbn], "run_transfer", "gbn.transfer")

    # --- summaries -------------------------------------------------------

    def _by_name(self, keep):
        """name -> (durations ns, self time ns, spans); whole spans only for ``keep`` names."""
        child_ns = defaultdict(int)
        for sid, parent, _, start, end, *_ in self.spans():
            if parent:
                child_ns[parent] += end - start
        durations, selfs, spans = defaultdict(list), defaultdict(int), defaultdict(list)
        for span in self.spans():
            sid, _, name, start, end = span[:5]
            durations[name].append(end - start)
            selfs[name] += end - start - child_ns[sid]
            if name in keep:
                spans[name].append(span)
        return durations, selfs, spans

    def summarise_relay(self) -> dict:
        durations, selfs, spans = self._by_name(
            {"wire.encode", "wire.decode", "transport.recv", "server.drain", "server.route"})
        med_us = lambda name: statistics.median(durations[name]) / 1e3 if durations[name] else 0.0
        total_ms = lambda *names: sum(selfs[n] for n in names) / 1e6
        recv = spans["transport.recv"]
        drains = spans["server.drain"]
        waits = defaultdict(list)  # traffic class (top byte of the stream id) -> ms
        for tag, ns in self.mailbox_waits:
            waits[tag[0] >> 24 if tag else -1].append(ns / 1e6)
        mailbox = {str(cls): {"p50": percentile(ms, 50), "p99": percentile(ms, 99), "n": len(ms)}
                   for cls, ms in waits.items()}
        return {
            "wire.encode_us": med_us("wire.encode"),
            "wire.decode_us": med_us("wire.decode"),
            "wire.checksum_us": med_us("wire.checksum"),
            "wire.frames": len(durations["wire.encode"]) + len(durations["wire.decode"]),
            "wire.payload_bytes": sum(s[6] for s in spans["wire.encode"] + spans["wire.decode"]),
            "wire.self_ms": total_ms("wire.encode", "wire.decode", "wire.checksum"),
            "transport.send_us": med_us("transport.send"),
            "transport.recv_calls": len(recv),
            "transport.recv_useful_ratio":
                sum(s[7] == "ok" for s in recv) / len(recv) if recv else 0.0,
            "transport.recv_wait_ms": sum(durations["transport.wait"]) / 1e6,
            "transport.self_ms": total_ms("transport.send", "transport.recv"),
            "server.route_us": med_us("server.route"),
            "server.mailbox_depth_max": self.mailbox_depth_max,
            "server.drain_useful_ratio":
                sum(s[6] > 0 for s in drains) / len(drains) if drains else 0.0,
            "server.busy": sum(s[7] == "RecipientBusy" for s in spans["server.route"]),
            "server.self_ms": total_ms("server.route", "server.register",
                                       "server.offer", "server.drain"),
            "mailbox_wait_ms": mailbox,
            "spans": sum(len(c.sid) for c in self._threads),
        }

    def summarise_arq(self, transfers: int) -> dict:
        """Per-layer metrics for ``transfers`` identical traced ``run_transfer`` calls."""
        durations, selfs, spans = self._by_name({"channel.push", "channel.schedule"})
        med_us = lambda name: statistics.median(durations[name]) / 1e3 if durations[name] else 0.0
        per_ms = lambda *names: sum(selfs[n] for n in names) / 1e6 / transfers
        scheduled = {s[1] for s in spans["channel.schedule"]}
        pushes = spans["channel.push"]
        return {
            "channel.push_us": med_us("channel.push"),
            "channel.pop_us": med_us("channel.pop"),
            "channel.pushes": len(pushes) / transfers,
            "channel.dropped": sum(s[0] not in scheduled for s in pushes) / transfers,
            "channel.self_ms": per_ms("channel.push", "channel.schedule", "channel.pop"),
            "gbn.codec_us": med_us("gbn.codec"),
            "gbn.sender_us": med_us("gbn.sender"),
            "gbn.receiver_us": med_us("gbn.receiver"),
            "gbn.self_ms": per_ms("gbn.transfer", "gbn.codec", "gbn.sender", "gbn.receiver"),
            "spans": sum(len(c.sid) for c in self._threads),
        }

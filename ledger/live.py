"""One live run in a fresh interpreter: BMP over Kafka into a hub with 1025 subscribers.

``python3 -m ledger.live MODE WORKDIR LAUNCH OUT`` reads ``plan.json``,
``frames.bin`` and ``expect.json`` from ``WORKDIR`` (written by
:mod:`ledger.run`) and writes one JSON result to ``OUT``.  ``MODE`` is
``untraced``, ``traced`` or ``probe`` (a run that ends once the backlog has
drained).

The system under test is the default gateway stack: an in-memory
``MessageBroker``, ``BGPStream(live=LiveDataInterface(...))`` polling at
the gateway CLI's default interval, a ``StreamHub`` with 1024 in-process
subscribers, and a ``GatewayServer`` with one SSE socket client.  The load
generator is the pacer, a thread of this process because the broker is
in-memory, which publishes frames, runs the churn schedule and drains the
in-process subscribers; and the SSE client (:mod:`ledger.sse_client`), a
process of its own, which stamps each event when it arrives.

Phases:

* backlog -- the first ``BACKLOG_FRAMES`` frames are published before the
  hub starts and drain as fast as the hub can (``elems_per_s``,
  ``first_elem_s``);
* paced -- an open loop: frame *i* is due ``i / PACED_FPS`` seconds after
  the backlog drained, whatever the hub is doing, while subscribers join
  and leave and filter terms are added and removed beside the matching
  (``freshness_*``).

Per-layer times cover the backlog phase, where the hub is busy; per-layer
counts cover the whole run.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import threading
import time
from functools import cached_property

from ledger.inputs import ROUTER, read_frames
from ledger.oracle import digest, elem_key, quantile

perf = time.perf_counter

#: The gateway CLI's default ``--poll-interval``.
POLL_INTERVAL = 0.05
#: Upper bound on any wait for the hub, so a wedged run still ends.
DEADLINE_S = 60.0
#: How often the pacer drains the in-process subscribers' queues: often
#: enough that no queue reaches its 8-window bound, rarely enough that the
#: drains take little of the interpreter from the hub.
DRAIN_EVERY_S = 0.1
#: How often the pacer checks the hub's delivery count while it waits.  Each
#: check takes the interpreter lock from the hub, so it is not much more
#: often than the lock's 5 ms switch interval.
WAIT_POLL_S = 0.005


def _filters(spec, factory):
    filters = factory()
    for name, values in spec.items():
        if name == "interval":
            filters.add_interval(*values)
        else:
            for value in values:
                filters.add(name, value)
    return filters


def _counting_factory(tally):
    """A ``FilterSet`` subclass that times and counts ``match_elem`` calls."""
    from repro.core.filters import FilterSet

    class CountingFilterSet(FilterSet):
        """Adds each probe's time, the probe and its outcome to ``tally``."""

        def match_elem(self, elem):
            started = perf()
            ok = FilterSet.match_elem(self, elem)
            tally[0] += perf() - started
            tally[1] += 1
            tally[2] += ok
            return ok

    return CountingFilterSet


class SSEClient:
    """The ``ledger.sse_client`` process, and the events it stamped on receipt."""

    def __init__(self, out: str) -> None:
        self.out = out
        self.events = []  # (receipt time, event text)
        self.bytes = 0

    async def start(self, port: int) -> None:
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "ledger.sse_client", str(port), self.out
        )

    async def wait(self) -> None:
        try:
            code = await asyncio.wait_for(self.proc.wait(), DEADLINE_S)
        except asyncio.TimeoutError:
            self.proc.kill()
            await self.proc.wait()
            code = "killed after a timeout"
        if code:
            # No events: every SSE elem counts as missing in the check.
            sys.stderr.write(f"sse client failed: {code}\n")
            return
        with open(self.out) as handle:
            recorded = json.load(handle)
        self.bytes = recorded["bytes"]
        self.events = [tuple(event) for event in recorded["events"]]

    @cached_property
    def windows(self):
        """(receipt time, payload) of every window event, in arrival order."""
        return [
            (received, json.loads(event.split("data: ", 1)[1]))
            for received, event in self.events
            if event.startswith("event: window")
        ]

    @property
    def final(self):
        return self.events[-1][1].split("\n", 1)[0] if self.events else ""


class Pacer:
    """The generator's pacing thread.

    It waits for the backlog to drain, offers the paced frames on their
    schedule with the churn operations that precede them, waits for every
    delivery, then ends the feed.  About every ``DRAIN_EVERY_S`` it drains
    every in-process subscriber, as consumers polling their queues do.
    """

    def __init__(self, live: "LiveRun", producer, factory) -> None:
        self.live = live
        self.producer = producer
        self.factory = factory
        self.hub = live.hub
        self.joiners = [None] * len(live.plan["joiners"])
        self.received = {
            "subscribers": [[] for _ in live.subscribers],
            "joiners": [[] for _ in self.joiners],
        }
        self.due = {}
        self.late = []
        self.ops = self.ops_failed = 0
        self.ops_s = 0.0
        self.marks = {}
        self._drained = 0.0

    def drain(self) -> None:
        groups = (("subscribers", self.live.subscribers), ("joiners", self.joiners))
        for group, subscribers in groups:
            received = self.received[group]
            for index, subscriber in enumerate(subscribers):
                if subscriber is not None:
                    received[index].extend(subscriber.drain())
        self._drained = perf()

    def _wait_delivered(self, deliveries: int) -> None:
        deadline = perf() + DEADLINE_S
        while self.hub.elems_delivered < deliveries and perf() < deadline:
            if perf() - self._drained >= DRAIN_EVERY_S:
                self.drain()
            time.sleep(WAIT_POLL_S)

    def _op(self, op) -> None:
        kind, target = op[1], op[2]
        started = perf()
        try:
            if kind == "join":
                spec = self.live.plan["joiners"][target]
                self.joiners[target] = self.hub.subscribe(_filters(spec, self.factory))
            elif kind == "leave":
                # The leaver closes its open window on the way out, as a
                # consumer that wants its last elems does.
                self.hub.unsubscribe(self.joiners[target])
                self.joiners[target].flush(finished=True)
            elif kind == "add":
                self.live.subscribers[target].add_filter(op[3], op[4])
            else:
                self.live.subscribers[target].remove_filter(op[3], op[4])
        except Exception:
            self.ops_failed += 1
        self.ops_s += perf() - started
        self.ops += 1

    def _paced(self) -> None:
        plan, frames = self.live.plan, self.live.frames
        backlog = plan["backlog_frames"]
        churn = {}
        for op in plan["churn"]:
            churn.setdefault(op[0], []).append(op)
        rate = plan["paced_fps"]
        start = perf()
        for index in range(backlog, len(frames)):
            for op in churn.get(index, ()):
                self._op(op)
            due = start + (index - backlog) / rate
            if perf() - self._drained >= DRAIN_EVERY_S:
                self.drain()
            now = perf()
            if now < due:
                time.sleep(due - now)
            self.producer.publish(frames[index])
            self.late.append(perf() - due)
            for prefix in plan["frames"][index]["prefixes"]:
                self.due[prefix] = due

    def run(self, done) -> None:
        expect = self.live.expect
        try:
            self._wait_delivered(expect["backlog_deliveries"])
            self.marks["backlog_end"] = perf()
            self.marks["backlog_tally"] = list(self.live.tally)
            if not self.live.probe:
                self._paced()
                self._wait_delivered(expect["deliveries"])
            # The stop request is seen when the next record arrives: the end
            # frame wakes the decode loop, which returns before fanning it out.
            self.hub.stop(timeout=0)
            self.producer.publish(self.live.end_frame)
            self.hub.join(timeout=DEADLINE_S)
            self.marks["hub_end"] = perf()
            self.drain()
        finally:
            done()


class LiveRun:
    """Builds the gateway stack, runs the feed, and checks every slice."""

    def __init__(self, plan, frames, end_frame, expect, mode: str, workdir: str) -> None:
        self.plan = plan
        self.workdir = workdir
        self.frames = frames
        self.end_frame = end_frame
        self.expect = expect
        self.traced = mode == "traced"
        self.probe = mode == "probe"
        #: match_elem seconds, probes, matches; seconds inside records().
        self.tally = [0.0, 0, 0, 0.0]

    async def run(self) -> float:
        """Run the feed to its end; return ``publish_s`` (excluded from setup)."""
        from repro.bmp import BMPFeedProducer
        from repro.core.filters import FilterSet
        from repro.core.interfaces import LiveDataInterface
        from repro.core.stream import BGPStream
        from repro.gateway.hub import StreamHub
        from repro.gateway.server import GatewayServer
        from repro.kafka.broker import MessageBroker

        loop = asyncio.get_running_loop()
        plan, tally = self.plan, self.tally
        factory = _counting_factory(tally) if self.traced else FilterSet
        self.broker = MessageBroker()
        producer = BMPFeedProducer(self.broker, router=ROUTER)
        interface = LiveDataInterface(broker=self.broker, poll_interval=POLL_INTERVAL)
        stream = BGPStream(live=interface)
        self.hub = hub = StreamHub(stream)
        self.subscribers = [hub.subscribe(_filters(s, factory)) for s in plan["subscribers"]]
        server = await GatewayServer(hub).start()
        self.client = client = SSEClient(os.path.join(self.workdir, f"sse-{os.getpid()}.json"))
        await client.start(server.port)
        attach_deadline = perf() + DEADLINE_S
        while hub.subscriber_count <= len(self.subscribers):
            if perf() > attach_deadline:
                raise TimeoutError("the SSE client never subscribed")
            await asyncio.sleep(0.001)

        publish_started = perf()
        for frame in self.frames[: plan["backlog_frames"]]:
            producer.publish(frame)
        publish_s = perf() - publish_started

        if self.traced:
            records = stream.records

            def timed_records():
                source = records()
                while True:
                    started = perf()
                    record = next(source, None)
                    tally[3] += perf() - started
                    if record is None:
                        return
                    yield record

            stream.records = timed_records

        self.pacer = pacer = Pacer(self, producer, factory)
        pacer_done = loop.create_future()

        def paced_out():
            loop.call_soon_threadsafe(pacer_done.set_result, None)

        pacer_thread = threading.Thread(target=pacer.run, args=(paced_out,), daemon=True)
        self.first_call = perf()
        hub.start()
        pacer_thread.start()
        try:
            await asyncio.wait_for(pacer_done, 3 * DEADLINE_S)
        finally:
            pacer_thread.join(DEADLINE_S)
            await client.wait()
            await server.close()
        return publish_s

    def check(self):
        """Compare what every subscriber and the SSE client received with the oracle.

        Returns the keys each mismatched receiver got, by ``group/index``.
        """
        cache = {}  # elems are shared between subscribers; the windows keep them alive

        def key(elem):
            found = cache.get(id(elem))
            if found is None:
                fields = elem.field_dict()
                found = elem_key(
                    elem.time, elem.elem_type, elem.peer_address, elem.peer_asn, fields
                )
                cache[id(elem)] = found
            return found

        got = {
            group: [[key(e) for w in windows for e in w.elems] for windows in received]
            for group, received in self.pacer.received.items()
        }
        sse = [
            elem_key(e["time"], e["elem_type"], e["peer_address"], e["peer_asn"], e["fields"])
            for _received, window in self.client.windows
            for e in window["elems"]
        ]
        if self.client.final != "event: end":
            sse.append("no end frame")
        got["sse"] = [sse]
        expect = self.expect["probe" if self.probe else "full"]
        return {
            f"{group}/{index}": keys
            for group, digests in expect.items()
            for index, (want, keys) in enumerate(zip(digests, got[group]))
            if digest(keys) != want
        }

    def freshness_ms(self):
        """Receipt minus due time of the newest elem, per paced SSE window.

        Backlog windows have no due time; the last window, which the end of
        the feed closes, is left out.
        """
        out = []
        for received, window in self.client.windows[:-1]:
            dues = [self.pacer.due.get(e["fields"]["prefix"]) for e in window["elems"]]
            if dues and None not in dues:
                out.append(1000 * (received - max(dues)))
        return out

    def layers(self, backlog_s: float):
        """Per-layer values: times over the backlog phase, counts over the run."""
        from repro.bmp.source import DEFAULT_BMP_TOPIC, DEFAULT_CONSUMER_GROUP

        match_s, _probes, _matched, records_s = self.pacer.marks["backlog_tally"]
        _match_s, probes, matched, _records_s = self.tally
        snaps = [s.snapshot() for s in self.subscribers]
        snaps += [s.snapshot() for s in self.pacer.joiners if s is not None]
        client, hub = self.client, self.hub
        stats = hub.stream.intern_stats() or {}
        tail_s = client.events[-1][0] - self.pacer.marks["hub_end"] if client.events else 0.0
        return {
            "bmp.records_s": records_s,
            "bmp.frames": hub.stats()["frames_decoded"],
            "hub.fanout_s": backlog_s - records_s,
            "hub.deliveries": hub.elems_delivered,
            "hub.match_probes": probes,
            "hub.probes_per_delivery": probes / max(1, matched),
            "hub.windows_coalesced": sum(s["windows_coalesced"] for s in snaps),
            "hub.windows_dropped": sum(s["windows_dropped"] for s in snaps),
            "hub.elems_dropped": sum(s["elems_dropped"] for s in snaps),
            "hub.churn_ops_s": self.pacer.ops_s,
            "hub.churn_ops": self.pacer.ops,
            "filters.match_s": match_s,
            "filters.probes": probes,
            "filters.matched": matched,
            "server.sse_bytes": client.bytes,
            "server.sse_windows": len(client.windows),
            "server.tail_s": tail_s,
            "kafka.lag_end": self.broker.lag(DEFAULT_CONSUMER_GROUP, DEFAULT_BMP_TOPIC),
            "loadgen.late_p90_ms": 1000 * quantile(sorted(self.pacer.late), 0.9),
            "intern.hits": sum(s["hits"] for s in stats.values()),
            "intern.misses": sum(s["misses"] for s in stats.values()),
        }


def main(argv) -> int:
    mode, workdir, launch, out = argv
    load_started = perf()
    with open(os.path.join(workdir, "plan.json")) as handle:
        plan = json.load(handle)
    with open(os.path.join(workdir, "expect.json")) as handle:
        expect = json.load(handle)
    *frames, end_frame = read_frames(os.path.join(workdir, "frames.bin"))
    load_s = perf() - load_started
    run = LiveRun(plan, frames, end_frame, expect, mode, workdir)
    publish_s = asyncio.run(run.run())
    windows = run.client.windows
    backlog_s = run.pacer.marks["backlog_end"] - run.first_call
    result = {
        "mode": mode,
        "setup_s": run.first_call - float(launch) - load_s - publish_s,
        "first_elem_s": windows[0][0] - run.first_call if windows else backlog_s,
        "backlog_s": backlog_s,
        "ops_failed": run.pacer.ops_failed,
        "mismatched": run.check(),
    }
    if not run.probe:
        result["fresh_ms"] = run.freshness_ms()
        result["late_p90_ms"] = 1000 * quantile(sorted(run.pacer.late), 0.9)
        result["layers"] = run.layers(backlog_s) if run.traced else {}
    with open(out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

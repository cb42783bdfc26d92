"""One historical replay in a fresh interpreter.

``python3 -m ledger.hist MODE ARCHIVE START END PREFIX EXPECT LAUNCH OUT``
replays the broker window of ``ARCHIVE`` and writes one JSON result to
``OUT``.  ``PREFIX`` is ``-`` for no elem filter; ``EXPECT`` is the
oracle digest (on a mismatch the result carries every elem key); ``LAUNCH`` is the
parent's ``time.perf_counter()`` just before it started this process (the
same clock on Linux), so ``setup_s`` covers interpreter start and imports.

Modes:

* ``default`` -- ``BGPStream(broker=Broker(...))`` with no other knob, the
  path a ``bgpreader`` user gets;
* ``sequential`` -- the plain sequential composition: the broker
  interface's file batches, one ``SortedRecordMerger`` per batch,
  ``record.elems()`` and ``FilterSet.match_elem``.  It is the reference
  path and the oracle;
* ``traced`` -- the sequential composition with every call into a layer
  timed and counted from here (nothing inside ``src/`` is instrumented).

The consumer reads ``field_dict()`` on every delivered elem and keeps one
key line per elem; the ordered digest of those lines is the oracle check.
"""

from __future__ import annotations

import json
import sys
import time

from ledger.oracle import digest, elem_key, quantile

perf = time.perf_counter


def _open(archive: str, start: int, end: int, prefix: str):
    from repro.broker import Broker
    from repro.collectors.archive import Archive
    from repro.core.filters import FilterSet
    from repro.core.interfaces import BrokerDataInterface

    broker = Broker(archives=[Archive(archive)])
    filters = FilterSet().add_interval(start, end)
    if prefix:
        filters.add("prefix-more", prefix)
    return BrokerDataInterface(broker), filters


def sequential_records(interface, filters):
    """The plain sequential composition's delivered records."""
    from repro.core.record import RecordStatus
    from repro.core.sorter import SortedRecordMerger

    for batch in interface.batches(filters):
        for record in SortedRecordMerger(batch):
            if record.status == RecordStatus.VALID and not filters.match_record(record):
                continue
            yield record


def reference_pass(archive: str, start: int, end: int):
    """Oracle keys of every elem in the window, and the records delivered."""
    interface, filters = _open(archive, start, end, "")
    keys, records = [], 0
    for record in sequential_records(interface, filters):
        records += 1
        for elem in record.elems():
            fields = elem.field_dict()
            key = elem_key(elem.time, elem.elem_type, elem.peer_address, elem.peer_asn, fields)
            keys.append(key)
    return keys, records


def _default(archive, start, end, prefix, consume):
    from repro.broker import Broker
    from repro.collectors.archive import Archive
    from repro.core.stream import BGPStream

    stream = BGPStream(broker=Broker(archives=[Archive(archive)]))
    stream.add_interval_filter(start, end)
    if prefix:
        stream.add_filter("prefix-more", prefix)
    started = perf()
    for _record, elem in stream.elems():
        consume(elem, elem.field_dict())
    return started, {}


def _sequential(archive, start, end, prefix, consume):
    interface, filters = _open(archive, start, end, prefix)
    match = filters.match_elem
    started = perf()
    for record in sequential_records(interface, filters):
        for elem in record.elems():
            if match(elem):
                consume(elem, elem.field_dict())
    return started, {}


def _traced(archive, start, end, prefix, consume):
    from repro.core.intern import default_pool
    from repro.core.record import RecordStatus
    from repro.core.sorter import SortedRecordMerger

    interface, filters = _open(archive, start, end, prefix)
    match_record, match_elem = filters.match_record, filters.match_elem
    broker_s = sorter_s = record_s = filters_s = elem_s = 0.0
    files = probes = matched = elems = 0
    statuses = {str(s): 0 for s in RecordStatus}
    started = perf()
    batches = interface.batches(filters)
    while True:
        t0 = perf()
        batch = next(batches, None)
        broker_s += perf() - t0
        if batch is None:
            break
        files += len(batch)
        records = iter(SortedRecordMerger(batch))
        while True:
            t0 = perf()
            record = next(records, None)
            sorter_s += perf() - t0
            if record is None:
                break
            statuses[str(record.status)] += 1
            if record.status == RecordStatus.VALID and not match_record(record):
                continue
            t0 = perf()
            extracted = list(record.elems())
            record_s += perf() - t0
            elems += len(extracted)
            for elem in extracted:
                t0 = perf()
                ok = match_elem(elem)
                t1 = perf()
                filters_s += t1 - t0
                probes += 1
                if ok:
                    matched += 1
                    fields = elem.field_dict()
                    elem_s += perf() - t1
                    consume(elem, fields)
    stats = default_pool().stats()
    layers = {
        "broker.window_s": broker_s,
        "broker.files": files,
        "sorter.next_s": sorter_s,
        "sorter.records": sum(statuses.values()),
        "record.elems_s": record_s,
        "record.elems": elems,
        "filters.match_s": filters_s,
        "filters.probes": probes,
        "filters.matched": matched,
        "elem.fields_s": elem_s,
        "elem.field_reads": matched,
        "intern.hits": sum(s["hits"] for s in stats.values()),
        "intern.misses": sum(s["misses"] for s in stats.values()),
    }
    for status, count in statuses.items():
        layers["sorter.records_" + status.replace("-", "_")] = count
    return started, layers


MODES = {"default": _default, "sequential": _sequential, "traced": _traced}


def main(argv) -> int:
    mode, archive, start, end, prefix, expect, launch, out = argv
    prefix = "" if prefix == "-" else prefix
    keys, times = [], []

    def consume(elem, fields):
        keys.append(elem_key(elem.time, elem.elem_type, elem.peer_address, elem.peer_asn, fields))
        times.append(perf())

    started, layers = MODES[mode](archive, int(start), int(end), prefix, consume)
    finished = perf()
    got = digest(keys)
    result = {
        "mode": mode,
        "setup_s": started - float(launch),
        "replay_s": finished - started,
        "first_elem_s": (times[0] if times else finished) - started,
        "elems": len(keys),
        "digest": got,
        "fresh_ms": [1000 * (quantile(times, q) - started) if times else 0.0 for q in (0.5, 0.9)],
        "layers": layers,
    }
    if got != expect:
        result["keys"] = keys
    with open(out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

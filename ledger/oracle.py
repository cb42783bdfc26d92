"""Oracles: elem keys, ordered digests, failure counts and the live slice matcher.

The historical oracle is the plain sequential ``SortedRecordMerger``
composition of the same window (see :func:`ledger.hist.reference_pass`).
The live oracle is independent of the program: it matches the generator's
own elem table against each subscriber's filter spec with integer prefix
arithmetic, never through ``FilterSet``.
"""

from __future__ import annotations

import hashlib
import ipaddress
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence


def elem_key(time, elem_type, peer_address, peer_asn, fields) -> str:
    """One elem as a comparable line: time, type, peer, prefix, path, communities.

    ``fields`` is an ``elem.field_dict()`` or the ``fields`` object of a
    gateway window payload (communities as a set or a sorted list).
    """
    communities = fields.get("communities")
    return "%d|%s|%s|%d|%s|%s|%s" % (
        time,
        elem_type,
        peer_address,
        peer_asn,
        fields.get("prefix", ""),
        fields.get("as-path", ""),
        " ".join(sorted(communities)) if communities else "",
    )


def digest(keys: Iterable[str]) -> str:
    """Ordered digest of an elem-key sequence."""
    h = hashlib.sha256()
    for key in keys:
        h.update(key.encode())
        h.update(b"\n")
    return h.hexdigest()


def quantile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted sequence (0.0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def count_failures(expected: Sequence[str], got: Sequence[str]) -> int:
    """Elems missing, extra or out of place in ``got`` relative to ``expected``.

    Missing and extra elems are counted as a multiset difference; when the
    multisets agree, every position holding a different elem counts (one
    swapped pair counts 2).
    """
    if list(expected) == list(got):
        return 0
    want, have = Counter(expected), Counter(got)
    wrong = sum((want - have).values()) + sum((have - want).values())
    if wrong:
        return wrong
    return sum(1 for a, b in zip(expected, got) if a != b)


class Net:
    """A prefix as integers, for a covering test without ``repro.bgp``."""

    __slots__ = ("value", "length", "bits")

    def __init__(self, text: str) -> None:
        net = ipaddress.ip_network(text)
        self.value = int(net.network_address)
        self.length = net.prefixlen
        self.bits = net.max_prefixlen

    def covers(self, other: "Net") -> bool:
        """True when ``other`` equals this prefix or is more specific."""
        if other.bits != self.bits or other.length < self.length:
            return False
        shift = self.bits - self.length
        return (other.value >> shift) == (self.value >> shift)


_TYPE_CODES = {"announcement": "A", "withdrawal": "W", "state": "S"}


class SliceMatcher:
    """A subscriber spec compiled for the generator's elem table.

    A spec maps filter names (``prefix-more``, ``peer-asn``, ``elem-type``,
    ``origin-asn``) to value lists, plus an optional ``interval`` pair.
    Values of one name are OR-ed, names are AND-ed, and an empty spec
    matches everything: the documented ``FilterSet`` semantics.
    """

    def __init__(self, spec: Dict) -> None:
        self.nets = [Net(v) for v in spec.get("prefix-more", ())]
        self.peers = {int(v) for v in spec.get("peer-asn", ())}
        self.types = {_TYPE_CODES[v] for v in spec.get("elem-type", ())}
        self.origins = {int(v) for v in spec.get("origin-asn", ())}
        interval = spec.get("interval")
        self.interval = tuple(interval) if interval else None

    def matches(self, elem: Dict, net: Optional[Net] = None) -> bool:
        if self.interval and not self.interval[0] <= elem["time"] <= self.interval[1]:
            return False
        if self.types and elem["type"] not in self.types:
            return False
        if self.peers and elem["peer_asn"] not in self.peers:
            return False
        if self.nets:
            net = net or Net(elem["prefix"])
            if not any(f.covers(net) for f in self.nets):
                return False
        if self.origins and elem.get("origin") not in self.origins:
            return False
        return True


def expected_slices(specs: Sequence[Dict], elems: Sequence[Dict]) -> List[List[int]]:
    """For each spec, the indices of ``elems`` it must receive, in feed order."""
    nets = [Net(e["prefix"]) for e in elems]
    out = []
    for spec in specs:
        matcher = SliceMatcher(spec)
        out.append([i for i, e in enumerate(elems) if matcher.matches(e, nets[i])])
    return out

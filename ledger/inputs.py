"""Seeded inputs: the historical archive and the live BMP feed plan.

Everything here runs once per benchmark invocation, outside every metric.
The same seed gives byte-identical dump files and frames.
"""

from __future__ import annotations

import ipaddress
import json
import random
import struct
from collections import Counter
from typing import Dict, List, Sequence, Tuple

from ledger.oracle import elem_key

# -- historical ------------------------------------------------------------

#: One hour of a 3-collector window (2 RIS, 1 RouteViews): each collector's
#: RIB dump at the window start plus its 5- or 15-minute update dumps.
#: Every vantage point is a full feed, so the window's size hardly moves
#: from seed to seed.
HIST_DURATION = 3600
HIST_COLLECTORS = {"ris": 2, "routeviews": 1}
HIST_VPS = 11
HIST_CHURN_PER_VP_HOUR = 120.0
#: The AS topology is the same for every seed (its size decides most of the
#: window's elems); the seed picks the collectors' vantage points, the
#: update churn and, for hist-filtered, the prefix of interest.
TOPOLOGY_SEED = 2016
#: Target share of elems the hist-filtered prefix selects.
FILTER_SHARE = 0.01


def generate_archive(
    root: str, seed: int, duration: int = HIST_DURATION, vps: int = HIST_VPS
) -> Tuple[int, int]:
    """Write the scenario's dumps under ``root``; return the window (start, end)."""
    from repro.collectors.archive import Archive
    from repro.collectors.scenario import ScenarioConfig, build_scenario
    from repro.collectors.topology import TopologyConfig

    config = ScenarioConfig(
        duration=duration,
        topology=TopologyConfig(seed=TOPOLOGY_SEED),
        collectors_per_project=dict(HIST_COLLECTORS),
        vps_per_collector=vps,
        churn_updates_per_vp_per_hour=HIST_CHURN_PER_VP_HOUR,
        full_feed_fraction=1.0,
        seed=seed,
    )
    for dump in build_scenario(config).generate(Archive(root)):
        _zero_gzip_mtime(dump.path)
    return config.start, config.end - 1


def _zero_gzip_mtime(path: str) -> None:
    # gzip stamps the write time into bytes 4..7 of its header; zero it so
    # the same seed gives byte-identical dumps.
    with open(path, "r+b") as handle:
        head = handle.read(4)
        if head[:2] == b"\x1f\x8b":
            handle.write(b"\x00\x00\x00\x00")


def hist_properties(keys: Sequence[str], records: int) -> Dict[str, float]:
    """Input properties of a historical window from its oracle elem keys."""
    elems = len(keys)
    parts = [k.split("|") for k in keys]
    return {
        "elems": elems,
        "records": records,
        "rib_share": sum(1 for p in parts if p[1] == "R") / elems,
        "community_sets_per_elem": len({p[6] for p in parts}) / elems,
        "paths_per_elem": len({p[5] for p in parts}) / elems,
    }


def choose_filter_prefix(
    prefixes: Sequence[str], share: float = FILTER_SHARE, tolerance: float = 0.2
) -> str:
    """The lowest strictly covering prefix whose elems are ``share`` of all, give
    or take ``tolerance`` of it (the closest one if none is that close).

    RIB dumps list prefixes in address order, so taking the lowest keeps the
    first match near the front of the window whatever the seed.
    """
    per_prefix = Counter(prefixes)
    covering: Counter = Counter()
    for text, count in per_prefix.items():
        net = ipaddress.ip_network(text)
        floor = 8 if net.version == 4 else 16
        for length in range(floor, net.prefixlen):
            covering[net.supernet(new_prefix=length)] += count
    target = share * len(prefixes)
    near = [net for net, count in covering.items() if abs(count - target) <= tolerance * target]
    if not near:
        closest = min(abs(count - target) for count in covering.values())
        near = [net for net, count in covering.items() if abs(count - target) == closest]
    return str(min(near, key=lambda net: (net.version, net.network_address, -net.prefixlen)))


# -- live -----------------------------------------------------------------

FEED_T0 = 1_500_000_000
ROUTER = "rtr1.ledger"
#: The backlog: frames published before the hub starts, 8 to a feed
#: second, so the first subscriber window holds enough work that the
#: first-window latency is not just thread-switch noise.
BACKLOG_FRAMES = 240
BACKLOG_FRAMES_PER_SECOND = 8
#: The paced phase, 2 frames to a feed second: feed time runs PACED_FPS / 2
#: times faster than wall time, so the one-second subscriber windows close
#: often enough for more than 100 freshness samples per run.
PACED_FRAMES = 204
FRAMES_PER_SECOND = 2
#: The paced phase's fixed offer rate (frames per wall second): about half
#: the backlog drain rate measured at the commit that added this benchmark.
PACED_FPS = 75
NETS = 64
PEERS = 8
PATHS = 200
ORIGINS = 120
COMMUNITY_SETS = 60
SUBSCRIBERS = 1024
#: Feed seconds a churn joiner watches, and feed seconds after that before
#: it leaves (1.2 s of wall time at the paced rate, so the hub has
#: delivered its slice by then).
JOIN_SPAN = 20
LEAVE_LAG = 45
#: Feed seconds an added filter term stays before its remove_filter.
TERM_LIFETIME = 10


def _feed_time(frame: int) -> int:
    if frame < BACKLOG_FRAMES:
        return FEED_T0 + frame // BACKLOG_FRAMES_PER_SECOND
    return _feed_time(BACKLOG_FRAMES - 1) + 1 + (frame - BACKLOG_FRAMES) // FRAMES_PER_SECOND


def live_plan(seed: int) -> Dict:
    """The seeded live feed: peers, elem table, frames, subscribers, churn."""
    rng = random.Random(f"ledger-live-{seed}")
    peers = [(f"172.31.0.{i + 1}", 64500 + i) for i in range(PEERS)]
    origins = rng.sample(range(1000, 60000), ORIGINS)
    transit = [174, 1299, 2914, 3257, 3356, 6453, 6762, 6939]
    paths = []
    for _ in range(PATHS):
        middle = rng.sample(transit, rng.randint(1, 3))
        paths.append(middle + [rng.choice(origins)])
    community_sets = []
    for _ in range(COMMUNITY_SETS):
        size = rng.randint(0, 4)
        community_sets.append(
            sorted({f"{rng.choice(transit)}:{rng.randrange(1000)}" for _ in range(size)})
        )
    net_weights = [1.0 / (rank + 1) ** 0.8 for rank in range(NETS)]
    used = set()
    elems: List[Dict] = []
    frames: List[Dict] = []
    total = BACKLOG_FRAMES + PACED_FRAMES
    for index in range(total):
        time = _feed_time(index)
        address, asn = peers[rng.randrange(PEERS)]
        kind = "W" if rng.random() < 0.1 else "A"
        prefixes = []
        for _ in range(1 if rng.random() < 0.7 else 2):
            while True:
                net = rng.choices(range(NETS), net_weights)[0]
                prefix = f"10.{net}.{rng.randrange(256)}.0/24"
                if prefix not in used:
                    used.add(prefix)
                    prefixes.append(prefix)
                    break
        path = [asn] + paths[min(int(rng.paretovariate(1.2)) - 1, PATHS - 1)]
        communities = community_sets[rng.randrange(COMMUNITY_SETS)]
        frame = {
            "time": time,
            "peer_address": address,
            "peer_asn": asn,
            "type": kind,
            "prefixes": prefixes,
            "path": path if kind == "A" else None,
            "communities": communities if kind == "A" else [],
            "first_elem": len(elems),
        }
        frames.append(frame)
        for prefix in prefixes:
            elems.append(
                {
                    "time": time,
                    "type": kind,
                    "peer_address": address,
                    "peer_asn": asn,
                    "prefix": prefix,
                    "origin": path[-1] if kind == "A" else None,
                    "path": " ".join(map(str, path)) if kind == "A" else "",
                    "communities": frame["communities"],
                }
            )
    subscribers = _subscriber_specs(rng, peers, paths)
    churn, joiners = _churn_schedule(rng, subscribers)
    return {
        "seed": seed,
        "paced_fps": PACED_FPS,
        "backlog_frames": BACKLOG_FRAMES,
        "frames": frames,
        "elems": elems,
        "subscribers": subscribers,
        "joiners": joiners,
        "churn": churn,
    }


def _subscriber_specs(rng, peers, paths) -> List[Dict]:
    """1024 specs: covering and more-specific prefixes, peer-asn,
    elem-type, origin-asn and a few wildcards.

    Terms are dealt round-robin (every /16 is watched by the same number of
    covering subscribers, the origin watchers cover the most used paths), so
    the deliveries per elem hardly move from seed to seed; the seed only
    shuffles the roster order.
    """
    specs: List[Dict] = []
    for i in range(432):
        first = i % NETS
        second = (first + 1 + 7 * (i // NETS)) % NETS
        specs.append({"prefix-more": [f"10.{first}.0.0/16", f"10.{second}.0.0/16"]})
    for i in range(256):
        specs.append({"prefix-more": [f"10.{i % NETS}.{16 * ((i + i // NETS) % 16)}.0/20"]})
    for i in range(128):
        specs.append({"peer-asn": [str(peers[i % PEERS][1])]})
    for i in range(64):
        specs.append({"elem-type": ["withdrawal" if i % 4 == 0 else "announcement"]})
    for i in range(128):
        specs.append({"origin-asn": [str(paths[i % 32][-1])]})
    for _ in range(16):
        specs.append({})
    assert len(specs) == SUBSCRIBERS
    rng.shuffle(specs)
    return specs


def _unused_term(kind: str, serial: int) -> Tuple[str, str]:
    """A filter term of ``kind`` that no generated elem can match, so adding
    and removing it leaves the subscriber's exact slice unchanged."""
    if kind == "prefix-more":
        return kind, f"192.168.{serial % 256}.0/24"
    if kind == "peer-asn":
        return kind, str(65000 + serial % 500)
    if kind == "origin-asn":
        return kind, str(4_200_000_000 + serial)
    return "elem-type", "state"


def _churn_schedule(rng, subscribers) -> Tuple[List[List], List[Dict]]:
    """Subscription changes keyed by the paced frame they precede.

    Each entry is ``[frame, op, ...]``: ``join``/``leave`` a joiner, or
    ``add``/``remove`` an unused filter term on an existing subscriber.
    """
    paced_seconds = PACED_FRAMES // FRAMES_PER_SECOND
    first = _feed_time(BACKLOG_FRAMES)
    churn: List[List] = []
    joiners: List[Dict] = []
    candidates = [i for i, s in enumerate(subscribers) if s]
    serial = 0
    for k in range(paced_seconds):
        frame = BACKLOG_FRAMES + k * FRAMES_PER_SECOND
        if k % 3 == 0 and k + JOIN_SPAN + LEAVE_LAG < paced_seconds:
            spec = dict(subscribers[rng.choice(candidates)])
            spec["interval"] = [first + k, first + k + JOIN_SPAN - 1]
            churn.append([frame, "join", len(joiners)])
            leave = BACKLOG_FRAMES + (k + JOIN_SPAN + LEAVE_LAG) * FRAMES_PER_SECOND
            churn.append([leave, "leave", len(joiners)])
            joiners.append(spec)
        for _ in range(2):
            target = rng.choice(candidates)
            name, value = _unused_term(next(iter(subscribers[target])), serial)
            serial += 1
            churn.append([frame, "add", target, name, value])
            if k + TERM_LIFETIME < paced_seconds:
                later = BACKLOG_FRAMES + (k + TERM_LIFETIME) * FRAMES_PER_SECOND
                churn.append([later, "remove", target, name, value])
    churn.sort(key=lambda op: op[0])
    return churn, joiners


def elem_keys(plan: Dict) -> List[str]:
    """The oracle key of every elem in the plan's table, in feed order."""
    keys = []
    for elem in plan["elems"]:
        fields = {"prefix": elem["prefix"]}
        if elem["type"] == "A":
            fields["as-path"] = elem["path"]
            fields["communities"] = elem["communities"]
        key = elem_key(elem["time"], elem["type"], elem["peer_address"], elem["peer_asn"], fields)
        keys.append(key)
    return keys


def encode_frames(plan: Dict) -> List[bytes]:
    """Each frame as BMP Route Monitoring wire bytes, via the in-repo encoder."""
    from repro.bgp.aspath import ASPath
    from repro.bgp.attributes import PathAttributes
    from repro.bgp.community import Community, CommunitySet
    from repro.bgp.message import BGPUpdate
    from repro.bgp.prefix import Prefix
    from repro.bmp import BMPMessage, BMPPeerHeader

    out = []
    for frame in plan["frames"]:
        peer = BMPPeerHeader(
            address=frame["peer_address"], asn=frame["peer_asn"], timestamp_sec=frame["time"]
        )
        prefixes = [Prefix.from_string(p) for p in frame["prefixes"]]
        if frame["type"] == "W":
            update = BGPUpdate(withdrawn=prefixes)
        else:
            communities = CommunitySet(
                Community(*map(int, c.split(":"))) for c in frame["communities"]
            )
            update = BGPUpdate(
                announced=prefixes,
                attributes=PathAttributes(
                    as_path=ASPath.from_asns(frame["path"]),
                    next_hop=frame["peer_address"],
                    communities=communities,
                ),
            )
        out.append(BMPMessage.route_monitoring(peer, update).encode())
    return out


def end_frame(plan: Dict) -> bytes:
    """A last frame, outside every watched range, that wakes the hub's
    decode loop so it sees the stop request (it is never fanned out)."""
    from repro.bgp.message import BGPUpdate
    from repro.bgp.prefix import Prefix
    from repro.bmp import BMPMessage, BMPPeerHeader

    last = plan["frames"][-1]["time"]
    peer = BMPPeerHeader(address="172.31.0.1", asn=64500, timestamp_sec=last)
    update = BGPUpdate(withdrawn=[Prefix.from_string("192.0.2.0/24")])
    return BMPMessage.route_monitoring(peer, update).encode()


def write_frames(path: str, frames: Sequence[bytes]) -> None:
    with open(path, "wb") as handle:
        for frame in frames:
            handle.write(struct.pack("!I", len(frame)))
            handle.write(frame)


def read_frames(path: str) -> List[bytes]:
    with open(path, "rb") as handle:
        data = handle.read()
    out, offset = [], 0
    while offset < len(data):
        (size,) = struct.unpack_from("!I", data, offset)
        out.append(data[offset + 4 : offset + 4 + size])
        offset += 4 + size
    return out


def live_properties(plan: Dict, slices: Sequence[Sequence[int]]) -> Dict[str, float]:
    """Input properties of the live feed; ``slices`` are the static subscribers'."""
    elems = plan["elems"]
    n = len(elems)
    deliveries = sum(len(s) for s in slices)
    return {
        "elems": n,
        "records": len(plan["frames"]),
        "rib_share": 0.0,
        "community_sets_per_elem": len({" ".join(e["communities"]) for e in elems}) / n,
        "paths_per_elem": len({e["path"] for e in elems}) / n,
        "selectivity": deliveries / (n * len(slices)),
        "subscribers_per_elem": deliveries / n,
    }


def write_json(path: str, value) -> None:
    with open(path, "w") as handle:
        json.dump(value, handle)

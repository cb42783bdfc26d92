"""Stage-ledger entry point: generate seeded inputs, run fresh interpreters, report.

``python3 -m ledger --workload NAME --seed N --seconds S --trace 0|1``

Inputs are generated once per invocation, outside every metric.  Each
measured run is then a fresh interpreter (``ledger.hist`` or
``ledger.live``), so the parser record cache, the intern pool and the wire
caches start cold; the OS page cache is warm.  Rounds of runs repeat while
another one fits in ``--seconds``, and every metric is the median over runs.

``--trace 0`` runs the default configuration and prints the end-to-end
metrics.  ``--trace 1`` alternates the default, the plain sequential
reference and the traced sequential composition (historical), or an
untraced and a traced run (live), and prints the per-layer metrics.

Every run is checked against its oracle.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A mismatch makes the exit code 1; missing program sources make it 2,
before anything is measured.  ``--workload all`` runs every workload in
turn, each ending with its own result line.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from ledger import hist, inputs, oracle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("hist-full", "hist-filtered", "live")

END_TO_END = {
    "setup_s": "s",
    "elems_per_s": "1/s",
    "first_elem_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "freshness_p50_ms": "ms",
    "freshness_p90_ms": "ms",
}

PER_LAYER = {
    "broker.window_s": "s",
    "broker.files": "count",
    "sorter.next_s": "s",
    "sorter.records": "count",
    "sorter.records_valid": "count",
    "sorter.records_corrupted_record": "count",
    "sorter.records_corrupted_source": "count",
    "sorter.records_empty_source": "count",
    "record.elems_s": "s",
    "record.elems": "count",
    "filters.match_s": "s",
    "filters.probes": "count",
    "filters.matched": "count",
    "elem.fields_s": "s",
    "elem.field_reads": "count",
    "intern.hits": "count",
    "intern.misses": "count",
    "reference.sequential_s": "s",
    "reference.default_over_sequential": "ratio",
    "trace.traced_s": "s",
    "trace.overhead_frac": "frac",
    "bmp.records_s": "s",
    "bmp.frames": "count",
    "hub.fanout_s": "s",
    "hub.deliveries": "count",
    "hub.match_probes": "count",
    "hub.probes_per_delivery": "ratio",
    "hub.windows_coalesced": "count",
    "hub.windows_dropped": "count",
    "hub.elems_dropped": "count",
    "hub.churn_ops_s": "s",
    "hub.churn_ops": "count",
    "server.sse_bytes": "bytes",
    "server.sse_windows": "count",
    "server.tail_s": "s",
    "kafka.lag_end": "count",
    "loadgen.late_p90_ms": "ms",
    "input.elems": "count",
    "input.records": "count",
    "input.rib_share": "frac",
    "input.community_sets_per_elem": "ratio",
    "input.paths_per_elem": "ratio",
    "input.selectivity": "frac",
    "input.subscribers_per_elem": "ratio",
    "failed_frac": "frac",
}

#: Fewest rounds per invocation, whatever ``--seconds`` says.
MIN_ROUNDS = {0: 3, 1: 1}
#: Probe runs after each full live run (see ``_live``).
PROBES = 2
#: A run that has not finished after this long is killed (a failure).
CHILD_TIMEOUT_S = 120.0


class Child:
    """One measured run in a fresh interpreter: its JSON result and its rusage."""

    def __init__(self, module: str, args, workdir: str, tag: str) -> None:
        out = os.path.join(workdir, f"{tag}.json")
        log = os.path.join(workdir, f"{tag}.log")
        env = dict(os.environ, PYTHONPATH=SRC)
        load_before = os.getloadavg()[0]
        with open(log, "w") as stderr:
            launch = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", module, *args, repr(launch), out],
                cwd=ROOT,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=stderr,
            )
            status, usage = _wait(proc)
        #: 1-minute load average before and after the run.
        self.load = [load_before, os.getloadavg()[0]]
        self.ok = status == 0
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.result = {}
        if self.ok:
            with open(out) as handle:
                self.result = json.load(handle)
        else:
            with open(log) as handle:
                sys.stderr.write(f"{module} {tag} exited {status}:\n{handle.read()[-4000:]}\n")


def _wait(proc):
    """Reap ``proc`` with ``wait4``: its rusage covers the pool workers it reaped."""
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.monotonic() > deadline:
            proc.kill()
            _pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return -9, usage
        time.sleep(0.02)


def _measure(args, modes, spawn, score):
    """Run rounds of ``modes`` while one more round fits in ``--seconds``.

    ``spawn(mode, tag)`` starts one run; ``score(mode, child)`` returns the
    checks it was expected to pass and how many it failed.  Returns the
    successful runs by mode, the checks attempted and the checks failed.
    """
    runs = {mode: [] for mode in modes}
    attempted = failed = rounds = 0
    started = time.perf_counter()
    while rounds < MIN_ROUNDS[args.trace] or _room(started, rounds, args.seconds):
        for index, mode in enumerate(modes):
            child = spawn(mode, f"{mode}-{rounds}-{index}")
            checks, wrong = score(mode, child)
            attempted += checks
            failed += wrong
            if child.ok:
                runs[mode].append(child)
        rounds += 1
    return runs, attempted, failed


def _room(started: float, rounds: int, seconds: float) -> bool:
    """True when one more round, as long as the mean one so far, fits in ``seconds``."""
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / rounds <= seconds


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def _median_layers(children):
    names = sorted({name for c in children for name in c.result["layers"]})
    return {name: _median(c.result["layers"].get(name) for c in children) for name in names}


# -- historical --------------------------------------------------------------


def _hist(args, workdir):
    archive = os.path.join(workdir, "archive")
    start, end = inputs.generate_archive(archive, args.seed)
    keys, records = hist.reference_pass(archive, start, end)
    properties = inputs.hist_properties(keys, records)
    prefix = ""
    if args.workload == "hist-filtered":
        prefix = inputs.choose_filter_prefix([k.split("|")[4] for k in keys])
        net = oracle.Net(prefix)
        keys = [k for k in keys if net.covers(oracle.Net(k.split("|")[4]))]
    properties["selectivity"] = len(keys) / properties["elems"]
    properties["subscribers_per_elem"] = properties["selectivity"]
    expect = oracle.digest(keys)

    def spawn(mode, tag):
        window = [str(start), str(end), prefix or "-", expect]
        return Child("ledger.hist", [mode, archive, *window], workdir, tag)

    def score(_mode, child):
        if not child.ok:
            return len(keys), len(keys)
        if child.result["digest"] == expect:
            return len(keys), 0
        return len(keys), oracle.count_failures(keys, child.result["keys"])

    modes = ["default", "sequential", "traced"] if args.trace else ["default"]
    runs, attempted, failed = _measure(args, modes, spawn, score)
    stamp = {"prefix": prefix or None, "window": [start, end]}
    default = runs["default"]
    if not args.trace:
        values = {
            "setup_s": _median(c.result["setup_s"] for c in default),
            "elems_per_s": _median(c.result["elems"] / c.result["replay_s"] for c in default),
            "first_elem_s": _median(c.result["first_elem_s"] for c in default),
            "cpu_s": _median(c.cpu_s for c in default),
            "peak_rss_mb": _median(c.peak_rss_mb for c in default),
            "freshness_p50_ms": _median(c.result["fresh_ms"][0] for c in default),
            "freshness_p90_ms": _median(c.result["fresh_ms"][1] for c in default),
        }
        return values, attempted, failed, properties, stamp, runs
    sequential_s = _median(c.result["replay_s"] for c in runs["sequential"])
    traced_s = _median(c.result["replay_s"] for c in runs["traced"])
    values = _median_layers(runs["traced"])
    if sequential_s:
        values["reference.sequential_s"] = sequential_s
        values["reference.default_over_sequential"] = (
            _median(c.result["replay_s"] for c in default) / sequential_s
        )
        values["trace.traced_s"] = traced_s
        values["trace.overhead_frac"] = traced_s / sequential_s - 1.0
    return values, attempted, failed, properties, stamp, runs


# -- live ----------------------------------------------------------------------


def _live(args, workdir):
    plan = inputs.live_plan(args.seed)
    frames = inputs.encode_frames(plan) + [inputs.end_frame(plan)]
    inputs.write_frames(os.path.join(workdir, "frames.bin"), frames)
    inputs.write_json(os.path.join(workdir, "plan.json"), plan)
    keys = inputs.elem_keys(plan)
    static = oracle.expected_slices(plan["subscribers"], plan["elems"])
    joiners = oracle.expected_slices(plan["joiners"], plan["elems"])
    backlog = plan["frames"][plan["backlog_frames"]]["first_elem"]
    # What every receiver must get, by run kind; a probe ends after the backlog.
    expected = {
        "full": {
            "subscribers": [[keys[i] for i in s] for s in static],
            "joiners": [[keys[i] for i in s] for s in joiners],
            "sse": [keys],
        },
        "probe": {
            "subscribers": [[keys[i] for i in s if i < backlog] for s in static],
            "sse": [keys[:backlog]],
        },
    }
    deliveries = {
        kind: sum(len(s) for group in groups.values() for s in group)
        for kind, groups in expected.items()
    }
    expect = {
        kind: {group: [oracle.digest(s) for s in slices] for group, slices in groups.items()}
        for kind, groups in expected.items()
    }
    expect["backlog_deliveries"] = deliveries["probe"]
    expect["deliveries"] = deliveries["full"]
    inputs.write_json(os.path.join(workdir, "expect.json"), expect)
    checks = {"probe": deliveries["probe"], "full": deliveries["full"] + len(plan["churn"])}

    def spawn(mode, tag):
        return Child("ledger.live", [mode, workdir], workdir, tag)

    def score(mode, child):
        kind = "probe" if mode == "probe" else "full"
        if not child.ok:
            return checks[kind], checks[kind]
        wrong = child.result["ops_failed"]
        for name, got in child.result["mismatched"].items():
            group, _, index = name.partition("/")
            wrong += max(1, oracle.count_failures(expected[kind][group][int(index)], got))
        return checks[kind], wrong

    # Each full run is followed by probes, which stop once the backlog has
    # drained: cheap extra samples of setup_s, first_elem_s and elems_per_s.
    modes = ["untraced", "traced"] if args.trace else ["untraced"] + ["probe"] * PROBES
    runs, attempted, failed = _measure(args, modes, spawn, score)
    full = runs["untraced"]
    stamp = {
        "paced_fps": plan["paced_fps"],
        "late_p90_ms": [c.result["late_p90_ms"] for c in full + runs.get("traced", [])],
        "freshness_samples": [len(c.result["fresh_ms"]) for c in full],
    }
    properties = inputs.live_properties(plan, static)
    if not args.trace:
        starts = full + runs["probe"]
        values = {
            "setup_s": _median(c.result["setup_s"] for c in starts),
            "elems_per_s": _median(deliveries["probe"] / c.result["backlog_s"] for c in starts),
            "first_elem_s": _median(c.result["first_elem_s"] for c in starts),
            "cpu_s": _median(c.cpu_s for c in full),
            "peak_rss_mb": _median(c.peak_rss_mb for c in full),
            "freshness_p50_ms": _median(
                oracle.quantile(sorted(c.result["fresh_ms"]), 0.5) for c in full
            ),
            "freshness_p90_ms": _median(
                oracle.quantile(sorted(c.result["fresh_ms"]), 0.9) for c in full
            ),
        }
        return values, attempted, failed, properties, stamp, runs
    values = _median_layers(runs["traced"])
    untraced_s = _median(c.result["backlog_s"] for c in full)
    traced_s = _median(c.result["backlog_s"] for c in runs["traced"])
    if untraced_s:
        values["trace.traced_s"] = traced_s
        values["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return values, attempted, failed, properties, stamp, runs


# -- entry point -----------------------------------------------------------------


def metrics_block(values, trace: int):
    """The result line's ``metrics``: every declared metric of the mode, with its unit.

    A layer that a workload does not run reads 0: the live layers on the
    historical workloads, and the other way round.
    """
    names = PER_LAYER if trace else END_TO_END
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in names.items()
    }


def run_workload(args) -> bool:
    """Measure one workload and print its stamp, metric lines and result line."""
    load_before = os.getloadavg()
    workdir = os.path.join(ROOT, "ledger", "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        measure = _live if args.workload == "live" else _hist
        values, attempted, failed, properties, stamp, runs = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another invocation is still using it
    if args.trace:
        values.update({"input." + name: value for name, value in properties.items()})
        values["failed_frac"] = failed / attempted if attempted else 1.0
    metrics = metrics_block(values, args.trace)
    stamp.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "runs": {mode: len(children) for mode, children in runs.items()},
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "load_before": load_before,
            "load_per_run": [c.load for children in runs.values() for c in children],
            "load_after": os.getloadavg(),
            "page_cache": "warm",
            "inputs": properties,
        }
    )
    print("# stamp " + json.dumps(stamp, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    correct = failed == 0 and attempted > 0
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m ledger", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"ledger: no program sources under {SRC}; nothing to measure\n")
        return 2
    sys.path.insert(0, SRC)
    # Byte-compile once so no measured run pays for it, as an installed
    # package would not; the program's own caches stay cold.
    compileall.compile_dir(SRC, quiet=1)
    correct = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        args.workload = workload
        correct = run_workload(args) and correct
    return 0 if correct else 1

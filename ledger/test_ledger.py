"""Quick checks of the benchmark's own code (the long runs are not collected here)."""

import json
import os
import shutil
import subprocess
import sys

from ledger import inputs, oracle, run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _dumps(root):
    """Every dump file under ``root`` by relative path (the index left out)."""
    dumps = {}
    for base, _dirs, files in os.walk(root):
        for name in files:
            if name.endswith(".mrt.gz"):
                with open(os.path.join(base, name), "rb") as handle:
                    dumps[os.path.relpath(os.path.join(base, name), root)] = handle.read()
    return dumps


def test_same_seed_gives_identical_dumps_and_frames(tmp_path):
    first, second, other = (str(tmp_path / name) for name in ("a", "b", "c"))
    window = inputs.generate_archive(first, 3, duration=900, vps=2)
    assert inputs.generate_archive(second, 3, duration=900, vps=2) == window
    inputs.generate_archive(other, 4, duration=900, vps=2)
    dumps = _dumps(first)
    assert dumps and dumps == _dumps(second)
    assert dumps != _dumps(other)

    frames = inputs.encode_frames(inputs.live_plan(3))
    assert frames == inputs.encode_frames(inputs.live_plan(3))
    assert frames != inputs.encode_frames(inputs.live_plan(4))
    path = str(tmp_path / "frames.bin")
    inputs.write_frames(path, frames)
    assert inputs.read_frames(path) == frames


def test_oracle_rejects_a_dropped_or_reordered_elem():
    plan = inputs.live_plan(5)
    keys = inputs.elem_keys(plan)[:50]
    expect = oracle.digest(keys)
    assert oracle.count_failures(keys, list(keys)) == 0

    dropped = keys[:10] + keys[11:]
    assert oracle.digest(dropped) != expect
    assert oracle.count_failures(keys, dropped) == 1

    swapped = list(keys)
    swapped[3], swapped[4] = swapped[4], swapped[3]
    assert oracle.digest(swapped) != expect
    assert oracle.count_failures(keys, swapped) == 2


def test_slice_matcher_follows_filter_semantics():
    elem = {"time": 10, "type": "A", "peer_asn": 64500, "prefix": "10.1.2.0/24", "origin": 7}
    assert oracle.SliceMatcher({}).matches(elem)
    assert oracle.SliceMatcher({"prefix-more": ["10.1.0.0/16", "10.9.0.0/16"]}).matches(elem)
    assert oracle.SliceMatcher({"prefix-more": ["10.1.2.0/24"]}).matches(elem)
    assert not oracle.SliceMatcher({"prefix-more": ["10.1.2.0/25"]}).matches(elem)
    assert not oracle.SliceMatcher({"prefix-more": ["2001:db8::/32"]}).matches(elem)
    both = {"prefix-more": ["10.1.0.0/16"], "peer-asn": ["1"]}
    assert not oracle.SliceMatcher(both).matches(elem)
    assert not oracle.SliceMatcher({"elem-type": ["withdrawal"]}).matches(elem)
    assert oracle.SliceMatcher({"origin-asn": ["7"], "interval": [10, 12]}).matches(elem)
    assert not oracle.SliceMatcher({"interval": [11, 12]}).matches(elem)


def test_emitted_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        emitted = run.metrics_block({}, trace)
        assert {m["name"]: m["unit"] for m in spec[section]} == {
            name: metric["unit"] for name, metric in emitted.items()
        }


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(
        os.path.join(ROOT, "ledger"),
        tmp_path / "ledger",
        ignore=shutil.ignore_patterns("_work", "__pycache__"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    command = ["--workload", "live", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "-m", "ledger", *command],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=""),
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

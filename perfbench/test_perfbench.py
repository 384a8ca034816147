"""Self-tests of the benchmark: `python3 -m pytest perfbench -q`."""

from __future__ import annotations

import collections
import dataclasses
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import harness
from tracing import PER_LAYER, Tracer, layer_metrics, self_times
from workloads import DEFAULT_SEED, WORKLOADS, make_jobs

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def cli_main():
    return harness.set_up(make_jobs("default-mix", DEFAULT_SEED))["cli"].main


def _cheap_jobs():
    # one job of each check kind, the fastest of the default mix
    jobs = make_jobs("default-mix", DEFAULT_SEED)
    picked = {}
    for job in jobs:
        if job.argv[0] in ("defect", "extract", "cauchy") \
                or (job.argv[0] == "axioms" and job.argv[2] == "inner"):
            picked.setdefault((job.argv[0], job.check), job)
    return list(picked.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_jobs_are_a_pure_function_of_the_seed(workload):
    state = random.getstate()
    first = make_jobs(workload, 11)
    random.seed(12345)
    assert make_jobs(workload, 11) == first
    assert make_jobs(workload, 12) != first
    random.setstate(state)
    assert len({job.name for job in first}) == len(first)


def test_only_closed_form_relations_are_pinned():
    pins = harness.load_pins()
    for workload in WORKLOADS:
        jobs = make_jobs(workload, DEFAULT_SEED)
        assert {j.name for j in jobs if j.pinned} == set(pins[workload])
        for job in jobs:
            assert job.pinned == (job.argv[2] in ("inner", "trivial",
                                                  "bj:l2"))
            assert "--n-max" not in job.argv and "--radius" not in job.argv


def test_right_outputs_pass(cli_main):
    pins = harness.load_pins()["default-mix"]
    checker = harness.Checker(pins)
    runs = [harness.run_job(cli_main, job) for job in _cheap_jobs()]
    checker.check(runs)
    checker.check(runs)
    assert checker.attempted == 2 * len(runs) and checker.failed == 0


def test_wrong_digest_raises_failed_frac(cli_main):
    job = _cheap_jobs()[0]
    checker = harness.Checker({job.name: "0" * 64})
    checker.check([harness.run_job(cli_main, job)])
    assert checker.failed / checker.attempted > 0
    assert "pinned digest" in checker.failures[0]


def test_wrong_exit_code_raises_failed_frac(cli_main):
    job = _cheap_jobs()[0]
    wrong = dataclasses.replace(job, expect_exit=job.expect_exit + 1)
    checker = harness.Checker({})
    checker.check([harness.run_job(cli_main, wrong)])
    assert checker.failed == 1 and "exit" in checker.failures[0]


def test_changed_bytes_between_runs_fail(cli_main):
    job = _cheap_jobs()[0]
    run = harness.run_job(cli_main, job)
    checker = harness.Checker({})
    checker.check([run])
    changed = dataclasses.replace(run, stdout=run.stdout.replace(
        "\n", "\n ", 1))
    checker.check([changed])
    assert checker.failed == 1 and "first run" in checker.failures[0]


def test_crashing_job_fails():
    def crash(argv):
        raise RuntimeError("boom")

    checker = harness.Checker({})
    checker.check([harness.run_job(crash, _cheap_jobs()[0])])
    assert checker.failed == 1 and "boom" in checker.failures[0]


def test_traced_bytes_are_identical(cli_main):
    jobs = _cheap_jobs()
    plain = [harness.run_job(cli_main, job).stdout for job in jobs]
    mods = harness.load_orthostab()
    tracer = Tracer()
    tracer.install(mods)
    try:
        main = tracer.root(mods["cli"].main)
        traced = [harness.run_job(main, job).stdout for job in jobs]
    finally:
        tracer.uninstall()
    assert traced == plain
    spans, counters = tracer.take()
    assert sum(1 for s in spans if s[0] == "cli.main") == len(jobs)
    assert counters["funcspace.map_calls"] > 0
    m = layer_metrics(spans, counters, 0)
    assert set(m) | {"trace.overhead_frac", "bench.reference_s"} == set(
        PER_LAYER)
    assert m["trace.wall_s"] > 0 and m["cli.json_bytes"] == sum(
        len(text) - 1 for text in plain)


def test_every_traced_round_has_its_own_spans():
    mods = harness.load_orthostab()
    tracer = Tracer()
    tracer.install(mods)
    taken = []

    def take(runs, rnd):
        assert [run.seconds for run in runs] == rnd.seconds
        assert all(run.stdout for run in runs)
        taken.append(tracer.take())

    try:
        rounds = harness.run_rounds(tracer.root(mods["cli"].main),
                                    _cheap_jobs(), 0.5, take)
    finally:
        tracer.uninstall()
    assert len(rounds) == len(taken) > 1
    # a round keeps no outputs, so memory does not grow with rounds
    assert all(set(vars(rnd)) == {"seconds", "reference"} for rnd in rounds)
    for spans, _ in taken:
        assert sum(1 for s in spans if s[0] == "cli.main") == len(
            _cheap_jobs())


def test_uninstall_restores_the_package():
    mods = harness.load_orthostab()
    before = {name: dict(vars(mod)) for name, mod in mods.items()}
    call = mods["funcspace"].MapHandle.__call__
    tracer = Tracer()
    tracer.install(mods)
    tracer.uninstall()
    assert {name: dict(vars(mod)) for name, mod in mods.items()} == before
    assert mods["funcspace"].MapHandle.__call__ is call


def test_self_time_subtracts_children():
    spans = [["cli.main", 0.0, 10.0, -1],
             ["stability.pipeline", 1.0, 9.0, 0],
             ["orthogonality.thalesian", 2.0, 4.0, 1],
             ["orthogonality.bj_margin", 2.5, 3.0, 2],
             ["funcspace.sup_distance", 5.0, 6.0, 1]]
    assert self_times(spans) == [2.0, 5.0, 1.5, 0.5, 1.0]
    m = layer_metrics(spans, collections.Counter(), 0)
    assert m["stability.pipeline_self_s"] == 5.0
    assert m["orthogonality.self_s"] == 2.0
    assert m["orthogonality.cover_frac"] == 0.2


def test_recursive_serializer_is_timed_once():
    mods = harness.load_orthostab()
    tracer = Tracer()
    tracer.install(mods)
    try:
        text = mods["cli"].dump_json_17g({"a": [1.0, {"b": 2}], "c": None})
    finally:
        tracer.uninstall()
    spans, counters = tracer.take()
    assert [s[0] for s in spans] == ["cli.serialize"]
    assert counters["cli.json_bytes"] == len(text)


def test_fails_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (bench / "digests.json").write_text((HERE / "digests.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "default-mix",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_digests_file_is_sorted_json():
    text = (HERE / "digests.json").read_text()
    assert text == json.dumps(json.loads(text), indent=1,
                              sort_keys=True) + "\n"


def test_benchmark_json_matches_the_code():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in doc["per_layer"]} == PER_LAYER
    rnd = harness.Round([1.0], 0.004)
    e2e = harness.end_to_end([rnd], 0.1, 50.0)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == {
        name: unit for name, (_, unit) in e2e.items()}

"""The orthostab benchmark.

    python3 perfbench/run.py --workload default-mix --seed 0 \
        --seconds 44 --trace 0

Sets up (import, parse, build relations and instances) several times,
then runs the workload's job list in rounds, back to back, until
`--seconds` are used.  `--trace 0` prints the end-to-end metrics;
`--trace 1` spends half the time untraced and half with spans
recorded from outside the package, prints the per-layer metrics, and
writes the spans to `perfbench/out/` when the run ends.  The last line
of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.

`--pin-digests` rewrites `digests.json` from the pinned jobs of every
workload at the default seed; a change that alters the `--json` bytes
on purpose re-pins and says why.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402
from tracing import PER_LAYER, Tracer, layer_metrics  # noqa: E402
from workloads import (DEFAULT_SEED, KNOWN_DEFECTS, WORKLOADS,  # noqa: E402
                       Job, make_jobs)

OUT = Path(__file__).resolve().parent / "out"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=44.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pin-digests", action="store_true")
    args = p.parse_args(argv)
    if args.workload is None and not args.pin_digests:
        p.error("--workload is required")
    return args


def _traced(mods, jobs, budget, checker, untraced_wall, out_file):
    """Traced rounds; returns the per-layer metrics with their units.

    `untraced_wall` is the untraced median round in reference seconds.
    """
    tracer = Tracer()
    tracer.install(mods)
    main = tracer.root(mods["cli"].main)
    per_round, kept, reference = [], [], []

    def take(runs, rnd):
        spans, counters = tracer.take()
        checker.check(runs)
        per_round.append(layer_metrics(
            spans, counters, harness.split_witness_attempts(runs),
            rnd.scale))
        kept.append(spans)
        reference.append(rnd.reference)

    try:
        harness.run_rounds(main, jobs, budget, take)
    finally:
        tracer.uninstall()
    metrics = {k: statistics.median(m[k] for m in per_round)
               for k in per_round[0]}
    metrics["trace.overhead_frac"] = (
        metrics["trace.wall_s"] / untraced_wall - 1.0)
    metrics["bench.reference_s"] = statistics.median(reference)
    OUT.mkdir(exist_ok=True)
    with open(out_file, "w", encoding="ascii") as fh:
        for rnd, spans in enumerate(kept):
            job = []  # the root span of each span's job
            for idx, (name, start, end, parent) in enumerate(spans):
                job.append(idx if parent < 0 else job[parent])
                fh.write(json.dumps({"round": rnd, "id": idx, "job": job[idx],
                                     "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
    return {k: (metrics[k], PER_LAYER[k][0]) for k in PER_LAYER}


def _pin_digests():
    pins = {}
    for workload in WORKLOADS:
        jobs = [j for j in make_jobs(workload, DEFAULT_SEED) if j.pinned]
        mods = harness.set_up(jobs)
        pins[workload] = {}
        runs, _ = harness.run_round(mods["cli"].main, jobs)
        for run in runs:
            why = harness.problem(run, None, None)
            if why:
                raise SystemExit(f"not pinned, {run.job.name}: {why}")
            pins[workload][run.job.name] = harness.digest(run.stdout)
    harness.DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True)
                               + "\n")
    print(f"pinned {sum(map(len, pins.values()))} digests in "
          f"{harness.DIGESTS}")


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        if args.pin_digests:
            _pin_digests()
            return 0
        jobs = make_jobs(args.workload, args.seed)
        mods, setup_s = harness.timed_set_up(jobs)
        pins = (harness.load_pins()[args.workload]
                if args.seed == DEFAULT_SEED else {})
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2

    checker = harness.Checker(pins)
    budget = args.seconds / 2 if args.trace else args.seconds
    rounds = harness.run_rounds(mods["cli"].main, jobs, budget,
                                lambda runs, _: checker.check(runs))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    known = [(harness.run_job(mods["cli"].main,
                              Job(" ".join(cmd), cmd, 0, "", False)), what)
             for cmd, what in KNOWN_DEFECTS.get(args.workload, ())]
    metrics = harness.end_to_end(rounds, setup_s, peak_rss_mb)
    if args.trace:
        out_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics = _traced(mods, jobs, args.seconds - budget, checker,
                          metrics["wall_s"][0], out_file)

    print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs a "
          f"round, {len(rounds)} untraced rounds; times in reference "
          f"seconds, median "
          f"{statistics.median(r.scale for r in rounds):.4g} per measured "
          f"second")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    p90 = harness.job_p90(rounds)
    if not args.trace and p90 is not None:
        print(f"  {'job_p90_s':36s} {p90[0]:.6g} s ({p90[1]} of "
              f"{len(rounds) * len(jobs)} jobs beyond it)")
    print(f"  {'failed_frac':36s} "
          f"{checker.failed / checker.attempted:.6g} "
          f"({checker.failed} of {checker.attempted} jobs)")
    for line in checker.failures[:20]:
        print(f"  FAILED {line}")
    for run, what in known:
        outcome = (run.error.strip().splitlines()[-1] if run.error
                   else f"exit {run.exit_code}")
        print(f"  known defect, not gated: orthostab {run.job.name} -> "
              f"{outcome} ({what})")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

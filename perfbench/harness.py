"""Set-up, the closed job loop, output checks and end-to-end metrics.

One client issues the jobs of a workload back to back, each through
`orthostab.cli.main(argv + ["--json", "-"])` with standard output and
error captured.  A job fails on a wrong exit code, a failing verdict,
bytes that differ from the pinned digest or from the job's first run,
or an exception.

Times are reported in reference seconds.  On a shared virtual machine
the speed of the processor drifts by a third over minutes, which no
number of rounds averages out.  So each round and each set-up times a
fixed computation that does not use `orthostab` between its jobs, and
its measured times are multiplied by `REFERENCE_S` over the median of
those samples: a reference second is a second on a machine where the
reference computation takes `REFERENCE_S`.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import AXIOMS, DEFECT, DIVERGED, REPORT, Job

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

MODULES = ("orthogonality", "funcspace", "fixedpoint", "stability",
           "perturb", "cli")

SETUP_REPEATS = 11

# the reference computation's time at the machine's usual speed
REFERENCE_S = 0.004
REFERENCE_EVERY = 0.25


def reference_work() -> float:
    """A fixed computation that uses no `orthostab` code: small numpy
    calls in a Python loop, as in the Birkhoff-James search, then
    array-wide operations, as in evaluating maps on a grid."""
    x = np.linspace(-1.0, 1.0, 3)
    y = np.array([0.5, -2.0, 1.5])
    acc = 0.0
    for t in np.linspace(-4.0, 4.0, 400):
        acc += float(np.max(np.abs(x + t * y)))
    pts = np.linspace(0.0, 1.0, 60000).reshape(-1, 3)
    acc += float(np.sum(np.sqrt(np.sum(pts * pts, axis=-1))))
    return acc + float(np.sum(np.cos(pts @ y)))


def time_reference(times: int = 1) -> list:
    """`times` timings of `reference_work`, in seconds."""
    out = []
    for _ in range(times):
        t0 = time.perf_counter()
        reference_work()
        out.append(time.perf_counter() - t0)
    return out


def load_orthostab() -> dict:
    """Import `orthostab` afresh from `src/`; layer name -> module."""
    if not (SRC / "orthostab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no orthostab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "orthostab" or n.startswith("orthostab.")]:
        del sys.modules[name]
    return {m: importlib.import_module(f"orthostab.{m}") for m in MODULES}


def _relation(mods: dict, name: str, symmetrize: bool):
    orth = mods["orthogonality"]
    if name == "trivial":
        return orth.trivial_relation()
    if name == "inner":
        return orth.inner_product_relation()
    rel = orth.birkhoff_james_relation(name.split(":", 1)[1])
    return orth.symmetrize_relation(rel) if symmetrize else rel


def _build_instance(mods: dict, args):
    per = mods["perturb"]
    gt = per.random_ground_truth(args.dim, delta=args.delta, seed=args.seed)
    if args.command == "cauchy":
        per.compose_cauchy_instance(gt)
    elif args.command == "quadratic":
        per.compose_quadratic_instance(gt)
    else:
        per.compose_pexider_instance(gt)
    if getattr(args, "cubic", None) is not None:
        per.make_cubic_growth(args.cubic, args.dim, args.dim)


def set_up(jobs: list) -> dict:
    """Import the package, parse every job's command line, and build
    each job's relation and instance.  Returns the layer modules."""
    mods = load_orthostab()
    for job in jobs:
        args = mods["cli"].parse_args(list(job.argv))
        _relation(mods, args.relation,
                  args.relation in ("bj:l1", "bj:linf"))
        if args.command != "axioms":
            _build_instance(mods, args)
    return mods


def timed_set_up(jobs: list):
    """Set up `SETUP_REPEATS` times, the reference timed between them.

    Returns the modules of the last set-up and the median set-up time
    in reference seconds.
    """
    times, reference = [], []
    for _ in range(SETUP_REPEATS):
        reference += time_reference(2)
        t0 = time.perf_counter()
        mods = set_up(jobs)
        times.append(time.perf_counter() - t0)
    scale = REFERENCE_S / statistics.median(reference)
    return mods, scale * statistics.median(times)


@dataclass
class JobRun:
    job: Job
    exit_code: int | None
    stdout: str
    seconds: float
    error: str = ""


def run_job(main, job: Job) -> JobRun:
    out, err = io.StringIO(), io.StringIO()
    error = ""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(job.argv) + ["--json", "-"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crashing job is a failed job, not a lost run
        code, error = None, traceback.format_exc()
    seconds = time.perf_counter() - t0
    return JobRun(job, code, out.getvalue(), seconds, error)


@dataclass
class Round:
    """What a round keeps once its outputs are checked: no outputs, so
    the memory of a run does not grow with its number of rounds."""
    seconds: list       # each job's measured time, in job order
    reference: float    # median time of the reference computation

    @property
    def scale(self) -> float:
        """Reference seconds per measured second."""
        return REFERENCE_S / self.reference

    @property
    def wall(self) -> float:
        """Reference seconds the jobs took, back to back."""
        return self.scale * sum(self.seconds)


def run_round(main, jobs: list):
    """All jobs back to back; returns their runs and the `Round`.

    The reference is timed five times before the round and after it,
    and between jobs at most every `REFERENCE_EVERY` s.
    """
    runs, reference = [], time_reference(5)
    last = time.perf_counter()
    for job in jobs:
        if time.perf_counter() - last >= REFERENCE_EVERY:
            reference += time_reference()
            last = time.perf_counter()
        runs.append(run_job(main, job))
    reference += time_reference(5)
    return runs, Round([run.seconds for run in runs],
                       statistics.median(reference))


def run_rounds(main, jobs: list, budget: float, on_round) -> list:
    """Rounds until the next one would end past `budget`; at least one.

    `on_round(runs, round)` checks each round's runs, outside its
    timing; only the `Round`s are kept.
    """
    rounds = []
    t0 = time.perf_counter()
    while True:
        runs, rnd = run_round(main, jobs)
        on_round(runs, rnd)
        del runs  # free the outputs before the next round runs
        rounds.append(rnd)
        typical = statistics.median(r.wall / r.scale for r in rounds)
        if time.perf_counter() - t0 + typical > budget:
            return rounds


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def load_pins() -> dict:
    return json.loads(DIGESTS.read_text())


def _number(v) -> float:
    # non-finite floats are serialized as strings
    return float(v) if isinstance(v, (int, float)) else math.nan


def _verdict_problem(job: Job, doc: dict) -> str:
    if job.check == REPORT:
        return "" if doc["report"]["passed"] is True else "report failed"
    if job.check == AXIOMS:
        return "" if doc["axioms"]["passed"] is True else "axioms failed"
    if job.check == DEFECT:
        # four maps, each within delta of an exact solution
        eps = _number(doc["defects"]["pexider"])
        limit = 4.0 * doc["config"]["delta"] + 1e-8
        return "" if 0.0 <= eps <= limit else f"defect {eps} > {limit}"
    if job.check == DIVERGED:
        verdicts = ([it["verdict"] for it in doc["iterations"].values()]
                    if "iterations" in doc
                    else [doc["divergence"]["verdict"]])
        return "" if "diverged" in verdicts else f"verdicts {verdicts}"
    raise ValueError(f"unknown check {job.check!r}")


def problem(run: JobRun, pinned: str | None, reference: str | None) -> str:
    """Why `run` failed, or "" when its output is right.

    `pinned` is the digest the bytes must have, `reference` the digest
    of the same job's first run; either may be None.
    """
    if run.error:
        return run.error.strip().splitlines()[-1]
    if run.exit_code != run.job.expect_exit:
        return f"exit {run.exit_code}, expected {run.job.expect_exit}"
    try:
        doc = json.loads(run.stdout)
        why = _verdict_problem(run.job, doc)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    if why:
        return why
    got = digest(run.stdout)
    if pinned is not None and got != pinned:
        return "bytes differ from the pinned digest"
    if reference is not None and got != reference:
        return "bytes differ from the first run"
    return ""


class Checker:
    """Checks job runs; counts attempts and failures across rounds."""

    def __init__(self, pins: dict):
        self.pins = pins
        self.first: dict = {}
        self.attempted = 0
        self.failures: list = []

    def check(self, runs: list):
        for run in runs:
            name = run.job.name
            why = problem(run, self.pins.get(name) if run.job.pinned
                          else None, self.first.get(name))
            self.first.setdefault(name, digest(run.stdout))
            self.attempted += 1
            if why:
                self.failures.append(f"{name}: {why}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def split_witness_attempts(runs: list) -> int:
    total = 0
    for run in runs:
        if run.job.check == REPORT and run.exit_code == 0:
            diag = json.loads(run.stdout)["report"]["diagnostics"]
            total += diag["split_witness_attempts"]
    return total


def _job_seconds(rounds: list) -> list:
    return [r.scale * s for r in rounds for s in r.seconds]


def end_to_end(rounds: list, setup_s: float, peak_rss_mb: float) -> dict:
    """The end-to-end metrics of untraced rounds, with their units."""
    return {
        "wall_s": (statistics.median(r.wall for r in rounds), "s"),
        "job_p50_s": (statistics.median(_job_seconds(rounds)), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def job_p90(rounds: list):
    """(p90 of job reference seconds, jobs beyond it), or None when
    fewer than ten jobs lie beyond the 90th percentile."""
    jobs = _job_seconds(rounds)
    if len(jobs) < 100:
        return None
    p90 = statistics.quantiles(jobs, n=10)[-1]
    return p90, sum(1 for s in jobs if s > p90)

"""The benchmark's workloads: fixed job lists derived from a seed.

A job is one `orthostab` command line plus what its output must be.
Every job's `--seed` comes from a private `random.Random` seeded with
the workload name and the workload seed, so a job list is a pure
function of `(workload, seed)` and never touches global random state.

Jobs on closed-form relations (`inner`, `trivial`, `bj:l2`) are
*pinned*: at `DEFAULT_SEED` the SHA-256 of their `--json` bytes must
equal the digest stored in `digests.json`.  Jobs on `bj:l1` and
`bj:linf` are checked by verdict only, because an exact
Birkhoff-James layer changes their sampled pairs by design.

Command lines whose outcome is known to be wrong at the seed commit
are left out of every job list, so that their fix does not read as a
benchmark failure; `KNOWN_DEFECTS` runs them once per run, after the
timed rounds, and the benchmark prints what they did without gating
on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

DEFAULT_SEED = 0

CLOSED_FORM = ("inner", "trivial", "bj:l2")
DELTAS = ("0", "0.001", "0.01")

# what the output of a job must show, besides its exit code
REPORT = "report"          # report["passed"] is true
AXIOMS = "axioms"          # axioms["passed"] is true
DEFECT = "defect"          # pexider defect within 4 * delta
DIVERGED = "diverged"      # some extraction verdict is "diverged"


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple
    expect_exit: int
    check: str
    pinned: bool


# workload -> [(argv, what is wrong at the seed commit)]
KNOWN_DEFECTS = {
    "default-mix": [
        (("report", "--n-max", "0", "--delta", "0.01"),
         "an exhausted budget exits 3 (diverged); extract exits 1"),
        (("report", "--radius", "1e-300"),
         "raises ZeroDivisionError instead of exiting 2"),
    ],
    "bj-polyhedral": [
        (("report", "--relation", "bj:l1", "--dim", "2", "--pairs", "24",
          "--samples", "24", "--delta", "0.001", "--seed", "42622"),
         "the dim-2 pair sampler finds no Birkhoff-James partner: exit 2"),
    ],
}


def _job(rng: random.Random, command: str, relation: str, extra=(),
         expect_exit: int = 0, check: str = REPORT) -> Job:
    seed = rng.randrange(1, 100_000)
    argv = (command, "--relation", relation, *extra, "--seed", str(seed))
    name = "-".join([command, relation.replace(":", "_"),
                     *(a.lstrip("-") for a in extra), str(seed)])
    return Job(name, argv, expect_exit, check, relation in CLOSED_FORM)


def _default_mix(rng: random.Random) -> list:
    jobs = []
    for command, check in (("report", REPORT), ("cauchy", REPORT),
                           ("quadratic", REPORT), ("defect", DEFECT)):
        for relation in CLOSED_FORM:
            for delta in DELTAS:
                for _ in range(2):
                    jobs.append(_job(rng, command, relation,
                                     ("--delta", delta), check=check))
    for relation in CLOSED_FORM:
        for _ in range(4):
            jobs.append(_job(rng, "axioms", relation, check=AXIOMS))
        for command in ("extract", "quadratic"):
            for _ in range(2):
                jobs.append(_job(rng, command, relation, ("--cubic", "1.0"),
                                 expect_exit=3, check=DIVERGED))
    return jobs


def _inner_large(rng: random.Random) -> list:
    # a sixteenth of the ROADMAP's 16384 x 16384 case, four times over,
    # so that a run holds enough rounds for a steady median
    return [_job(rng, "report", "inner",
                 ("--pairs", "4096", "--samples", "4096", "--delta", "0.01"))
            for _ in range(4)]


def _bj_polyhedral(rng: random.Random) -> list:
    # dim 3: in dim 2 the pair sampler fails at some seeds (the
    # KNOWN_DEFECTS reproducer), and every seed's job list must pass
    return [
        _job(rng, "report", "bj:l1",
             ("--dim", "3", "--pairs", "24", "--samples", "24",
              "--delta", "0.001")),
        _job(rng, "report", "bj:linf",
             ("--dim", "3", "--pairs", "24", "--samples", "24",
              "--delta", "0.01")),
        _job(rng, "axioms", "bj:linf", ("--dim", "3", "--samples", "12"),
             check=AXIOMS),
    ]


_JOB_LISTS = {
    "default-mix": _default_mix,
    "inner-large": _inner_large,
    "bj-polyhedral": _bj_polyhedral,
}

WORKLOADS = tuple(_JOB_LISTS)


def make_jobs(workload: str, seed: int) -> list:
    """The job list of `workload` at workload seed `seed`."""
    rng = random.Random(f"orthostab-bench:{workload}:{seed}")
    return [replace(job, name=f"{i:02d}-{job.name}")
            for i, job in enumerate(_JOB_LISTS[workload](rng))]

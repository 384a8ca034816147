"""Command-line front end.

Subcommands:

* ``axioms``     probe an orthogonality relation's axioms on random data
* ``defect``     measure the equation defect of a generated instance
* ``extract``    run the four component extractions and report verdicts
* ``report``     full stability pipeline with every certified bound
* ``cauchy``     the additive specialization (g = 0, sharper constants)
* ``quadratic``  the purely quadratic specialization

Exit codes: 0 all verified, 1 a bound, an axiom or the corrector's
doubling identity failed, 2 bad input or an internal error, 3 an
extraction diverged.  A run prints at most one ``error:`` line and
never a traceback.

Each subcommand returns its exit code, its human-readable lines, the
body of its JSON report and its CSV table, and one writer puts them out.
``--json PATH`` writes the body after the run's ``config``, ``--csv
PATH`` the table, each row ending in CRLF; ``-`` for either one (not
both) writes it to stdout in place of the lines.  A path that cannot be
written is bad input; one in a directory that does not exist is refused
before the run.  Floats get 17 significant digits and no
timestamps, so identical configurations give identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import math
import os
import sys

import numpy as np

from .funcspace import EvaluationError, make_grid, map_sum
from .orthogonality import (DimensionMismatchError, PairGenerationError,
                            ThalesianNotFoundError, birkhoff_james_relation,
                            check_axioms, inner_product_relation,
                            sample_orthogonal_pairs, symmetrize_relation,
                            trivial_relation)
from .perturb import (compose_cauchy_instance, compose_pexider_instance,
                      compose_quadratic_instance, make_cubic_growth,
                      random_ground_truth)
from .stability import (DivergenceError, DoublingIdentityError,
                        PipelineConfig, closure_pairs,
                        derive_normalized_parts, doubling_defect,
                        extract_even, extract_odd, mixed_parity_defect,
                        pexider_defect, run_cauchy_corollary,
                        run_main_theorem, run_quadratic_corollary)

__all__ = ["main", "parse_args", "execute", "dump_json_17g"]

_RELATIONS = ("trivial", "inner", "bj:l1", "bj:l2", "bj:linf")


def _build_relation(name: str):
    if name == "trivial":
        return trivial_relation()
    if name == "inner":
        return inner_product_relation()
    # "bj:l1" -> the shorthand "l1", which birkhoff_james_relation reads
    return birkhoff_james_relation(name.split(":", 1)[1])


def _fmt(v: float) -> str:
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "Infinity" if v > 0 else "-Infinity"
    return f"{v:.17g}"


def dump_json_17g(obj, indent: int = 0) -> str:
    """Serialize to JSON with floats at 17 significant digits.

    Dict order is preserved; non-finite floats become strings.  The
    output is a pure function of the input, so equal reports serialize
    to identical bytes.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{inner}"{key}": {dump_json_17g(val, indent + 1)}'
                for key, val in obj.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        rows = [f"{inner}{dump_json_17g(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(float(obj)) if math.isfinite(obj) else f'"{_fmt(obj)}"'
    if obj is None:
        return "null"
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="orthostab",
        description="numerical stability laboratory for the pexiderized "
                    "quadratic equation on orthogonality spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--relation", choices=_RELATIONS, default="inner",
                        help="orthogonality relation (default inner)")
    common.add_argument("--dim", type=int, default=3,
                        help="ambient dimension (default 3)")
    common.add_argument("--samples", type=int, default=256,
                        help="grid sample count (default 256)")
    common.add_argument("--pairs", type=int, default=512,
                        help="orthogonal pair count (default 512)")
    common.add_argument("--radius", type=float, default=8.0,
                        help="sampling radius (default 8)")
    common.add_argument("--delta", type=float, default=0.0,
                        help="perturbation level (default 0)")
    common.add_argument("--seed", type=int, default=42,
                        help="master seed (default 42)")
    common.add_argument("--tol", type=float, default=1e-10,
                        help="iteration tolerance (default 1e-10)")
    common.add_argument("--n-max", type=int, default=40,
                        help="iteration budget (default 40)")
    common.add_argument("--json", metavar="PATH", default=None,
                        help="write a JSON report to PATH, or - for stdout")
    common.add_argument("--csv", metavar="PATH", default=None,
                        help="write a CSV table to PATH, or - for stdout")

    sub.add_parser("axioms", parents=[common],
                   help="probe the relation's axioms")
    sub.add_parser("defect", parents=[common],
                   help="measure the equation defect of an instance")
    p_extract = sub.add_parser("extract", parents=[common],
                               help="run the component extractions")
    p_extract.add_argument("--cubic", type=float, metavar="AMP",
                           default=None,
                           help="contaminate f with AMP*||x||^3")
    sub.add_parser("report", parents=[common],
                   help="full stability report")
    sub.add_parser("cauchy", parents=[common],
                   help="additive specialization report")
    p_quad = sub.add_parser("quadratic", parents=[common],
                            help="quadratic specialization report")
    p_quad.add_argument("--cubic", type=float, metavar="AMP", default=None,
                        help="contaminate the instance with AMP*||x||^3")

    return parser.parse_args(argv)


def _config_echo(args: argparse.Namespace, auto_sym: bool) -> dict:
    doc = {key: getattr(args, key) for key in (
        "command", "relation", "dim", "samples", "pairs", "radius", "delta",
        "seed", "tol", "n_max")}
    doc["auto_symmetrized"] = auto_sym
    cubic = getattr(args, "cubic", None)
    if cubic is not None:
        doc["cubic"] = cubic
    return doc


def _tag(passed: bool, informational: bool = False) -> str:
    tag = "pass" if passed else "fail"
    return "info-" + tag if informational else tag.upper()


def _gap_ends(res) -> tuple:
    """First and last raw gap of an extraction, 0 for a run with none."""
    return (res.raw_gaps[0], res.raw_gaps[-1]) if res.raw_gaps else (0.0, 0.0)


def _iteration_table(runs: dict) -> list:
    return [["component", "verdict", "steps", "first_gap", "last_gap"],
            *([name, res.verdict, res.n_steps, *map(_fmt, _gap_ends(res))]
              for name, res in runs.items())]


def _cmd_axioms(args: argparse.Namespace, rel) -> tuple:
    report = check_axioms(rel, args.dim, n_samples=args.samples,
                          seed=args.seed, radius=args.radius)
    lines = [f"relation: {report.relation['kind']} (dim {args.dim})",
             *(f"  {_tag(c.passed, name == 'symmetry'):9s} {name:16s} "
               f"tested={c.tested} failures={c.failures}"
               for name, c in report.checks.items()),
             f"overall: {_tag(report.passed)} "
             f"(symmetric: {report.symmetric})"]
    table = [["name", "verdict", "tested", "failures"],
             *([name, _tag(c.passed).lower(), c.tested, c.failures]
               for name, c in report.checks.items())]
    return (0 if report.passed else 1,
            lines, {"axioms": report.to_dict()}, table)


def _cmd_defect(args: argparse.Namespace, rel) -> tuple:
    gt = random_ground_truth(args.dim, delta=args.delta, seed=args.seed)
    f, g, h, k = compose_pexider_instance(gt)
    pairs = sample_orthogonal_pairs(rel, args.dim, args.pairs,
                                    radius=args.radius, seed=args.seed)
    grid = make_grid(args.dim, args.samples, args.radius, args.seed + 1)
    closed = closure_pairs(pairs, grid)
    eps = pexider_defect(f, g, h, k, closed)
    dbl = doubling_defect(f, grid)
    mix = mixed_parity_defect(f, grid)
    lines = [f"pexider defect:      {eps:.6e}",
             f"even doubling:       {dbl:.6e}",
             f"mixed parity:        {mix:.6e}",
             f"pairs measured:      {closed.shape[0]}"]
    defects = {"pexider": eps, "even_doubling": dbl,
               "literal_mixed_parity": mix}
    body = {"defects": defects, "closure_pair_count": int(closed.shape[0])}
    table = [["name", "value"],
             *([name, _fmt(v)] for name, v in defects.items())]
    return 0, lines, body, table


def _cmd_extract(args: argparse.Namespace, rel) -> tuple:
    # the extractions read no orthogonality relation
    gt = random_ground_truth(args.dim, delta=args.delta, seed=args.seed)
    f, g, h, k = compose_pexider_instance(gt)
    if args.cubic is not None:
        f = map_sum(f, make_cubic_growth(args.cubic, args.dim, args.dim),
                    label="f+cubic")
    parts = derive_normalized_parts(f, g, h, k)
    grid = make_grid(args.dim, args.samples, args.radius, args.seed + 1)
    runs = {name: extractor(phi, grid, tol=args.tol, n_max=args.n_max)[1]
            for name, phi, extractor in (
                ("R", parts.Fo, extract_odd),
                ("R_prime", parts.Go, extract_odd),
                ("S", parts.Fe, extract_even),
                ("S_prime", parts.Ge, extract_even))}
    lines = [f"  {name:8s} {res.verdict:28s} steps={res.n_steps:3d} "
             f"gap0={first:.3e} gapN={last:.3e}"
             for name, res in runs.items() for first, last in [_gap_ends(res)]]
    body = {"iterations": {
        name: {"verdict": res.verdict, "n_steps": res.n_steps,
               "lam": res.lam, "per_step_distances": res.per_step_distances,
               "raw_gaps": res.raw_gaps}
        for name, res in runs.items()}}
    verdicts = {res.verdict for res in runs.values()}
    code = (3 if "diverged" in verdicts else
            0 if verdicts == {"converged"} else 1)
    return code, lines, body, _iteration_table(runs)


def _cmd_report(args: argparse.Namespace, rel) -> tuple:
    """The full pipeline for ``report``, ``cauchy`` or ``quadratic``."""
    cfg = PipelineConfig(pair_count=args.pairs, grid_count=args.samples,
                         radius=args.radius, seed=args.seed, tol=args.tol,
                         n_max=args.n_max)
    gt = random_ground_truth(args.dim, delta=args.delta, seed=args.seed)
    try:
        if args.command == "report":
            report = run_main_theorem(rel, *compose_pexider_instance(gt), cfg)
        elif args.command == "cauchy":
            report = run_cauchy_corollary(rel, *compose_cauchy_instance(gt),
                                          cfg)
        else:
            q = compose_quadratic_instance(gt)
            contaminant = (None if args.cubic is None else
                           make_cubic_growth(args.cubic, args.dim, args.dim))
            report = run_quadratic_corollary(rel, q, cfg,
                                             contaminant=contaminant)
    except DivergenceError as err:
        res = err.result
        print(f"divergence in component {err.component!r}: "
              f"{res.verdict} after {res.n_steps} steps", file=sys.stderr)
        body = {"divergence": {"component": err.component,
                               "verdict": res.verdict,
                               "n_steps": res.n_steps,
                               "raw_gaps": res.raw_gaps}}
        # an exhausted budget is a failed bound, as in extract
        return (3 if res.verdict == "diverged" else 1,
                [], body, _iteration_table({err.component: res}))
    d, nec = report.defects, report.necessity
    lines = [f"relation: {report.relation['kind']} (dim {report.dim}, "
             f"{args.command})",
             f"pexider defect:      {d.pexider:.6e}",
             f"even doubling:       {d.even_doubling:.6e}",
             f"mixed parity:        {d.literal_mixed_parity:.6e}",
             "bounds:",
             *(f"  {_tag(c.passed, c.informational):9s} {c.name:24s} "
               f"measured={c.measured:.6e} bound={c.bound:.6e} "
               f"ratio={c.ratio:.3e}" for c in report.bounds),
             f"necessity check:     {_tag(nec['passed'])} "
             f"(measured={nec['measured']:.6e}, bound={nec['bound']:.6e})",
             f"overall: {_tag(report.passed)} "
             f"(eps_hat={report.eps_hat:.6e})"]
    table = [["name", "coefficient", "measured", "bound", "ratio",
              "verdict", "informational"],
             *([c.name, _fmt(c.coefficient), _fmt(c.measured), _fmt(c.bound),
                _fmt(c.ratio), _tag(c.passed).lower(),
                "yes" if c.informational else "no"] for c in report.bounds)]
    return (0 if report.passed else 1,
            lines, {"report": report.to_dict()}, table)


_COMMANDS = {
    "axioms": _cmd_axioms,
    "defect": _cmd_defect,
    "extract": _cmd_extract,
    "report": _cmd_report,
    "cauchy": _cmd_report,
    "quadratic": _cmd_report,
}


def _output(path: str):
    return (contextlib.nullcontext(sys.stdout) if path == "-" else
            open(path, "w", newline="", encoding="ascii"))


def _write(args: argparse.Namespace, auto_sym: bool, code: int,
           lines: list, body: dict, table: list) -> int:
    """Put out a command's result as asked; returns the exit code."""
    if "-" not in (args.json, args.csv):
        for line in lines:
            print(line)
    try:
        if args.json:
            text = dump_json_17g({"config": _config_echo(args, auto_sym),
                                  **body})
            with _output(args.json) as fh:
                fh.write(text + "\n")
        if args.csv:
            with _output(args.csv) as fh:
                csv.writer(fh).writerows(table)
    except OSError as err:
        # an output path that cannot be opened or written is bad input
        print(f"error: {err}", file=sys.stderr)
        return 2
    return code


def execute(args: argparse.Namespace) -> int:
    """Run a parsed command; returns the process exit code."""
    if args.dim < 2:
        print("error: --dim must be at least 2 (orthogonality needs "
              "independent directions)", file=sys.stderr)
        return 2
    if args.samples < 2 or args.pairs < 2:
        print("error: --samples and --pairs must be at least 2",
              file=sys.stderr)
        return 2
    if not (args.radius > 0 and args.tol > 0 and args.delta >= 0):
        print("error: --radius and --tol must be positive, --delta "
              "nonnegative", file=sys.stderr)
        return 2
    if 0.1 * args.radius < math.sqrt(sys.float_info.min):
        # sampled points lie at least 0.1*radius from the origin, and
        # the closed-form relations divide by their squared norms
        print(f"error: --radius {args.radius:g} is too small: squared "
              "norms of sampled points underflow", file=sys.stderr)
        return 2
    if args.radius > math.sqrt(sys.float_info.max):
        # sampled points lie up to radius from the origin; past this
        # their squared norms overflow and numpy warns before any
        # measurement can reject the run
        print(f"error: --radius {args.radius:g} is too large: squared "
              "norms of sampled points overflow", file=sys.stderr)
        return 2
    if args.n_max < 0:
        print("error: --n-max must be nonnegative", file=sys.stderr)
        return 2
    if args.json == "-" and args.csv == "-":
        print("error: --json - and --csv - cannot both write to stdout",
              file=sys.stderr)
        return 2
    for path in (args.json, args.csv):
        # refused before the run; other write failures show when writing
        if path not in (None, "-") and not os.path.exists(
                os.path.dirname(path) or "."):
            err = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT),
                                    path)
            print(f"error: {err}", file=sys.stderr)
            return 2
    try:
        rel = _build_relation(args.relation)
        # the pipeline uses sampled pairs in both roles, which needs a
        # symmetric relation; the closure is recorded in the output
        auto_sym = _COMMANDS[args.command] is _cmd_report and rel.polyhedral
        if auto_sym:
            rel = symmetrize_relation(rel)
        # just below the guards an intermediate can still overflow: the
        # split probe's lam*x - y0 with lam up to 10, or f(x + y).  Every
        # measured value is checked for finiteness, so numpy's warnings
        # would only print ahead of that verdict
        with np.errstate(over="ignore", invalid="ignore"):
            return _write(args, auto_sym,
                          *_COMMANDS[args.command](args, rel))
    except (DimensionMismatchError, PairGenerationError,
            ThalesianNotFoundError, EvaluationError, ValueError,
            DoublingIdentityError) as err:
        print(f"error: {err}", file=sys.stderr)
        # a corrector failing its doubling identity is a failed check
        return 1 if isinstance(err, DoublingIdentityError) else 2
    except Exception as err:
        # exit 1 means a failed bound, so an unforeseen fault must not
        # end with the interpreter's traceback and its exit code 1
        print(f"error: internal error: {type(err).__name__}: {err}",
              file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return execute(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

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

``--json PATH`` (or ``-`` for stdout) writes a machine-readable report;
floats are rendered with 17 significant digits and no timestamps are
embedded, so identical configurations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .funcspace import EvaluationError, make_grid, map_sum
from .orthogonality import (DimensionMismatchError, NormSpec,
                            PairGenerationError, ThalesianNotFoundError,
                            birkhoff_james_relation, check_axioms,
                            inner_product_relation, sample_orthogonal_pairs,
                            symmetrize_relation, trivial_relation)
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
    norm = {"bj:l1": NormSpec.l1(), "bj:l2": NormSpec.euclidean(),
            "bj:linf": NormSpec.linf()}[name]
    return birkhoff_james_relation(norm)


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


def _emit_json(doc: dict, path: str):
    text = dump_json_17g(doc) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _emit_csv(rows: list, header: list, path: str):
    import csv

    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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
                        help="write the result table as CSV")

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
    doc = {
        "command": args.command,
        "relation": args.relation,
        "dim": args.dim,
        "samples": args.samples,
        "pairs": args.pairs,
        "radius": args.radius,
        "delta": args.delta,
        "seed": args.seed,
        "tol": args.tol,
        "n_max": args.n_max,
        "auto_symmetrized": auto_sym,
    }
    cubic = getattr(args, "cubic", None)
    if cubic is not None:
        doc["cubic"] = cubic
    return doc


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    return PipelineConfig(pair_count=args.pairs, grid_count=args.samples,
                          radius=args.radius, seed=args.seed, tol=args.tol,
                          n_max=args.n_max)


def _print_bounds(report):
    for c in report.bounds:
        tag = "PASS" if c.passed else "FAIL"
        if c.informational:
            tag = "info-" + tag.lower()
        print(f"  {tag:9s} {c.name:24s} measured={c.measured:.6e} "
              f"bound={c.bound:.6e} ratio={c.ratio:.3e}")


def _report_command(args: argparse.Namespace, runner) -> int:
    rel = _build_relation(args.relation)
    auto_sym = args.relation in ("bj:l1", "bj:linf")
    if auto_sym:
        # the pipeline uses sampled pairs in both roles, which needs a
        # symmetric relation; the closure is recorded in the output
        rel = symmetrize_relation(rel)
    cfg = _pipeline_config(args)
    echo = _config_echo(args, auto_sym)
    try:
        gt = random_ground_truth(args.dim, delta=args.delta, seed=args.seed)
        report = runner(rel, cfg, gt)
    except DivergenceError as err:
        print(f"divergence in component {err.component!r}: "
              f"{err.result.verdict} after {err.result.n_steps} steps",
            file=sys.stderr)
        if args.json:
            doc = {"config": echo,
                   "divergence": {
                       "component": err.component,
                       "verdict": err.result.verdict,
                       "n_steps": err.result.n_steps,
                       "raw_gaps": err.result.raw_gaps,
                   }}
            _emit_json(doc, args.json)
        # an exhausted budget is a failed bound, as in extract
        return 3 if err.result.verdict == "diverged" else 1

    quiet = args.json == "-"
    if not quiet:
        print(f"relation: {report.relation['kind']} (dim {report.dim}, "
              f"{args.command})")
        print(f"pexider defect:      {report.defects.pexider:.6e}")
        print(f"even doubling:       {report.defects.even_doubling:.6e}")
        print(f"mixed parity:        "
              f"{report.defects.literal_mixed_parity:.6e}")
        print("bounds:")
        _print_bounds(report)
        nec = "PASS" if report.necessity["passed"] else "FAIL"
        print(f"necessity check:     {nec} "
              f"(measured={report.necessity['measured']:.6e}, "
              f"bound={report.necessity['bound']:.6e})")
        print(f"overall: {'PASS' if report.passed else 'FAIL'} "
              f"(eps_hat={report.eps_hat:.6e})")
    if args.json:
        _emit_json({"config": echo, "report": report.to_dict()}, args.json)
    if args.csv:
        rows = [[c.name, _fmt(c.coefficient), _fmt(c.measured),
                 _fmt(c.bound), _fmt(c.ratio),
                 "pass" if c.passed else "fail",
                 "yes" if c.informational else "no"]
                for c in report.bounds]
        _emit_csv(rows, ["name", "coefficient", "measured", "bound",
                         "ratio", "verdict", "informational"], args.csv)
    return 0 if report.passed else 1


def _cmd_report(args: argparse.Namespace) -> int:
    def runner(rel, cfg, gt):
        return run_main_theorem(rel, *compose_pexider_instance(gt), cfg)

    return _report_command(args, runner)


def _cmd_cauchy(args: argparse.Namespace) -> int:
    def runner(rel, cfg, gt):
        return run_cauchy_corollary(rel, *compose_cauchy_instance(gt), cfg)

    return _report_command(args, runner)


def _cmd_quadratic(args: argparse.Namespace) -> int:
    def runner(rel, cfg, gt):
        q = compose_quadratic_instance(gt)
        contaminant = None
        if args.cubic is not None:
            contaminant = make_cubic_growth(args.cubic, args.dim, args.dim)
        return run_quadratic_corollary(rel, q, cfg, contaminant=contaminant)

    return _report_command(args, runner)


def _cmd_axioms(args: argparse.Namespace) -> int:
    rel = _build_relation(args.relation)
    report = check_axioms(rel, args.dim, n_samples=args.samples,
                          seed=args.seed, radius=args.radius)
    quiet = args.json == "-"
    if not quiet:
        print(f"relation: {report.relation['kind']} (dim {args.dim})")
        for name, chk in report.checks.items():
            tag = "PASS" if chk.passed else "FAIL"
            if name == "symmetry":
                tag = "info-" + tag.lower()
            print(f"  {tag:9s} {name:16s} tested={chk.tested} "
                  f"failures={chk.failures}")
        print(f"overall: {'PASS' if report.passed else 'FAIL'} "
              f"(symmetric: {report.symmetric})")
    if args.json:
        doc = {"config": _config_echo(args, False),
               "axioms": report.to_dict()}
        _emit_json(doc, args.json)
    if args.csv:
        rows = [[name, "pass" if c.passed else "fail", c.tested, c.failures]
                for name, c in report.checks.items()]
        _emit_csv(rows, ["name", "verdict", "tested", "failures"], args.csv)
    return 0 if report.passed else 1


def _build_instance(args: argparse.Namespace):
    gt = random_ground_truth(args.dim, delta=args.delta, seed=args.seed)
    return compose_pexider_instance(gt)


def _cmd_defect(args: argparse.Namespace) -> int:
    rel = _build_relation(args.relation)
    f, g, h, k = _build_instance(args)
    pairs = sample_orthogonal_pairs(rel, args.dim, args.pairs,
                                    radius=args.radius, seed=args.seed)
    grid = make_grid(args.dim, args.samples, args.radius, args.seed + 1)
    closed = closure_pairs(pairs, grid)
    eps = pexider_defect(f, g, h, k, closed)
    dbl = doubling_defect(f, grid)
    mix = mixed_parity_defect(f, grid)
    quiet = args.json == "-"
    if not quiet:
        print(f"pexider defect:      {eps:.6e}")
        print(f"even doubling:       {dbl:.6e}")
        print(f"mixed parity:        {mix:.6e}")
        print(f"pairs measured:      {closed.shape[0]}")
    if args.json:
        doc = {"config": _config_echo(args, False),
               "defects": {"pexider": eps, "even_doubling": dbl,
                           "literal_mixed_parity": mix},
               "closure_pair_count": int(closed.shape[0])}
        _emit_json(doc, args.json)
    if args.csv:
        rows = [["pexider", _fmt(eps)],
                ["even_doubling", _fmt(dbl)],
                ["literal_mixed_parity", _fmt(mix)]]
        _emit_csv(rows, ["name", "value"], args.csv)
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    f, g, h, k = _build_instance(args)
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
    # first and last raw gap of each run, 0 for a run with none
    ends = {name: (res.raw_gaps[0], res.raw_gaps[-1]) if res.raw_gaps
            else (0.0, 0.0) for name, res in runs.items()}
    quiet = args.json == "-"
    if not quiet:
        for name, res in runs.items():
            print(f"  {name:8s} {res.verdict:28s} steps={res.n_steps:3d} "
                  f"gap0={ends[name][0]:.3e} gapN={ends[name][1]:.3e}")
    if args.json:
        doc = {"config": _config_echo(args, False),
               "iterations": {
                   name: {"verdict": res.verdict, "n_steps": res.n_steps,
                          "lam": res.lam,
                          "per_step_distances": res.per_step_distances,
                          "raw_gaps": res.raw_gaps}
                   for name, res in runs.items()}}
        _emit_json(doc, args.json)
    if args.csv:
        rows = [[name, res.verdict, res.n_steps, _fmt(ends[name][0]),
                 _fmt(ends[name][1])] for name, res in runs.items()]
        _emit_csv(rows, ["component", "verdict", "steps", "first_gap",
                         "last_gap"], args.csv)
    verdicts = {res.verdict for res in runs.values()}
    if "diverged" in verdicts:
        return 3
    if verdicts != {"converged"}:
        return 1
    return 0


_COMMANDS = {
    "axioms": _cmd_axioms,
    "defect": _cmd_defect,
    "extract": _cmd_extract,
    "report": _cmd_report,
    "cauchy": _cmd_cauchy,
    "quadratic": _cmd_quadratic,
}


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
    if args.radius <= 0 or args.tol <= 0 or args.delta < 0:
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
    try:
        # just below the guards an intermediate can still overflow: the
        # split probe's lam*x - y0 with lam up to 10, or f(x + y).  Every
        # measured value is checked for finiteness, so numpy's warnings
        # would only print ahead of that verdict
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[args.command](args)
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

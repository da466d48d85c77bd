"""Command-line interface.

Exit codes: 0 = success / Confirmed, 1 = Refuted (a mathematically
meaningful negative), 2 = Inconclusive, 64 = usage error, 65 = malformed
input data, 70 = internal error (an engine fault, never a verdict).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from .cohomology import (
    EULER_ONLY,
    CohomologyOutcome,
    cohomology,
    cohomology_stepwise,
    ext_groups,
    ext_groups_best,
)
from .flagvar import BundleExpr, FlagShape
from .kapranov import (
    CONFIRMED,
    Collection,
    check_strong_exceptional,
    enumerate_collection,
)
from .toric import TowerSpec, check_grid_collection, galois_orbit_check
from .twists import (
    INNER_ONLY,
    WITH_SIGMA,
    TwistGroup,
    check_T2,
    counterexample_case,
)
from .weights import InputError, bbw_resolve, dual_weight

EX_USAGE = 64
EX_DATAERR = 65
EX_SOFTWARE = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _emit(payload: dict, args, text_lines):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


@contextmanager
def _parsing():
    """Report a ValueError, KeyError or TypeError raised while reading
    the user's input as an input error."""
    try:
        yield
    except KeyError as exc:
        raise InputError("missing key %s" % exc) from exc
    except (ValueError, TypeError) as exc:
        raise InputError(str(exc)) from exc


def _parse_ints(s: str) -> tuple:
    try:
        return tuple(int(x) for x in s.split(",") if x.strip() != "")
    except ValueError:
        raise InputError("expected comma-separated integers, got %r" % s)


def _shape(args) -> FlagShape:
    with _parsing():
        return FlagShape(args.n, _parse_ints(args.dims))


def _load(path: str, cls):
    """Read an object of ``cls`` from a JSON file through ``cls.from_json``."""
    with open(path) as fh, _parsing():
        return cls.from_json(json.load(fh))


def _character_text(cs) -> str:
    if not cs:
        return "0"
    return " + ".join(
        ("%d x " % m if m != 1 else "") + "S^%s(V)" % (w,) for w, m in cs.items()
    )


def _outcome_lines(outcome: CohomologyOutcome):
    lines = ["grade: %s" % outcome.grade]
    for t in outcome.degrees():
        cs = outcome.character(t)
        lines.append(
            "H^%d = %s  (dim %d)" % (t, _character_text(cs), cs.dimension())
        )
    if not outcome.degrees() and outcome.grade != EULER_ONLY:
        lines.append("all cohomology vanishes (within the reported grade)")
    lines.append("euler = %s" % _character_text(outcome.euler))
    return lines


def _cmd_bbw(args):
    weight = _parse_ints(args.weight)
    if args.n < 1 or len(weight) != args.n:
        raise InputError("weight length must equal n >= 1")
    res = bbw_resolve(weight)
    if res.singular:
        _emit({"singular": True}, args, ["singular: all cohomology vanishes"])
    else:
        bundle = dual_weight(res.dominant)
        _emit(
            {
                "singular": False,
                "degree": res.degree,
                "dominant": list(res.dominant),
                "cohomology_weight": list(bundle),
            },
            args,
            [
                "degree %d, dominant %s" % (res.degree, res.dominant),
                "H^%d = S^%s(V)" % (res.degree, bundle),
            ],
        )
    return 0


def _cmd_cohom(args):
    expr = _load(args.expr, BundleExpr)
    if args.euler_only:
        outcome = CohomologyOutcome.euler_only(cohomology(expr).euler)
    elif args.stepwise:
        outcome = cohomology_stepwise(expr)
    else:
        outcome = cohomology(expr)
    _emit(outcome.to_json(), args, _outcome_lines(outcome))
    return 0


def _cmd_ext(args):
    if len(args.expr) != 2:
        raise InputError("ext requires exactly two --expr files (source, target)")
    a = _load(args.expr[0], BundleExpr)
    b = _load(args.expr[1], BundleExpr)
    if a.shape != b.shape:
        raise InputError("source and target live on different flag shapes")
    outcome = ext_groups_best(a, b) if args.best else ext_groups(a, b)
    _emit(outcome.to_json(), args, _outcome_lines(outcome))
    return 0


def _cmd_kapranov(args):
    c = enumerate_collection(_shape(args))
    _emit(
        c.to_json(),
        args,
        ["%d members:" % len(c)] + ["  %2d: %s" % (i, m) for i, m in enumerate(c.members)],
    )
    return 0


def _cmd_check_strong(args):
    if args.collection:
        c = _load(args.collection, Collection)
    elif args.dims is not None:
        c = enumerate_collection(_shape(args))
    else:
        raise InputError("check-strong needs --collection or --n/--dims")
    report = check_strong_exceptional(c)
    lines = ["overall: %s" % report.overall]
    for p in report.pairs:
        if p.status != CONFIRMED:
            lines.append(
                "  pair (%d, %d) [%s]: %s %s"
                % (p.i, p.j, p.requirement, p.status, p.witness or "")
            )
    _emit(report.to_json(), args, lines)
    return report.exit_code


def _cmd_twist_check(args):
    shape = _shape(args)
    group = TwistGroup(WITH_SIGMA if args.sigma else INNER_ONLY)
    if args.expr:
        t = _load(args.expr, BundleExpr)
    else:
        t = sum(enumerate_collection(shape).members, BundleExpr(shape))
    if t.shape != shape:
        raise InputError("expression shape does not match --n/--dims")
    report = check_T2(t, group)
    lines = ["group: %s" % group.kind, "T2 status: %s" % report.status]
    for cert in report.certificates():
        lines.append("  witness pair (%d, %d): %s" % (cert["i"], cert["j"], cert["witness"]))
    _emit(report.to_json(), args, lines)
    return report.exit_code


def _cmd_counterexample(args):
    report = counterexample_case(args.case, _shape(args))
    lines = ["case %d on %s" % (args.case, report.shape)]
    for r in report.readings:
        lines.append("reading %s: %s" % (r.label, r.status))
        lines.extend("  " + line for line in _outcome_lines(r.ext_outcome))
        if r.certificate:
            lines.append("  certificate: %s" % r.certificate)
    lines.append("counterexample established: %s" % report.established)
    _emit(report.to_json(), args, lines)
    return report.exit_code


def _cmd_toric_check(args):
    tower = _load(args.tower, TowerSpec)
    report = check_grid_collection(tower)
    payload = report.to_json()
    lines = [
        "grid size %d, status: %s" % (len(report.grid), report.status),
    ]
    for f in report.failures[:10]:
        lines.append("  failure: %s" % f)
    if not args.skip_orbits:
        orbits = galois_orbit_check(tower)
        payload["orbits"] = orbits
        lines.append("orbit closure: %s" % orbits["orbit_closed"])
        lines.append("orbit classes: %d" % len(orbits["orbit_classes"]))
    _emit(payload, args, lines)
    return report.exit_code


def build_parser() -> _Parser:
    parser = _Parser(prog="flagcoh", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = add("bbw", _cmd_bbw, "resolve a line-bundle weight on the full flag")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weight", required=True, help="comma-separated, length n")

    p = add("cohom", _cmd_cohom, "cohomology of a bundle expression")
    p.add_argument("--expr", required=True, help="bundle expression JSON file")
    p.add_argument("--stepwise", action="store_true", help="level-by-level pushforward")
    p.add_argument("--euler-only", action="store_true")

    p = add("ext", _cmd_ext, "Ext groups between two bundle expressions")
    p.add_argument(
        "--expr", action="append", default=[], help="give twice: source then target"
    )
    p.add_argument("--best", action="store_true", help="refine E1 bounds stepwise")

    p = add("kapranov", _cmd_kapranov, "enumerate the exceptional collection")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dims", required=True, help="comma-separated flag dimensions")

    p = add("check-strong", _cmd_check_strong, "strong exceptionality check")
    p.add_argument("--n", type=int)
    p.add_argument("--dims")
    p.add_argument("--collection", help="collection JSON file")

    p = add("twist-check", _cmd_twist_check, "descent condition (T2) check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dims", required=True)
    p.add_argument("--sigma", action="store_true", help="outer form (duality twist)")
    p.add_argument("--expr", help="candidate bundle JSON (default: collection sum)")

    p = add("counterexample", _cmd_counterexample, "run a counterexample family")
    p.add_argument("--case", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dims", required=True)

    p = add("toric-check", _cmd_toric_check, "toric tower grid and orbit checks")
    p.add_argument("--tower", required=True, help="tower JSON file")
    p.add_argument("--skip-orbits", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EX_USAGE
    try:
        return args.func(args)
    except InputError as exc:
        print("flagcoh: input error: %s" % exc, file=sys.stderr)
        return EX_DATAERR
    except OSError as exc:
        print("flagcoh: %s" % exc, file=sys.stderr)
        return EX_DATAERR
    except Exception as exc:  # an engine fault; exit 1 would read as "refuted"
        sys.excepthook(type(exc), exc, exc.__traceback__)  # the traceback, to stderr
        print("flagcoh: internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())

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
from json.encoder import encode_basestring_ascii

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


# the pending chunks (or text lines) at which the report is written out
FLUSH_CHUNKS = 8192


def _emit(args, payload, lines, shared: dict | None = None):
    """Write ``payload()`` as JSON or the lines of ``lines()`` to stdout,
    as ``args.format`` asks; the other rendering is never built.  Either
    is written in batches of about ``FLUSH_CHUNKS`` chunks or lines while
    it is rendered, so a fault while rendering leaves a prefix of the
    report on stdout; the exit code says whether it is whole.

    The JSON is the text of ``json.dumps(payload(), sort_keys=True,
    indent=2)``, written by ``_json_chunks``: ``json.dumps`` uses its C
    encoder only when ``indent`` is None, so an indented payload of
    megabytes would otherwise go through the pure-Python encoder.
    ``shared`` is the dict ``payload`` fills with the hom and outcome JSON
    values of each outcome object (``PairVerdict.to_json``); those that
    two or more pairs use are rendered once per indent, and their text is
    reused."""
    write = sys.stdout.write
    out: list = []
    if args.format == "json":
        obj = payload()
        memo = {
            id(v): {}
            for hom, outcome, pairs in (shared or {}).values()
            if pairs > 1
            for v in (hom, outcome)
            if v
        }
        _json_chunks(obj, out, "\n", memo, write)
        out.append("\n")
    else:
        for line in lines():
            out.append(line + "\n")
            if len(out) >= FLUSH_CHUNKS:
                write("".join(out))
                out.clear()
    write("".join(out))


# the text of a JSON leaf, looked up by its exact type, so that a bool is
# never written as the int it subclasses; each writer is a C call
_LEAF_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _json_chunks(obj, out: list, newline: str, memo: dict | None = None, write=None):
    """Append to ``out`` the pieces of ``json.dumps(obj, sort_keys=True,
    indent=2)``; ``newline`` is a newline and the indent of ``obj``'s
    line.  Only dict (with str keys), list, tuple, str, int, bool and None
    are written; anything else raises TypeError, so the text never differs
    from ``json.dumps``.  A leaf inside a dict or list is written in its
    container's loop, without a call of its own.  ``memo`` maps the id of
    a container that occurs more than once to its texts by indent: such a
    container is rendered once per indent and its text appended again.
    Any other container costs one id lookup while ``memo`` is non-empty,
    none while it is empty.  With ``write``, after each item of a list
    ``out`` is written and cleared once it holds ``FLUSH_CHUNKS`` chunks;
    a memoized container is rendered into a list of its own, never
    written part-way."""
    kind = type(obj)
    leaf = _LEAF_TEXT.get(kind)
    if leaf is not None:
        out.append(leaf(obj))
    elif memo and id(obj) in memo:
        texts = memo.pop(id(obj))  # so that obj itself is rendered below
        if newline not in texts:
            chunks: list = []
            _json_chunks(obj, chunks, newline, memo)
            texts[newline] = "".join(chunks)
        memo[id(obj)] = texts
        out.append(texts[newline])
    elif kind is dict and obj:
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):  # encode_basestring_ascii rejects a non-str key
            value = obj[key]
            head = sep + encode_basestring_ascii(key) + ": "
            leaf = _LEAF_TEXT.get(type(value))
            if leaf is not None:
                out.append(head + leaf(value))
            else:
                out.append(head)
                _json_chunks(value, out, inner, memo, write)
            sep = "," + inner
        out.append(newline + "}")
    elif (kind is list or kind is tuple) and obj:
        inner = newline + "  "
        if set(map(type, obj)) == {int}:  # a weight: no bool, no nesting
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, obj)) + newline + "]")
            return
        sep = "[" + inner
        for item in obj:
            leaf = _LEAF_TEXT.get(type(item))
            if leaf is not None:
                out.append(sep + leaf(item))
            else:
                out.append(sep)
                _json_chunks(item, out, inner, memo, write)
                if write is not None and len(out) >= FLUSH_CHUNKS:
                    write("".join(out))
                    out.clear()
            sep = "," + inner
        out.append(newline + "]")
    elif kind is dict:
        out.append("{}")
    elif kind is list or kind is tuple:
        out.append("[]")
    else:
        raise TypeError("cannot write %s as JSON" % kind.__name__)


@contextmanager
def _parsing():
    """Report a ValueError raised while reading the user's input as an
    input error.  The readers check keys and JSON types first, so any
    other exception raised here is an engine fault."""
    try:
        yield
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _parse_ints(s: str) -> tuple:
    """Comma-separated integers; the empty string is the empty tuple, and
    an empty item is an error."""
    try:
        return tuple(int(x) for x in s.split(",")) if s else ()
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
    yield "grade: %s" % outcome.grade
    for t in outcome.degrees():
        cs = outcome.character(t)
        yield "H^%d = %s  (dim %d)" % (t, _character_text(cs), cs.dimension())
    if not outcome.degrees() and outcome.grade != EULER_ONLY:
        yield "all cohomology vanishes (within the reported grade)"
    yield "euler = %s" % _character_text(outcome.euler)


def _cmd_bbw(args):
    weight = _parse_ints(args.weight)
    if args.n < 1 or len(weight) != args.n:
        raise InputError("weight length must equal n >= 1")
    res = bbw_resolve(weight)
    if res is None:
        _emit(args, lambda: {"singular": True}, lambda: ["singular: all cohomology vanishes"])
    else:
        degree, dominant = res
        bundle = dual_weight(dominant)
        _emit(
            args,
            lambda: {
                "singular": False,
                "degree": degree,
                "dominant": list(dominant),
                "cohomology_weight": list(bundle),
            },
            lambda: [
                "degree %d, dominant %s" % (degree, dominant),
                "H^%d = S^%s(V)" % (degree, bundle),
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
    _emit(args, outcome.to_json, lambda: _outcome_lines(outcome))
    return 0


def _cmd_ext(args):
    if len(args.expr) != 2:
        raise InputError("ext requires exactly two --expr files (source, target)")
    a = _load(args.expr[0], BundleExpr)
    b = _load(args.expr[1], BundleExpr)
    if a.shape != b.shape:
        raise InputError("source and target live on different flag shapes")
    outcome = ext_groups_best(a, b) if args.best else ext_groups(a, b)
    _emit(args, outcome.to_json, lambda: _outcome_lines(outcome))
    return 0


def _cmd_kapranov(args):
    c = enumerate_collection(_shape(args))
    _emit(
        args,
        c.to_json,
        lambda: ["%d members:" % len(c)] + ["  %2d: %s" % (i, m) for i, m in enumerate(c.members)],
    )
    return 0


def _cmd_check_strong(args):
    if args.collection is not None:
        c = _load(args.collection, Collection)
    else:
        c = enumerate_collection(_shape(args))
    report = check_strong_exceptional(c)
    shared: dict = {}

    def lines():
        yield "overall: %s" % report.overall
        for p in report.pairs:
            if p.status != CONFIRMED:
                witness = p.witness or ""
                yield "  pair (%d, %d) [%s]: %s %s" % (p.i, p.j, p.requirement, p.status, witness)

    _emit(args, lambda: report.to_json(shared), lines, shared)
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
    shared: dict = {}

    def lines():
        yield "group: %s" % group.kind
        yield "T2 status: %s" % report.status
        for cert in report.certificates():
            yield "  witness pair (%d, %d): %s" % (cert["i"], cert["j"], cert["witness"])

    _emit(args, lambda: report.to_json(shared), lines, shared)
    return report.exit_code


def _cmd_counterexample(args):
    report = counterexample_case(args.case, _shape(args))

    def lines():
        yield "case %d on %s" % (args.case, report.shape)
        for r in report.readings:
            # the status and certificate rest on the stepwise outcome
            yield "reading %s" % r.label
            yield "  one-shot:"
            yield from ("    " + line for line in _outcome_lines(r.ext_outcome))
            yield "  stepwise: %s" % r.status
            yield from ("    " + line for line in _outcome_lines(r.refined))
            if r.certificate:
                yield "    certificate: %s" % r.certificate
        yield "counterexample established: %s" % report.established

    _emit(args, report.to_json, lines)
    return report.exit_code


def _cmd_toric_check(args):
    tower = _load(args.tower, TowerSpec)
    report = check_grid_collection(tower)
    orbits = None if args.skip_orbits else galois_orbit_check(tower)

    def payload():
        return report.to_json() if orbits is None else {**report.to_json(), "orbits": orbits}

    def lines():
        yield "grid size %d, status: %s" % (len(report.grid), report.status)
        yield from ("  failure: %s" % f for f in report.failures[:10])
        if orbits is not None:
            yield "orbit closure: %s" % orbits["orbit_closed"]
            yield "orbit classes: %d" % len(orbits["orbit_classes"])

    _emit(args, payload, lines)
    return report.exit_code


def _check_flags(args):
    """Reject, with a usage error, the flag combinations argparse cannot."""
    if args.command != "check-strong":
        return
    if args.collection is not None and (args.n is not None or args.dims is not None):
        args.usage_error("--collection cannot be combined with --n or --dims")
    if (args.n is None) != (args.dims is None):
        args.usage_error("--n and --dims must be given together")
    if args.collection is None and args.n is None:
        args.usage_error("check-strong needs --collection or --n and --dims")


def build_parser() -> _Parser:
    parser = _Parser(prog="flagcoh", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, usage_error=p.error)
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = add("bbw", _cmd_bbw, "resolve a line-bundle weight on the full flag")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weight", required=True, help="comma-separated, length n")

    p = add("cohom", _cmd_cohom, "cohomology of a bundle expression")
    p.add_argument("--expr", required=True, help="bundle expression JSON file")
    route = p.add_mutually_exclusive_group()
    route.add_argument("--stepwise", action="store_true", help="level-by-level pushforward")
    route.add_argument("--euler-only", action="store_true")

    p = add("ext", _cmd_ext, "Ext groups between two bundle expressions")
    p.add_argument(
        "--expr", action="append", default=[], help="give twice: source then target"
    )
    p.add_argument("--best", action="store_true", help="stepwise route")

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
        _check_flags(args)
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

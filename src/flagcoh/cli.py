"""Command-line interface.

Exit codes: 0 = success / Confirmed, 1 = Refuted (a mathematically
meaningful negative), 2 = Inconclusive, 64 = usage error, 65 = malformed
input data or an input file that cannot be read, 70 = internal error (an
engine fault, never a verdict), 74 = the report could not be written,
as when the reader of stdout has gone.  No exit code in {0, 1, 2} comes
from any path but a finished report: an error's message is written to
stderr once, and a stderr that cannot be written leaves the error's own
code in place.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager, suppress
from json.encoder import encode_basestring_ascii

from .cohomology import (
    CohomologyOutcome,
    cohomology,
    cohomology_stepwise,
    ext_groups_best,
)
from .flagvar import BundleExpr, FlagShape
from .kapranov import (
    CONFIRMED,
    INCONCLUSIVE,
    REFUTED,
    Collection,
    check_strong_exceptional,
    enumerate_collection,
)
from .toric import TowerSpec, check_grid_collection, galois_orbit_check
from .twists import check_T2, counterexample_case
from .weights import InputError, bbw_resolve, dual_weight

# the library's checks return a report with a status; only the command
# line reads flags and turns a status into an exit code
EXIT_CODE = {CONFIRMED: 0, REFUTED: 1, INCONCLUSIVE: 2}
EX_USAGE = 64
EX_DATAERR = 65
EX_SOFTWARE = 70
EX_IOERR = 74


class _UsageError(Exception):
    """A usage error, carrying argparse's usage text and message."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError("%s%s: error: %s" % (self.format_usage(), self.prog, message))


# the pending bytes of text lines or of pair texts, and the pending chunks
# of _json_chunks, at which the report is written out
FLUSH_BYTES = 1 << 18
FLUSH_CHUNKS = 8192


def _emit(args, payload, lines, pairs=None):
    """Write ``payload()`` as JSON or the lines of ``lines()`` to stdout,
    as ``args.format`` asks; the other rendering is never built.

    The JSON is the text of ``json.dumps(payload(), sort_keys=True,
    indent=2)``: ``json.dumps`` uses its C encoder only when ``indent`` is
    None, so an indented report of megabytes would otherwise go through
    the pure-Python encoder.  For a pair report, ``pairs`` is its list of
    ``PairVerdict``s and ``payload()`` its head, without the "pairs" key;
    the list is written at that key's place by ``_pair_texts``, straight
    from the verdicts, and no pair's JSON value is built.  Any other value
    is written by ``_json_chunks``.

    The report is written while it is rendered: the lines, and a report's
    pairs, each time about ``FLUSH_BYTES`` bytes are pending, and
    ``_json_chunks``'s text in its own batches.  So a fault while
    rendering leaves a prefix of the report on stdout, and the exit code
    says whether it is whole."""
    write = sys.stdout.write
    out: list = []
    if args.format != "json":
        _batched((line + "\n" for line in lines()), out, write)
    elif pairs is None:
        _json_chunks(payload(), out, "\n", write)
        out.append("\n")
    else:
        head = payload()
        sep = "{\n  "
        for key in sorted([*head, "pairs"]):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            sep = ",\n  "
            if key != "pairs":
                _json_chunks(head[key], out, "\n  ", write)
            else:  # a check's report has at least one pair
                texts = _pair_texts(pairs)
                _batched(((",\n    " if k else "[\n    ") + t for k, t in enumerate(texts)), out, write)
                out.append("\n  ]")
        out.append("\n}\n")
    write("".join(out))
    sys.stdout.flush()  # so that a closed stdout fails here, not at exit


def _batched(texts, out: list, write):
    """Append each of ``texts`` to ``out``, and write ``out`` and clear it
    each time the text pending in it reaches ``FLUSH_BYTES`` bytes."""
    size = sum(map(len, out))
    for text in texts:
        out.append(text)
        size += len(text)
        if size >= FLUSH_BYTES:
            write("".join(out))
            out.clear()
            size = 0


# one item of a report's "pairs" list, as json.dumps writes a pair's
# to_json() there: its keys sorted, each on a line at _PAIR_INDENT
_PAIR = (
    '{\n      "hom": %s,\n      "i": %d,\n      "j": %d,\n      "outcome": %s,'
    '\n      "requirement": %s,\n      "status": %s,\n      "witness": %s\n    }'
)
_PAIR_INDENT = "\n      "


def _pair_texts(pairs):
    """Yield the text of each of ``pairs``, ``json.dumps(p.to_json(),
    sort_keys=True, indent=2)`` at the indent of an item of a report's
    "pairs" list, rendered from the verdict in the one format ``_PAIR``.

    An outcome object's ``hom`` and ``outcome`` texts are rendered from its
    ``to_json()`` once.  Only those of an outcome that two or more pairs
    hold, counted from ``PairVerdict.outcome`` by identity, are kept, and
    they are dropped after its last holder.  A witness other than None goes
    through ``_json_chunks``, so one that ``json.dumps`` would write
    otherwise raises TypeError."""
    left = Counter(id(p.outcome) for p in pairs)  # holders still to come
    kept: dict = {}  # id(outcome) -> (hom text, outcome text)
    for p in pairs:
        key = id(p.outcome)
        left[key] = holders = left[key] - 1
        texts = kept.get(key) if holders else kept.pop(key, None)
        if texts is None:
            data = p.outcome.to_json()
            hom = data["by_degree"].get("0")
            hom = "[]" if hom is None else _json_text(hom, _PAIR_INDENT)
            texts = hom, _json_text(data, _PAIR_INDENT)
            if holders:
                kept[key] = texts
        hom, outcome = texts
        witness = p.witness  # derived from the outcome on every read
        witness = "null" if witness is None else _json_text(witness, _PAIR_INDENT)
        requirement, status = map(encode_basestring_ascii, (p.requirement, p.status))
        yield _PAIR % (hom, p.i, p.j, outcome, requirement, status, witness)


# the text of a JSON leaf, looked up by its exact type, so that a bool is
# never written as the int it subclasses; each writer is a C call
_LEAF_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _json_text(obj, newline: str) -> str:
    """The text ``_json_chunks`` writes for ``obj`` at ``newline``."""
    out: list = []
    _json_chunks(obj, out, newline)
    return "".join(out)


def _json_chunks(obj, out: list, newline: str, write=None):
    """Append to ``out`` the pieces of ``json.dumps(obj, sort_keys=True,
    indent=2)``; ``newline`` is a newline and the indent of ``obj``'s
    line.  Only dict (with str keys), list, tuple, str, int, bool and None
    are written; anything else raises TypeError, so the text never differs
    from ``json.dumps``.  That includes a dict key that is not a str,
    which ``json.dumps`` would turn into one: every ``to_json`` writes
    str keys, such as a degree as ``str(degree)``.  A leaf inside a dict
    or list is written in its container's loop, without a call of its
    own, and a list of ints, such as a weight, is one chunk.  With
    ``write``, after each item of a list ``out`` is written and cleared
    once it holds ``FLUSH_CHUNKS`` chunks."""
    kind = type(obj)
    leaf = _LEAF_TEXT.get(kind)
    if leaf is not None:
        out.append(leaf(obj))
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
                _json_chunks(value, out, inner, write)
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
                _json_chunks(item, out, inner, write)
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
    """Report a ValueError raised while reading the user's input, or an
    OSError while opening or reading an input file, as an input error.
    The readers check keys and JSON types first, so any other exception
    raised here is an engine fault."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise InputError(str(exc)) from exc


def integer(text: str) -> int:
    """An integer written as ASCII digits after at most a minus sign.
    ``int`` would also read "1_0" as 10, and take "+2", " 2" and the
    digits of other scripts; each is rejected here, never coerced."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("invalid integer %r" % text)
    return int(text)


def _parse_ints(s: str) -> tuple:
    """Comma-separated integers, each read by ``integer``; the empty
    string is the empty tuple, and an empty item is an error."""
    try:
        return tuple(map(integer, s.split(","))) if s else ()
    except ValueError:
        raise InputError("expected comma-separated integers, got %r" % s)


def _shape(args) -> FlagShape:
    with _parsing():
        return FlagShape(args.n, _parse_ints(args.dims))


def _load(path: str, cls):
    """Read an object of ``cls`` from a JSON file through ``cls.from_json``."""
    with _parsing(), open(path) as fh:
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
    if not outcome.degrees():
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
        euler = cohomology(expr).euler
        view = {"grade": "euler_only", "by_degree": {}, "euler": euler.to_json()}
        lines = ["grade: euler_only", "euler = %s" % _character_text(euler)]
        _emit(args, lambda: view, lambda: lines)
        return 0
    if args.stepwise:
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
    outcome = ext_groups_best(a, b)
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

    def lines():
        yield "overall: %s" % report.status
        for p in report.pairs:
            if p.status != CONFIRMED:
                witness = p.witness or ""
                yield "  pair (%d, %d) [%s]: %s %s" % (p.i, p.j, p.requirement, p.status, witness)

    _emit(args, lambda: report.to_json(pairs=False), lines, report.pairs)
    return EXIT_CODE[report.status]


def _cmd_twist_check(args):
    shape = _shape(args)
    if args.expr:
        t = _load(args.expr, BundleExpr)
    else:
        t = sum(enumerate_collection(shape).members, BundleExpr(shape))
    if t.shape != shape:
        raise InputError("expression shape does not match --n/--dims")
    report = check_T2(t, sigma=args.sigma)

    def lines():
        yield "group: %s" % report.group
        yield "T2 status: %s" % report.status
        for cert in report.certificates():
            yield "  witness pair (%d, %d): %s" % (cert["i"], cert["j"], cert["witness"])

    _emit(args, lambda: report.to_json(pairs=False), lines, report.pairs)
    return EXIT_CODE[report.status]


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
    return EXIT_CODE[report.status]


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
    return EXIT_CODE[report.status]


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
    p.add_argument("--n", type=integer, required=True)
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

    p = add("kapranov", _cmd_kapranov, "enumerate the exceptional collection")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--dims", required=True, help="comma-separated flag dimensions")

    p = add("check-strong", _cmd_check_strong, "strong exceptionality check")
    p.add_argument("--n", type=integer)
    p.add_argument("--dims")
    p.add_argument("--collection", help="collection JSON file")

    p = add("twist-check", _cmd_twist_check, "descent condition (T2) check")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--dims", required=True)
    p.add_argument("--sigma", action="store_true", help="outer form (duality twist)")
    p.add_argument("--expr", help="candidate bundle JSON (default: collection sum)")

    p = add("counterexample", _cmd_counterexample, "run a counterexample family")
    p.add_argument("--case", type=integer, required=True, choices=(1, 2, 3))
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--dims", required=True)

    p = add("toric-check", _cmd_toric_check, "toric tower grid and orbit checks")
    p.add_argument("--tower", required=True, help="tower JSON file")
    p.add_argument("--skip-orbits", action="store_true")

    return parser


def _to_null(stream):
    """Point ``stream``'s descriptor at the null device, so that the flush
    at exit cannot fail again (the Python docs' SIGPIPE recipe); a stream
    captured in process has no descriptor and is left as it is."""
    with suppress(OSError), open(os.devnull, "w") as null:
        os.dup2(null.fileno(), stream.fileno())


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_flags(args)
        code, text = args.func(args), None  # text: for stderr, written once below
    except SystemExit as exc:  # --help, written to stdout
        code, text = exc.code, None
    except _UsageError as exc:
        code, text = EX_USAGE, str(exc)
    except InputError as exc:
        code, text = EX_DATAERR, "flagcoh: input error: %s" % exc
    except OSError as exc:  # writing the report failed; input files raise InputError
        _to_null(sys.stdout)
        # a reader that has gone needs no word
        code, text = EX_IOERR, None if isinstance(exc, BrokenPipeError) else "flagcoh: %s" % exc
    except Exception as exc:  # an engine fault; exit 1 would read as "refuted"
        import traceback  # here, so that a run without a fault does not load it

        code, text = EX_SOFTWARE, "".join(traceback.format_exception(exc))
        text += "flagcoh: internal error: %s: %s" % (type(exc).__name__, exc)
    if text is not None:
        try:
            sys.stderr.write(text + "\n")
            sys.stderr.flush()
        except OSError:  # a closed stderr leaves the code as it is
            _to_null(sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

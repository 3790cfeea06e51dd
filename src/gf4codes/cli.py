"""Command-line interface.

Verbs: check, wenum, macwilliams, dual-distance, shorten, circulant,
double, quantum, catalog.  Code inputs are a matrix file path, ``-`` for
stdin, or ``catalog:NAME``.  Output is deterministic key: value lines or
matrix/enumerator text, so identical invocations are byte-identical.

Exit codes: 0 success, 2 usage or unreadable file, 3 precondition or
format violation, 4 enumeration budget or memory exceeded, 5 internal
consistency failure.

Every verb and argument is written once, in `_VERBS`.  Plain argv is read
from that table without importing argparse, whose import and first parser
cost a command 5-7 ms with the default `site` and about 12 ms under `-S`;
argparse builds its parser from the same table for the rest, so `--help`,
usage lines and argument errors are its own.
"""

from __future__ import annotations

import sys
import warnings
from types import SimpleNamespace

from . import catalog
from .codes import LinearCode, circulant, emit_matrix, parse_matrix
from .doubling import OddDualVector, double_pair, find_odd_dual_vector
from .enumerator import (DEFAULT_MAX_DIM, dual_distance, format_enumerator,
                         macwilliams, parse_enumerator, weight_enumerator)
from .errors import (BudgetExceededError, ConsistencyError, FormatError,
                     GF4CodesError, PreconditionError)
from .gf4 import GF4Vector, _records
from .quantum import parse_bounds_table, quantum_params

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5


class UsageError(Exception):
    """An option value out of range, or an input that is not text (exit 2)."""


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise UsageError(f"{path}: not UTF-8 text") from None


def _load_code(spec: str) -> LinearCode:
    if spec.startswith("catalog:"):
        return catalog.get(spec[len("catalog:"):]).code
    return parse_matrix(_read_text(spec))


def _parse_vector_digits(text: str) -> GF4Vector:
    """Digits from {0,1,2,3}, whitespace-separated or contiguous."""
    tokens = [tok for _, line in _records(text) for tok in line.split()]
    if not tokens:
        raise FormatError("no vector digits found")
    try:
        return GF4Vector.from_digits("".join(tokens))
    except ValueError:
        bad = next(tok for tok in tokens if set(tok) - set("0123"))
        raise FormatError(f"invalid vector digits {bad!r}") from None


def _load_x(spec: str, code: LinearCode) -> OddDualVector:
    """Resolve an --x1/--x2 argument: allones, search, or a file."""
    if spec == "allones":
        ones = GF4Vector(code.n, lo=(1 << code.n) - 1)
        return OddDualVector.for_code(code, ones)
    if spec == "search":
        found = find_odd_dual_vector(code)
        if found is None:
            raise PreconditionError(
                "no odd-weight dual vector exists: the hermitian dual is self-orthogonal")
        return found
    return OddDualVector.for_code(code, _parse_vector_digits(_read_text(spec)))


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def _write_matrix(code: LinearCode, emit_path: str | None) -> None:
    text = emit_matrix(code)
    if emit_path is None:
        sys.stdout.write(text)
    else:
        with open(emit_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_check(args: SimpleNamespace) -> int:
    code = _load_code(args.input)
    so = code.is_hermitian_self_orthogonal()
    print(f"n: {code.n}")
    print(f"k: {code.k}")
    print(f"hermitian_self_orthogonal: {_bool(so)}")
    print(f"trace_self_orthogonal: {_bool(code.is_trace_self_orthogonal())}")
    print(f"even: {_bool(code.is_even())}")
    print(f"self_dual: {_bool(code.is_self_dual())}")
    return EXIT_OK if so else EXIT_PRECONDITION


def _cmd_wenum(args: SimpleNamespace) -> int:
    if args.partitions < 1:
        raise UsageError(f"--partitions must be at least 1, got {args.partitions}")
    code = _load_code(args.input)
    w = weight_enumerator(code, max_dim=args.max_dim, partitions=args.partitions)
    sys.stdout.write(format_enumerator(w, csv=args.csv))
    return EXIT_OK


def _cmd_macwilliams(args: SimpleNamespace) -> int:
    if args.n < 0 or args.k < 0:
        raise UsageError(f"--n and --k must be nonnegative, got {args.n} and {args.k}")
    w = parse_enumerator(_read_text(args.input), args.n)
    sys.stdout.write(format_enumerator(macwilliams(w, args.k), csv=args.csv))
    return EXIT_OK


def _cmd_dual_distance(args: SimpleNamespace) -> int:
    code = _load_code(args.input)
    d = dual_distance(code, max_dim=args.max_dim)
    print(f"dual_distance: {d}")
    if d == code.n + 1:
        print("note: dual is the zero code (distance is the n+1 sentinel)")
    return EXIT_OK


def _cmd_shorten(args: SimpleNamespace) -> int:
    code = _load_code(args.input)
    if not 0 <= args.at < code.n:
        raise PreconditionError(f"position {args.at} outside 0..{code.n - 1}")
    _write_matrix(code.shorten(args.at), args.emit)
    return EXIT_OK


def _cmd_circulant(args: SimpleNamespace) -> int:
    _write_matrix(circulant(_parse_vector_digits(args.first_row), args.k), args.emit)
    return EXIT_OK


def _cmd_double(args: SimpleNamespace) -> int:
    c1 = _load_code(args.a)
    c2 = _load_code(args.b)
    x1 = _load_x(args.x1, c1)
    x2 = _load_x(args.x2, c2)
    res = double_pair(c1, c2, x1, x2, max_dim=args.max_dim)
    lines = [f"mode: {args.mode}",
             f"inputs: [{c1.n},{c1.k}] [{c2.n},{c2.k}]",
             f"x1_weight: {x1.weight}"]
    if args.mode == "odd":
        code, bound = res.code_prime, res.bound_prime
    else:
        lines.append(f"x2_weight: {x2.weight}")
        code, bound = res.code_double_prime, res.bound_double_prime
    lines += [f"n: {code.n}",
              f"k: {code.k}",
              "self_orthogonal: true",
              f"dual_distance: {dual_distance(code, max_dim=args.max_dim)}",
              f"bound: {bound}"]
    if args.emit is not None:
        _write_matrix(code, args.emit)
        lines.append(f"emitted: {args.emit}")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_quantum(args: SimpleNamespace) -> int:
    code = _load_code(args.input)
    qp = quantum_params(code, max_dim=args.max_dim)
    # A malformed bounds table fails before any line is written.
    table = None if args.bounds is None else parse_bounds_table(_read_text(args.bounds))
    print(f"n: {qp.n}")
    print(f"k: {qp.k}")
    print(f"d: {qp.d}")
    print(f"pure: {_bool(qp.pure)}")
    print(f"degenerate: {_bool(qp.degenerate)}")
    if table is not None:
        entry = table.get((qp.n, qp.k))
        if entry is None:
            print("table_entry: none")
        else:
            print(f"table_d_lower: {entry[0]}")
            print(f"table_d_upper: {entry[1]}")
            print(f"meets_table_upper: {_bool(qp.d >= entry[1])}")
    summary = f"[[{qp.n},{qp.k},{qp.d}]] {'pure' if qp.pure else 'impure'}"
    if qp.degenerate:
        summary += " (degenerate)"
    print(summary)
    return EXIT_OK


def _cmd_catalog(args: SimpleNamespace) -> int:
    if args.name is None:
        for name in catalog.names():
            entry = catalog.get(name)
            print(f"{name} [{entry.code.n},{entry.code.k},{entry.expected.d}]")
        return EXIT_OK
    entry = catalog.get(args.name)
    print(f"name: {entry.name}")
    print(f"provenance: {entry.provenance}")
    print(f"n: {entry.code.n}")
    print(f"k: {entry.code.k}")
    print(f"d: {entry.expected.d}")
    print(f"dual_distance: {entry.expected.dual_distance}")
    print(f"self_dual: {_bool(entry.expected.self_dual)}")
    print("matrix:")
    sys.stdout.write(emit_matrix(entry.code))
    return EXIT_OK


# Every verb: its name, its help line, its command, and its arguments in the
# order `--help` lists them.  An argument is its flag or positional name and
# the keywords `add_argument` takes; `build_parser` hands them to argparse as
# they are, and `_read_plain_args` reads the same keywords.
_INPUT = ("input", dict(help="matrix file, '-' for stdin, or catalog:NAME"))
_MAX_DIM = ("--max-dim", dict(type=int, default=DEFAULT_MAX_DIM, metavar="K",
                              help=f"enumeration budget: allow up to 4^K codewords "
                                   f"(default {DEFAULT_MAX_DIM})"))
_CSV = ("--csv", dict(action="store_true", help="emit 'j,A_j' lines"))
_EMIT = ("--emit", dict(metavar="FILE", help="write the matrix to FILE"))

_VERBS = (
    ("check", "report self-orthogonality and evenness", _cmd_check, (_INPUT,)),
    ("wenum", "exact weight enumerator", _cmd_wenum, (
        _INPUT, _MAX_DIM,
        ("--partitions", dict(type=int, default=1, metavar="P",
                              help="split the enumeration into P chunks (same result)")),
        _CSV)),
    ("macwilliams", "dual enumerator from 'j A_j' lines", _cmd_macwilliams, (
        ("input", dict(help="enumerator file ('j A_j' lines) or '-'")),
        ("--n", dict(type=int, required=True, help="code length")),
        ("--k", dict(type=int, required=True, help="code dimension")),
        _CSV)),
    ("dual-distance", "minimum distance of the hermitian dual", _cmd_dual_distance,
     (_INPUT, _MAX_DIM)),
    ("shorten", "shorten at a coordinate", _cmd_shorten, (
        _INPUT,
        ("--at", dict(type=int, required=True, metavar="POS",
                      help="coordinate to shorten at (0-based)")),
        _EMIT)),
    ("circulant", "code from cyclic shifts of a row", _cmd_circulant, (
        ("--first-row", dict(required=True, metavar="DIGITS",
                             help="row digits, e.g. '0 0 1 2 3' or '00123'")),
        ("--k", dict(type=int, required=True, help="number of shift rows")),
        _EMIT)),
    ("double", "doubled self-orthogonal code from two inputs", _cmd_double, (
        ("--a", dict(required=True, metavar="INPUT", help="first code")),
        ("--b", dict(required=True, metavar="INPUT", help="second code")),
        ("--x1", dict(default="search", metavar="X",
                      help="odd dual vector for the first code: 'allones', "
                           "'search', or a digits file (default search)")),
        ("--x2", dict(default="search", metavar="X",
                      help="odd dual vector for the second code (default search)")),
        ("--mode", dict(choices=("odd", "even"), default="even",
                        help="odd: [2n+1,k+1]; even: [2n+2,k+2] (default even)")),
        _EMIT, _MAX_DIM)),
    ("quantum", "quantum [[n,k,d]] parameters", _cmd_quantum, (
        _INPUT, _MAX_DIM,
        ("--bounds", dict(metavar="FILE",
                          help="CSV table 'n,k,d_lower,d_upper' for annotation")))),
    ("catalog", "list built-in codes or show one", _cmd_catalog, (
        ("name", dict(nargs="?", help="entry name (omit to list all)")),)),
)


def _read_plain_args(argv: list[str]) -> SimpleNamespace | None:
    """What `build_parser().parse_args(argv)` returns, read without argparse.

    Only plain argv is read: a verb, then positionals (`-` and the empty
    string among them) and exact flags of that verb, each flag at most once
    with its value present and not starting with `-` unless it is `-`, every
    value valid for its type and choices, and every required argument given.
    Anything else gives None: -h, --flag=value, an abbreviation, `--`, a
    negative number, a repeated flag, or an error.  argparse reads those, so
    its help, usage lines and error messages stay its own.
    """
    verb = next((v for v in _VERBS if argv and v[0] == argv[0]), None)
    if verb is None:
        return None
    name, _, func, arguments = verb
    options = {flag: kwargs for flag, kwargs in arguments if flag[0] == "-"}
    given, positionals = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-" or token == "-":
            positionals.append(token)
        elif token not in options or token in given:
            return None
        elif options[token].get("action") == "store_true":
            given[token] = True
        else:
            value = given[token] = next(tokens, None)
            if value is None or value[:1] == "-" and value != "-":
                return None
    values = {"verb": name, "func": func}
    slots = iter(positionals)
    for flag, kwargs in arguments:
        positional = flag[0] != "-"
        value = next(slots, None) if positional else given.get(flag)
        dest = flag if positional else flag.lstrip("-").replace("-", "_")
        if value is None:
            if kwargs.get("required", positional and "nargs" not in kwargs):
                return None
            store_true = kwargs.get("action") == "store_true"
            values[dest] = kwargs.get("default", False if store_true else None)
            continue
        if kwargs.get("type") is int:
            try:
                value = int(value)
            except ValueError:
                return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[dest] = value
    if next(slots, None) is not None:
        return None
    return SimpleNamespace(**values)


def build_parser():
    """The argparse parser of `_VERBS`, which imports argparse when called."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="gf4codes",
        description="Quaternary linear codes: self-orthogonality, doubling, "
                    "weight enumerators, quantum code parameters.")
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")
    for name, summary, func, arguments in _VERBS:
        p = sub.add_parser(name, help=summary)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    # One plain line per warning, without the library's source location.
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_plain_args(argv)
    if args is None:
        args = build_parser().parse_args(argv, SimpleNamespace())
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            if getattr(args, "max_dim", 0) < 0:
                raise UsageError(f"--max-dim must be nonnegative, got {args.max_dim}")
            return args.func(args)
        except BudgetExceededError as exc:
            return _fail(exc, EXIT_BUDGET)
        except (MemoryError, OverflowError) as exc:
            # A well-formed size, like a zero code's header, may not fit.
            return _fail(f"input too large to process ({type(exc).__name__})", EXIT_BUDGET)
        except ConsistencyError as exc:
            return _fail(exc, EXIT_INTERNAL)
        except GF4CodesError as exc:
            return _fail(exc, EXIT_PRECONDITION)
        except (UsageError, OSError) as exc:
            return _fail(exc, EXIT_USAGE)


def _fail(exc: Exception | str, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

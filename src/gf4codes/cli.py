"""Command-line interface.

Verbs: check, wenum, macwilliams, dual-distance, shorten, circulant,
double, quantum, catalog.  Code inputs are a matrix file path, ``-`` for
stdin, or ``catalog:NAME``.  Output is deterministic key: value lines or
matrix/enumerator text, so identical invocations are byte-identical.

Exit codes: 0 success, 2 usage or unreadable file, 3 precondition or
format violation, 4 enumeration budget or memory exceeded, 5 internal
consistency failure.
"""

from __future__ import annotations

import argparse
import sys
import warnings

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


def _cmd_check(args: argparse.Namespace) -> int:
    code = _load_code(args.input)
    so = code.is_hermitian_self_orthogonal()
    print(f"n: {code.n}")
    print(f"k: {code.k}")
    print(f"hermitian_self_orthogonal: {_bool(so)}")
    print(f"trace_self_orthogonal: {_bool(code.is_trace_self_orthogonal())}")
    print(f"even: {_bool(code.is_even())}")
    print(f"self_dual: {_bool(code.is_self_dual())}")
    return EXIT_OK if so else EXIT_PRECONDITION


def _cmd_wenum(args: argparse.Namespace) -> int:
    if args.partitions < 1:
        raise UsageError(f"--partitions must be at least 1, got {args.partitions}")
    code = _load_code(args.input)
    w = weight_enumerator(code, max_dim=args.max_dim, partitions=args.partitions)
    sys.stdout.write(format_enumerator(w, csv=args.csv))
    return EXIT_OK


def _cmd_macwilliams(args: argparse.Namespace) -> int:
    if args.n < 0 or args.k < 0:
        raise UsageError(f"--n and --k must be nonnegative, got {args.n} and {args.k}")
    w = parse_enumerator(_read_text(args.input), args.n)
    sys.stdout.write(format_enumerator(macwilliams(w, args.k), csv=args.csv))
    return EXIT_OK


def _cmd_dual_distance(args: argparse.Namespace) -> int:
    code = _load_code(args.input)
    d = dual_distance(code, max_dim=args.max_dim)
    print(f"dual_distance: {d}")
    if d == code.n + 1:
        print("note: dual is the zero code (distance is the n+1 sentinel)")
    return EXIT_OK


def _cmd_shorten(args: argparse.Namespace) -> int:
    code = _load_code(args.input)
    if not 0 <= args.at < code.n:
        raise PreconditionError(f"position {args.at} outside 0..{code.n - 1}")
    _write_matrix(code.shorten(args.at), args.emit)
    return EXIT_OK


def _cmd_circulant(args: argparse.Namespace) -> int:
    _write_matrix(circulant(_parse_vector_digits(args.first_row), args.k), args.emit)
    return EXIT_OK


def _cmd_double(args: argparse.Namespace) -> int:
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


def _cmd_quantum(args: argparse.Namespace) -> int:
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


def _cmd_catalog(args: argparse.Namespace) -> int:
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


def _add_max_dim(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM, metavar="K",
                   help=f"enumeration budget: allow up to 4^K codewords "
                        f"(default {DEFAULT_MAX_DIM})")


def _add_input(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="matrix file, '-' for stdin, or catalog:NAME")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gf4codes",
        description="Quaternary linear codes: self-orthogonality, doubling, "
                    "weight enumerators, quantum code parameters.")
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")

    p = sub.add_parser("check", help="report self-orthogonality and evenness")
    _add_input(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("wenum", help="exact weight enumerator")
    _add_input(p)
    _add_max_dim(p)
    p.add_argument("--partitions", type=int, default=1, metavar="P",
                   help="split the enumeration into P chunks (same result)")
    p.add_argument("--csv", action="store_true", help="emit 'j,A_j' lines")
    p.set_defaults(func=_cmd_wenum)

    p = sub.add_parser("macwilliams", help="dual enumerator from 'j A_j' lines")
    p.add_argument("input", help="enumerator file ('j A_j' lines) or '-'")
    p.add_argument("--n", type=int, required=True, help="code length")
    p.add_argument("--k", type=int, required=True, help="code dimension")
    p.add_argument("--csv", action="store_true", help="emit 'j,A_j' lines")
    p.set_defaults(func=_cmd_macwilliams)

    p = sub.add_parser("dual-distance",
                       help="minimum distance of the hermitian dual")
    _add_input(p)
    _add_max_dim(p)
    p.set_defaults(func=_cmd_dual_distance)

    p = sub.add_parser("shorten", help="shorten at a coordinate")
    _add_input(p)
    p.add_argument("--at", type=int, required=True, metavar="POS",
                   help="coordinate to shorten at (0-based)")
    p.add_argument("--emit", metavar="FILE", help="write the matrix to FILE")
    p.set_defaults(func=_cmd_shorten)

    p = sub.add_parser("circulant", help="code from cyclic shifts of a row")
    p.add_argument("--first-row", required=True, metavar="DIGITS",
                   help="row digits, e.g. '0 0 1 2 3' or '00123'")
    p.add_argument("--k", type=int, required=True, help="number of shift rows")
    p.add_argument("--emit", metavar="FILE", help="write the matrix to FILE")
    p.set_defaults(func=_cmd_circulant)

    p = sub.add_parser("double",
                       help="doubled self-orthogonal code from two inputs")
    p.add_argument("--a", required=True, metavar="INPUT", help="first code")
    p.add_argument("--b", required=True, metavar="INPUT", help="second code")
    p.add_argument("--x1", default="search", metavar="X",
                   help="odd dual vector for the first code: 'allones', "
                        "'search', or a digits file (default search)")
    p.add_argument("--x2", default="search", metavar="X",
                   help="odd dual vector for the second code (default search)")
    p.add_argument("--mode", choices=("odd", "even"), default="even",
                   help="odd: [2n+1,k+1]; even: [2n+2,k+2] (default even)")
    p.add_argument("--emit", metavar="FILE", help="write the matrix to FILE")
    _add_max_dim(p)
    p.set_defaults(func=_cmd_double)

    p = sub.add_parser("quantum", help="quantum [[n,k,d]] parameters")
    _add_input(p)
    _add_max_dim(p)
    p.add_argument("--bounds", metavar="FILE",
                   help="CSV table 'n,k,d_lower,d_upper' for annotation")
    p.set_defaults(func=_cmd_quantum)

    p = sub.add_parser("catalog", help="list built-in codes or show one")
    p.add_argument("name", nargs="?", help="entry name (omit to list all)")
    p.set_defaults(func=_cmd_catalog)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    # One plain line per warning, without the library's source location.
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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

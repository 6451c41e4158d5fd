"""Command-line interface.

Subcommands::

    run <file> [--engine direct|free|nbe]       execute a program
    normalize [--whnf] [--engine ...] <file|->  normalize a single term
    echo <file>                                 parse and pretty-print back
    bench --group G [...] --csv PATH            run the benchmark harness

Exit codes: 0 success, 1 user error (syntax, unbound variable, ...) or an
output pipe closed by its reader, 2 internal invariant failure (scope
violation, implementation mismatch).
"""

from __future__ import annotations

import argparse
import io
import os
import sys

from . import naive
from .bench import (
    DEFAULT_FUEL,
    GROUPS,
    IMPLEMENTATIONS,
    BenchConfig,
    ResultMismatchError,
    ensure_deep_recursion,
    run_benchmarks,
    summarize,
    write_csv,
)
from .bridge import (
    DuplicateBinderError,
    UnboundVariableError,
    default_ident,
    from_foil_term,
    to_foil_closed,
    to_free_closed,
)
from .fuel import FuelExceededError
from .lambda_pi import nf_free, whnf_free
from .names import Scope, ScopeViolationError
from .nbe import nf_nbe
from .syntax import ParseError, parse_program, parse_term, pretty_program, pretty_term
from .terms import nf_direct, whnf_direct

ENGINES = ("direct", "free", "nbe")


class CliError(Exception):
    """A user-facing error with a ready-to-print message."""


def _read_source(path: str) -> str:
    # Strict UTF-8 either way; ``utf-8-sig`` drops the byte order mark some
    # editors write at the start of a file, so it is not lexed.
    try:
        if path == "-":
            # The bytes, decoded strictly and with newlines translated as a
            # file's are, whatever error handler the locale gave ``sys.stdin``.
            text = sys.stdin.buffer.read().decode("utf-8-sig")
            return io.StringIO(text, newline=None).read()
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _located(path: str, exc: Exception) -> CliError:
    if isinstance(exc, ParseError):
        return CliError(f"{path}:{exc.line}:{exc.col}: {exc.message}")
    if isinstance(exc, (UnboundVariableError, DuplicateBinderError)):
        if exc.ident.loc is not None:
            line, col = exc.ident.loc
            return CliError(f"{path}:{line}:{col}: {exc.message}")
        return CliError(f"{path}: {exc.message}")
    return CliError(f"{path}: {exc}")


def _normalize_surface(term: naive.Term, engine: str, whnf: bool) -> naive.Term:
    """Convert, normalize with the chosen engine, and convert back.

    The direct engine works on the direct tree, the others on the generic
    AST; one walk reads either back."""
    scope = Scope()
    if engine == "direct":
        direct = to_foil_closed(term)
        result = whnf_direct(scope, direct) if whnf else nf_direct(scope, direct)
    elif engine == "free":
        free = to_free_closed(term)
        result = whnf_free(scope, free) if whnf else nf_free(scope, free)
    else:
        result = nf_nbe(scope, to_free_closed(term))
    return from_foil_term(default_ident, result)


def _cmd_run(args: argparse.Namespace) -> int:
    src = _read_source(args.file)
    try:
        program = parse_program(src)
        for command in program:
            match command:
                case naive.Check(term, annot):
                    to_free_closed(term)
                    to_free_closed(annot)
                    print("scope-ok")
                case naive.Compute(term, annot):
                    to_free_closed(annot)
                    result = _normalize_surface(term, args.engine, whnf=False)
                    print(pretty_term(result))
    except (ParseError, UnboundVariableError, DuplicateBinderError) as exc:
        raise _located(args.file, exc) from exc
    return 0


def _cmd_normalize(args: argparse.Namespace) -> int:
    if args.whnf and args.engine == "nbe":
        raise CliError(
            "--whnf is not available with the nbe engine "
            "(evaluation computes full normal forms); use --engine direct or free"
        )
    src = _read_source(args.file)
    try:
        term = parse_term(src)
        result = _normalize_surface(term, args.engine, whnf=args.whnf)
    except (ParseError, UnboundVariableError, DuplicateBinderError) as exc:
        raise _located(args.file, exc) from exc
    print(pretty_term(result))
    return 0


def _cmd_echo(args: argparse.Namespace) -> int:
    src = _read_source(args.file)
    try:
        program = parse_program(src)
    except ParseError as exc:
        raise _located(args.file, exc) from exc
    sys.stdout.write(pretty_program(program))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    config = BenchConfig(
        groups=tuple(args.group),
        implementations=tuple(args.impl) if args.impl else IMPLEMENTATIONS,
        seed=args.seed,
        terms_per_random_group=args.terms,
        warmup_runs=args.warmups,
        measured_runs=args.runs,
        fuel=args.fuel,
    )
    try:  # a path that cannot be written fails before any run, not after
        open(args.csv, "a").close()
    except OSError as exc:
        raise CliError(f"{args.csv}: {exc.strerror or exc}") from exc
    rows = run_benchmarks(config)
    write_csv(rows, args.csv)
    print(summarize(rows))
    print(f"wrote {len(rows)} rows to {args.csv}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Exit status 1 on usage errors; 2 is reserved for invariant failures."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="scopefoil",
        description="Normalize lambda-Pi programs and benchmark the normalizers.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="execute every command of a program file")
    p_run.add_argument("file", help="program file")
    p_run.add_argument("--engine", choices=ENGINES, default="free")
    p_run.set_defaults(func=_cmd_run)

    p_norm = sub.add_parser("normalize", help="normalize a single term")
    p_norm.add_argument("file", help="term file, or - for stdin")
    p_norm.add_argument("--engine", choices=ENGINES, default="free")
    p_norm.add_argument(
        "--whnf", action="store_true", help="stop at weak head normal form"
    )
    p_norm.set_defaults(func=_cmd_normalize)

    p_echo = sub.add_parser("echo", help="parse a program and print it back")
    p_echo.add_argument("file", help="program file")
    p_echo.set_defaults(func=_cmd_echo)

    p_bench = sub.add_parser("bench", help="run the normalization benchmarks")
    p_bench.add_argument(
        "--group", action="append", choices=GROUPS, required=True,
        help="benchmark group (repeatable)",
    )
    p_bench.add_argument(
        "--impl", action="append", choices=IMPLEMENTATIONS, default=None,
        help="implementation to include (repeatable; default: all)",
    )
    p_bench.add_argument("--seed", type=int, default=42)
    p_bench.add_argument(
        "--terms", type=int, default=100, help="terms per random group"
    )
    p_bench.add_argument("--csv", required=True, help="path for the CSV report")
    p_bench.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    p_bench.add_argument("--warmups", type=int, default=2)
    p_bench.add_argument("--runs", type=int, default=5)
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    ensure_deep_recursion()
    try:
        status = args.func(args)
        sys.stdout.flush()  # so that a closed pipe is met here, not at exit
        return status
    except BrokenPipeError:
        # The reader has stopped reading: end quietly, with stdout on
        # os.devnull so that the flush at exit has nowhere to fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (
        CliError,
        ParseError,
        UnboundVariableError,
        DuplicateBinderError,
        FuelExceededError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: term too deep to normalize", file=sys.stderr)
        return 1
    except (ScopeViolationError, ResultMismatchError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

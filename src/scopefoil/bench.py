"""Normalization benchmark harness.

Times full normalization of shared workloads across five implementations:

* ``named``       — capture-avoiding substitution on the surface syntax
* ``debruijn``    — de Bruijn indices; shifting and beta share one index walk
* ``foil_direct`` — scope-indexed direct terms
* ``free_foil``   — the signature-generic AST with the generic substitution
* ``nbe``         — closure-based normalization by evaluation

Groups: ``nf`` (Church factorial of 6, one large normalization) and
``random15`` / ``random20`` (seeded random closed lambda terms with exactly
15 / 20 internal nodes).  Representation conversions happen outside the
timed region; every timed result is hashed (canonical de Bruijn form) and
checked against the de Bruijn oracle before a row is reported — a mismatch
aborts the run.  Timings use the monotonic ``perf_counter_ns`` clock; the
reported figure is the median of the measured runs after warmups.

Relative speed is printed for inspection only; nothing asserts an ordering.
"""

from __future__ import annotations

import csv
import logging
import random
import statistics
import time
from dataclasses import dataclass
from typing import Callable

from . import naive
from .bridge import default_ident, from_foil_term, to_foil_closed, to_free_closed
from .encoding import hash_debruijn
from .fuel import (
    DEFAULT_FUEL,
    GROUPS,
    IMPLEMENTATIONS,
    FuelExceededError,
    ensure_deep_recursion,
)
from .lambda_pi import nf_free
from .names import Scope
from .nbe import nf_nbe
from .oracles import (
    DBTerm,
    from_debruijn,
    nf_debruijn,
    nf_named,
    to_debruijn,
)
from .syntax import parse_term, pretty_term
from .terms import nf_direct

log = logging.getLogger(__name__)

# Budget for *admitting* a random term into a benchmark group.  Much
# smaller on purpose: a benchmark term gets normalized dozens of times
# (five implementations, warmups, repeats), so only cheap terms make
# useful benchmark subjects, and the work-unit accounting means this also
# caps how large their intermediate forms can grow.
DEFAULT_GEN_FUEL = 50_000

_GENERATOR_ATTEMPTS = 200


class ResultMismatchError(Exception):
    """Two implementations disagreed on a normal form (this is a bug)."""


# --------------------------------------------------------------------------
# workload builders
# --------------------------------------------------------------------------


def gen_church(n: int) -> naive.Term:
    """The Church numeral ``lam f . lam x . f (f ... (f x))``."""
    f = naive.VarIdent("f")
    x = naive.VarIdent("x")
    body: naive.Term = naive.Var(x)
    for _ in range(n):
        body = naive.App(naive.Var(f), body)
    return naive.Lam(
        naive.PatternVar(f),
        naive.ScopedTerm(naive.Lam(naive.PatternVar(x), naive.ScopedTerm(body))),
    )


_ONE = "(lam f . lam x . f x)"
_PLUS = "(lam m . lam n . lam f . lam x . m f (n f x))"
_MULT = "(lam m . lam n . lam f . m (n f))"
# n iterations of (acc, k) -> (acc * k, k + 1) starting from (1, 1); the
# first component ends up n!.
_FACT = (
    f"lam n . first (n (lam p . ({_MULT} (first p) (second p), "
    f"{_PLUS} (second p) {_ONE})) ({_ONE}, {_ONE}))"
)


def church_plus(m: int, n: int) -> naive.Term:
    return naive.App(naive.App(parse_term(_PLUS), gen_church(m)), gen_church(n))


def church_mult(m: int, n: int) -> naive.Term:
    return naive.App(naive.App(parse_term(_MULT), gen_church(m)), gen_church(n))


def church_fact(n: int) -> naive.Term:
    return naive.App(parse_term(_FACT), gen_church(n))


def _gen_closed(rng: random.Random, size: int) -> naive.Term:
    """A closed pure Lam/App/Var term with exactly ``size`` internal nodes."""
    # ``x{k}``, bound at depth ``k``: made and checked once, when a binder
    # at that depth is first reached, and shared by every use
    idents: list[naive.VarIdent] = []

    def go(n: int, depth: int) -> naive.Term:
        if n == 0:
            return naive.Var(idents[rng.randrange(depth)])
        # At depth 0 an application needs at least one internal node on each
        # side (a bare variable cannot be closed).
        app_ok = n >= 3 if depth == 0 else n >= 1
        if not app_ok or rng.random() < 1 / 3:
            if depth == len(idents):
                idents.append(naive.VarIdent(f"x{depth}"))
            return naive.Lam(
                naive.PatternVar(idents[depth]),
                naive.ScopedTerm(go(n - 1, depth + 1)),
            )
        lo = 1 if depth == 0 else 0
        left = rng.randint(lo, (n - 1) - lo)
        return naive.App(go(left, depth), go((n - 1) - left, depth))

    return go(size, 0)


def gen_random(seed: int, size: int) -> naive.Term:
    """A deterministic random closed term that normalizes within
    :data:`DEFAULT_GEN_FUEL`.

    That is the de Bruijn oracle's work budget, so it bounds both the
    number of reduction steps and the size the term reaches along the way.
    Candidates that exceed it are rejected and regenerated; after many
    rejections the size shrinks by one (with a logged warning) so the call
    always terminates.  A divergent candidate whose weak head reduction
    comes back to a head it passed, under the same pending eliminators, or
    whose normalization comes back to a term it is still normalizing, is
    rejected at that first repeat (see
    :func:`~scopefoil.oracles.nf_debruijn`) instead of after the whole
    budget: such a candidate would have spent it, so exactly the candidates
    fuel rejects are rejected.  That stops growing candidates such as
    ``(lam x . x x x) (lam x . x x x)`` too: admitting the 200 terms of
    normbench's ``random`` workload takes 5,365 beta contractions and
    11,453 ``_map_db`` visits, against 7,082 and 88,702 when only weak head
    reductions were checked, and 42,106 betas when the check saw one
    nested weak head call at a time.
    """
    ensure_deep_recursion()
    rng = random.Random(f"random-term:{seed}:{size}")
    current = size
    while current > 0:
        for _ in range(_GENERATOR_ATTEMPTS):
            candidate = _gen_closed(rng, current)
            try:
                nf_debruijn(to_debruijn(candidate), DEFAULT_GEN_FUEL)
            except FuelExceededError:  # too much work: reject and retry
                continue
            return candidate
        log.warning(
            "no term of size %d normalized within fuel %d for seed %d; shrinking",
            current,
            DEFAULT_GEN_FUEL,
            seed,
        )
        current -= 1
    raise RuntimeError("random term generation failed even at size 1")


# --------------------------------------------------------------------------
# the harness
# --------------------------------------------------------------------------


@dataclass
class BenchConfig:
    groups: tuple[str, ...]
    implementations: tuple[str, ...] = IMPLEMENTATIONS
    seed: int = 42
    terms_per_random_group: int = 100
    warmup_runs: int = 2
    measured_runs: int = 5
    fuel: int = DEFAULT_FUEL

    def __post_init__(self) -> None:
        for g in self.groups:
            if g not in GROUPS:
                raise ValueError(f"unknown group {g!r}; expected one of {GROUPS}")
        for i in self.implementations:
            if i not in IMPLEMENTATIONS:
                raise ValueError(
                    f"unknown implementation {i!r}; expected one of {IMPLEMENTATIONS}"
                )
        if self.measured_runs < 1:
            raise ValueError("measured_runs must be at least 1")
        if self.warmup_runs < 0:
            raise ValueError("warmup_runs must be at least 0")
        if self.terms_per_random_group < 1:
            raise ValueError("terms_per_random_group must be at least 1")
        if self.fuel < DEFAULT_GEN_FUEL:
            # admission is the stronger filter; a run budget below it could
            # reject terms the generator promised were fine
            raise ValueError(f"fuel must be at least {DEFAULT_GEN_FUEL}")


@dataclass(frozen=True)
class BenchRow:
    group: str
    impl: str
    term_index: int
    median_ns: int
    result_hash: str


def _workload(group: str, config: BenchConfig) -> list[naive.Term]:
    if group == "nf":
        return [church_fact(6)]
    size = 15 if group == "random15" else 20
    return [
        gen_random(config.seed + i, size)
        for i in range(config.terms_per_random_group)
    ]


def _prepare(
    impl: str, term: naive.Term, fuel: int
) -> tuple[Callable[[], object], Callable[[object], DBTerm]]:
    """Pre-convert ``term`` for ``impl``; returns (normalize, to-de-Bruijn).

    Conversions stay outside the timed region on both ends.
    """
    if impl == "named":
        return (lambda: nf_named(term, fuel)), to_debruijn
    if impl == "debruijn":
        db = to_debruijn(term)
        return (lambda: nf_debruijn(db, fuel)), (lambda r: r)

    empty = Scope()
    back = lambda r: to_debruijn(from_foil_term(default_ident, r))  # noqa: E731
    if impl == "foil_direct":
        direct = to_foil_closed(term)
        return (lambda: nf_direct(empty, direct, fuel)), back
    free = to_free_closed(term)
    if impl == "free_foil":
        return (lambda: nf_free(empty, free, fuel)), back
    if impl == "nbe":
        return (lambda: nf_nbe(empty, free)), back
    raise ValueError(f"unknown implementation {impl!r}")


def run_benchmarks(config: BenchConfig) -> list[BenchRow]:
    ensure_deep_recursion()
    rows: list[BenchRow] = []
    for group in config.groups:
        for index, term in enumerate(_workload(group, config)):
            oracle_nf = nf_debruijn(to_debruijn(term), config.fuel)
            oracle_hash = hash_debruijn(oracle_nf)
            for impl in config.implementations:
                run, to_db = _prepare(impl, term, config.fuel)
                result: object = None
                for _ in range(config.warmup_runs):
                    result = run()
                times = []
                for _ in range(config.measured_runs):
                    t0 = time.perf_counter_ns()
                    result = run()
                    times.append(time.perf_counter_ns() - t0)
                got = to_db(result)
                got_hash = hash_debruijn(got)
                if got_hash != oracle_hash:
                    raise ResultMismatchError(
                        f"{impl} disagrees with the de Bruijn oracle on "
                        f"{group}[{index}]\n"
                        f"  input:  {pretty_term(term)}\n"
                        f"  oracle: {pretty_term(from_debruijn(oracle_nf))}\n"
                        f"  {impl}: {pretty_term(from_debruijn(got))}"
                    )
                rows.append(
                    BenchRow(group, impl, index, int(statistics.median(times)), got_hash)
                )
    return rows


CSV_HEADER = ("group", "impl", "term", "median_ns", "hash")


def write_csv(rows: list[BenchRow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(
                (row.group, row.impl, row.term_index, row.median_ns, row.result_hash)
            )


def summarize(rows: list[BenchRow]) -> str:
    """Human-readable per-group summary with the observed speed ordering.

    The ordering is informational; correctness (hash agreement) is the only
    thing the harness enforces.
    """
    lines: list[str] = []
    groups = sorted({r.group for r in rows}, key=GROUPS.index)
    for group in groups:
        group_rows = [r for r in rows if r.group == group]
        term_count = len({r.term_index for r in group_rows})
        lines.append(f"group {group} ({term_count} term(s)):")
        totals: dict[str, int] = {}
        for impl in IMPLEMENTATIONS:
            impl_rows = [r for r in group_rows if r.impl == impl]
            if not impl_rows:
                continue
            total = sum(r.median_ns for r in impl_rows)
            totals[impl] = total
            lines.append(
                f"  {impl:<12} total {total / 1e6:10.3f} ms   "
                f"median {statistics.median(r.median_ns for r in impl_rows) / 1e6:10.3f} ms"
            )
        ordering = " < ".join(sorted(totals, key=totals.get))  # type: ignore[arg-type]
        lines.append(f"  observed ordering (fastest first): {ordering}")
    return "\n".join(lines)

"""The benchmark harness: workloads, generation, measurement, reporting."""

import csv
import hashlib

import pytest

from scopefoil import bench, naive, oracles
from scopefoil.bench import (
    CSV_HEADER,
    GROUPS,
    IMPLEMENTATIONS,
    BenchConfig,
    ResultMismatchError,
    church_fact,
    church_mult,
    church_plus,
    gen_church,
    gen_random,
    run_benchmarks,
    summarize,
    write_csv,
)
from scopefoil.bridge import to_foil_closed
from scopefoil.generic import PATTERN, SCOPED, children, constructor
from scopefoil.lambda_pi import BY_NAIVE
from scopefoil.fuel import FuelExceededError
from scopefoil.oracles import alpha_eq, nf_named, to_debruijn, nf_debruijn
from scopefoil.syntax import parse_term, pretty_term
from scopefoil.terms import check_scope_direct
from scopefoil.names import Scope


def test_gen_church_shape():
    assert pretty_term(gen_church(0)) == "lam f . lam x . x"
    assert pretty_term(gen_church(3)) == "lam f . lam x . f (f (f x))"


def test_church_arithmetic_against_oracle():
    """plus/mult/fact normalize to the expected literal numerals."""
    assert alpha_eq(nf_named(church_plus(2, 2)), gen_church(4))
    assert alpha_eq(nf_named(church_plus(0, 5)), gen_church(5))
    assert alpha_eq(nf_named(church_mult(3, 3)), gen_church(9))
    assert alpha_eq(nf_named(church_mult(4, 0)), gen_church(0))
    assert alpha_eq(nf_named(church_fact(1)), gen_church(1))
    assert alpha_eq(nf_named(church_fact(3)), gen_church(6))
    assert alpha_eq(nf_named(church_fact(4)), gen_church(24))


def internal_nodes(term: naive.Term) -> int:
    """Number of non-variable nodes, the size ``gen_random`` builds to: one
    per node with fields, plus those of every field but the pattern.  A
    variable and the universe count 0."""
    if type(term) is naive.Var:
        return 0
    con = constructor(BY_NAIVE, term)
    if not con.roles:
        return 0
    count = 1
    for role, field in zip(con.roles, children(term)):
        if role is not PATTERN:
            count += internal_nodes(field.term if role is SCOPED else field)
    return count


def test_internal_nodes():
    assert internal_nodes(parse_term("x")) == 0
    assert internal_nodes(parse_term("lam x . x")) == 1
    assert internal_nodes(parse_term("lam x . x x")) == 2
    assert internal_nodes(parse_term("(lam x . x) (lam y . y)")) == 3
    # every constructor but the universe counts one; variables and U count 0
    assert internal_nodes(parse_term("U")) == 0
    assert internal_nodes(parse_term("fun (x : U) -> x")) == 1
    assert internal_nodes(parse_term("fun ((a, _) : U) -> lam b . b a")) == 3
    assert internal_nodes(parse_term("(x, U)")) == 1
    assert internal_nodes(parse_term("first (second x)")) == 2
    assert internal_nodes(parse_term("lam (a, b) . (first (a, b), second U)")) == 5


def test_gen_random_is_deterministic_and_sized():
    for seed in (0, 7, 42, 9001):
        a = gen_random(seed, 15)
        b = gen_random(seed, 15)
        assert a == b
        assert internal_nodes(a) == 15
        assert gen_random(seed + 1, 15) != a or seed == 9001  # overwhelmingly
        # closed and well-scoped
        check_scope_direct(to_foil_closed(a), Scope())


def test_gen_random_terms_normalize_within_gen_fuel():
    for seed in range(20):
        term = gen_random(seed, 20)
        nf_debruijn(to_debruijn(term), bench.DEFAULT_GEN_FUEL)


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(groups=("nope",))
    with pytest.raises(ValueError):
        BenchConfig(groups=("nf",), implementations=("named", "spoon"))
    with pytest.raises(ValueError):
        BenchConfig(groups=("nf",), measured_runs=0)
    with pytest.raises(ValueError):
        BenchConfig(groups=("nf",), fuel=10)
    with pytest.raises(ValueError):
        BenchConfig(groups=("nf",), warmup_runs=-1)
    with pytest.raises(ValueError):
        BenchConfig(groups=("random15",), terms_per_random_group=0)


def test_run_benchmarks_rows_and_csv(tmp_path):
    config = BenchConfig(
        groups=("random15",),
        implementations=("named", "debruijn", "nbe"),
        seed=11,
        terms_per_random_group=2,
        warmup_runs=1,
        measured_runs=3,
    )
    rows = run_benchmarks(config)
    assert len(rows) == 2 * 3
    # per term, all implementations hash identically
    by_term = {}
    for row in rows:
        by_term.setdefault(row.term_index, set()).add(row.result_hash)
    assert all(len(hashes) == 1 for hashes in by_term.values())
    assert all(row.median_ns > 0 for row in rows)

    path = tmp_path / "out.csv"
    write_csv(rows, str(path))
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == list(CSV_HEADER)
    assert len(got) == 1 + len(rows)
    assert got[1][0] == "random15"
    assert got[1][1] == "named"
    int(got[1][3])  # median_ns parses as an integer
    assert len(got[1][4]) == 64

    text = summarize(rows)
    assert "random15" in text
    assert "observed ordering" in text
    for impl in ("named", "debruijn", "nbe"):
        assert impl in text


def test_gen_random_admits_frozen_terms():
    # admission charges de Bruijn fuel, so this digest pins both the fuel
    # rule and the generator
    text = "\n".join(
        pretty_term(gen_random(42 + i, s)) for s in (15, 20) for i in range(20)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9e1cecab7b68d5cbf39707109b15532d5079a3d1dd6f16cd80df5990036ce0e1"
    )


def test_gen_random_admits_the_random_workload_pool():
    # the 200 terms of normbench's ``random`` workload: admission rejects on
    # fuel, so a change to the de Bruijn normalizer's fuel rule can change
    # which terms exist
    text = "\n".join(
        pretty_term(gen_random(42 + i, s)) for s in (15, 20) for i in range(100)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3a99182d92898628338c4db2a55497b197238b6255abd199d62b785699bd52ee"
    )


def _admission_work(monkeypatch, terms_per_size: int) -> tuple[int, int]:
    # the beta contractions and the ``_map_db`` visits that admitting
    # gen_random(42 + i, s), s = 15/20, i < terms_per_size, takes
    betas = visits = 0
    beta, map_db = oracles._db_beta, oracles._map_db

    def counted_beta(shape, body, arg):
        nonlocal betas
        betas += 1
        return beta(shape, body, arg)

    def counted_map_db(term, on_bvar, depth):
        nonlocal visits
        visits += 1
        return map_db(term, on_bvar, depth)

    monkeypatch.setattr(oracles, "_db_beta", counted_beta)
    monkeypatch.setattr(oracles, "_map_db", counted_map_db)
    for s in (15, 20):
        for i in range(terms_per_size):
            gen_random(42 + i, s)
    return betas, visits


def test_gen_random_admission_work_is_bounded(monkeypatch):
    """A candidate whose reduction comes back to a state it passed is
    rejected there, not after its whole budget: the beta contractions that
    admitting the frozen terms takes stay at most what they were when the
    check came to see the whole spine (12,998 with a check per nested whnf
    call, 48,879 with none)."""
    betas, _ = _admission_work(monkeypatch, 20)
    assert betas <= 323


def test_gen_random_admission_work_for_the_random_pool_is_bounded(monkeypatch):
    """The same bound for the 200 terms of normbench's ``random`` workload,
    since normalization also stops where it comes back to a term it is
    normalizing: 5,365 betas and 11,453 ``_map_db`` visits, against 7,082
    and 88,702 when only weak head reductions were checked (42,106 betas
    with a check per nested whnf call)."""
    betas, visits = _admission_work(monkeypatch, 100)
    assert betas <= 5_365
    assert visits <= 11_453


def test_gen_random_rejects_on_fuel_alone(monkeypatch):
    """A candidate that runs out of fuel is redrawn; a ``RecursionError``
    inside admission is a bug, not a rejection, and propagates."""
    calls = 0
    real = bench.nf_debruijn

    def out_of_fuel_once(term, fuel):
        nonlocal calls
        calls += 1
        if calls == 1:
            raise FuelExceededError(fuel)
        return real(term, fuel)

    monkeypatch.setattr(bench, "nf_debruijn", out_of_fuel_once)
    second = gen_random(7, 15)  # the first candidate ran out of fuel
    assert calls == 2
    assert second != gen_random(7, 15)  # admitted: the first candidate

    def too_deep(term, fuel):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(bench, "nf_debruijn", too_deep)
    with pytest.raises(RecursionError):
        gen_random(7, 15)


def test_mismatch_detection(monkeypatch):
    """A lying implementation is caught by the oracle hash check."""
    wrong = to_foil_closed(parse_term("lam x . lam y . y"))

    monkeypatch.setattr(bench, "nf_direct", lambda scope, term, fuel: wrong)
    config = BenchConfig(
        groups=("random15",),
        implementations=("foil_direct",),
        seed=3,
        terms_per_random_group=1,
        warmup_runs=0,
        measured_runs=1,
    )
    with pytest.raises(ResultMismatchError) as err:
        run_benchmarks(config)
    assert "foil_direct" in str(err.value)


def test_constants_are_frozen_interfaces():
    assert IMPLEMENTATIONS == ("named", "debruijn", "foil_direct", "free_foil", "nbe")
    assert GROUPS == ("nf", "random15", "random20")
    assert CSV_HEADER == ("group", "impl", "term", "median_ns", "hash")

"""The benchmark harness: workloads, generation, measurement, reporting."""

import csv

import pytest

from scopefoil import bench
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
    internal_nodes,
    run_benchmarks,
    summarize,
    write_csv,
)
from scopefoil.bridge import to_foil_closed
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


def test_internal_nodes():
    assert internal_nodes(parse_term("x")) == 0
    assert internal_nodes(parse_term("lam x . x")) == 1
    assert internal_nodes(parse_term("lam x . x x")) == 2
    assert internal_nodes(parse_term("(lam x . x) (lam y . y)")) == 3


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

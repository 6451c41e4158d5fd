"""Tests of the benchmark's own checks: ``python3 -m pytest normbench``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from scopefoil import bench, bridge, lambda_pi, naive, names, oracles, syntax  # noqa: E402

bench.ensure_deep_recursion()


def represent(kind: str, src: str):
    """``src`` in the representation ``kind``'s results come in, unnormalized.
    Free identifiers become free names of the scoped representations."""
    term = syntax.parse_term(src)
    if kind == "named":
        return term
    if kind == "debruijn":
        return oracles.to_debruijn(term)
    if kind == "pipeline":
        return syntax.pretty_term(term)
    free = sorted(naive.free_idents(term))
    env = {ident: names.Name(1000 + i) for i, ident in enumerate(free)}
    scope = names.Scope(n.raw for n in env.values())
    direct = bridge.to_foil_term(bridge.rename_from_env(env), scope, term)
    return direct if kind == "foil_direct" else lambda_pi.direct_to_free(direct)


def checker_for(expected_src: str, value: int | None = None) -> run.Checker:
    canon = checks.from_named(syntax.parse_term(expected_src))
    return run.Checker(workloads.Inputs([], [expected_src], [canon], [value]))


@pytest.mark.parametrize("kind", run.KINDS)
def test_expected_form_passes_in_every_representation(kind):
    checker = checker_for("lam f . lam x . f (f x)", 2)
    checker.check(kind, [represent(kind, "lam s . lam z . s (s z)")])
    assert (checker.attempted, checker.failed, checker.wrong) == (1, 0, 0)


@pytest.mark.parametrize("kind", run.KINDS)
@pytest.mark.parametrize(
    "bad",
    [
        "lam f . lam x . f (f (f x))",  # a numeral off by one
        "lam f . lam x . (lam y . f y) x",  # a beta redex left over
        "lam f . lam x . first (f x, x)",  # a projection redex left over
        "lam f . lam x . f (g x)",  # a free variable
    ],
)
def test_each_check_rejects(kind, bad):
    checker = checker_for("lam f . lam x . f (f x)", 2)
    checker.check(kind, [represent(kind, bad)])
    assert (checker.attempted, checker.failed, checker.wrong) == (1, 1, 1)


def test_checks_without_an_expected_value():
    assert checks.church_value(checks.church_numeral(7)) == 7
    with pytest.raises(checks.CheckFailed, match="free variable"):
        checks.check_closed_normal(checks.from_named(syntax.parse_term("lam x . y x")))
    with pytest.raises(checks.CheckFailed, match="beta redex"):
        checks.check_closed_normal(checks.from_text("lam a . (lam b . b) a"))
    with pytest.raises(checks.CheckFailed, match="not a Church numeral"):
        checks.church_value(checks.from_text("lam f . lam x . x f"))


def test_an_exception_is_a_failure_but_not_a_wrong_result():
    checker = checker_for("lam x . x")
    checker.check("named", [RecursionError("too deep")])
    assert (checker.failed, checker.wrong) == (1, 0)


def test_agreement_fixes_the_expected_form_by_majority():
    inputs = workloads.Inputs([], ["t"], [None], [None])
    checker = run.Checker(inputs)
    good = "lam a . lam b . b"
    results = {kind: [represent(kind, good)] for kind in run.KINDS}
    results["nbe"] = [represent("nbe", "lam a . lam b . a")]
    checker.settle(results)
    for kind, outs in results.items():
        checker.check(kind, outs)
    assert (checker.attempted, checker.failed) == (6, 1)


def test_workloads_are_seeded_and_expected_forms_are_right():
    for name, make in workloads.BUILDERS.items():
        if name == "random":
            continue  # admission takes seconds; covered by the run below
        first, again, other = make(3), make(3), make(4)
        assert first.texts == again.texts
        assert first.texts != other.texts
        for term, expected in zip(first.terms[:3], first.expected):
            assert checks.from_debruijn(oracles.nf_debruijn(oracles.to_debruijn(term))) == expected


def test_profile_attributes_constructors_to_their_caller():
    _, prof = layers.profile(lambda: bench.gen_church(200))
    assert prof.calls[("bench", "gen_church")] == 1
    assert prof.self_s["bench"] > 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_one_result_line(trace):
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    env.pop("SCOPEFOIL_DEBUG_SCOPES", None)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "church", "--seed", "5",
         "--seconds", "1", "--trace", trace],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_run_refuses_debug_scopes():
    env = {**os.environ, "PYTHONHASHSEED": "0", "SCOPEFOIL_DEBUG_SCOPES": "1"}
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "church", "--seed", "1",
         "--seconds", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""

"""Normalization benchmark: the five normalizers of ``scopefoil`` on one workload.

Run from the repository root, with the command recorded in BENCHMARK.json::

    env PYTHONHASHSEED=0 python3 normbench/run.py --workload church --seed 1 --seconds 20 --trace 0

One process, one thread.  It sets up the workload several times (import,
inputs, conversions), then times rounds until ``--seconds`` have passed.  A
round times, in this order, one pass of each engine over every input
(``named``, ``debruijn``, ``foil_direct``, ``free_foil``, ``nbe``) and one
in-process ``scopefoil run`` of the workload file, and checks every result
(see ``checks.py``).  With ``--trace 1`` it then makes a separate profiled
pass for the per-layer numbers (see ``layers.py``).  The last line of
standard output is the JSON result; a summary goes to standard error.

The 2-CPU machine the reference figures in README.md come from changes
speed by up to 1.6x for tens of seconds at a time, for every process alike,
so a raw median moves by far more between runs than a regression would.  Each timing is therefore
reported in *reference seconds*: the measured wall time multiplied by
``CALIB_REF_S / c``, where ``c`` is the mean wall time of a fixed
calibration loop run just before and just after it.  ``machine.calib_s``
reports the raw calibration time, and the summary on standard error the raw
wall-clock medians.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

ENGINES = ("named", "debruijn", "foil_direct", "free_foil", "nbe")
KINDS = ENGINES + ("pipeline",)
SETUPS = 3
STAGE_PASSES = 3

# Wall time of ``calibrate()`` on the machine the reference figures in
# README.md come from, in its fast periods.
CALIB_REF_S = 0.020


@dataclass(frozen=True, slots=True)
class _Node:
    left: object
    right: object


def _build(depth: int):
    return None if depth == 0 else _Node(_build(depth - 1), _build(depth - 1))


def _size(tree) -> int:
    return 0 if tree is None else 1 + _size(tree.left) + _size(tree.right)


def _calibration_loop() -> int:
    """Fixed work in three parts: allocating and walking a tree of slotted
    dataclasses, integer arithmetic, and growing a frozenset of strings.
    Each part alone tracks the engines' slow periods less well than the
    three together (measured against ``church`` samples)."""
    nodes = _size(_build(13))
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    idents: frozenset[str] = frozenset()
    for i in range(8_000):
        idents = idents | {f"x{i % 97}"}
    return nodes + acc + len(idents)


_CALIBRATION_RESULT = _calibration_loop()


def calibrate() -> float:
    """Wall time of the calibration loop."""
    gc.collect()
    t0 = time.perf_counter()
    result = _calibration_loop()
    elapsed = time.perf_counter() - t0
    if result != _CALIBRATION_RESULT:
        raise AssertionError("calibration loop changed its result")
    return elapsed


class Clock:
    """Wall-time spans scaled to the calibration loop's reference speed."""

    def __init__(self) -> None:
        self.before = calibrate()
        self.calibs = [self.before]

    def span(self, fn) -> tuple[float, float, object]:
        """Run ``fn``; return (reference seconds, wall seconds, result)."""
        gc.collect()
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        after = calibrate()
        scale = CALIB_REF_S / ((self.before + after) / 2)
        self.before = after
        self.calibs.append(after)
        return wall * scale, wall, result


def timed_pass(calls: list) -> list:
    """Call each thunk once; an exception becomes that call's result."""
    out = []
    for call in calls:
        try:
            out.append(call())
        except Exception as exc:  # counted as a failed operation
            out.append(exc)
    return out


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------


@dataclass
class Setup:
    inputs: workloads.Inputs
    runs: dict  # engine -> list of thunks, one per input
    lp_path: Path
    import_s: float = 0.0
    inputs_s: float = 0.0
    convert_s: float = 0.0


def import_program() -> None:
    """(Re-)import the whole package from ``src``, as a fresh process would."""
    for name in [m for m in sys.modules if m == "scopefoil" or m.startswith("scopefoil.")]:
        del sys.modules[name]
    cli = importlib.import_module("scopefoil.cli")
    if Path(cli.__file__).resolve().parent != SRC / "scopefoil":
        raise SystemExit(f"error: imported scopefoil from {cli.__file__}, not from {SRC}")


def prepare(surface: list) -> dict:
    """Each engine's thunks, one per input, with every conversion done."""
    from scopefoil import bench, bridge, lambda_pi, names, nbe, oracles, terms

    fuel = bench.DEFAULT_FUEL
    db = [oracles.to_debruijn(t) for t in surface]
    direct = [bridge.to_foil_closed(t) for t in surface]
    free = [lambda_pi.direct_to_free(d) for d in direct]
    empty = names.Scope()
    return {
        "named": [partial(oracles.nf_named, t, fuel) for t in surface],
        "debruijn": [partial(oracles.nf_debruijn, d, fuel) for d in db],
        "foil_direct": [partial(terms.nf_direct, empty, d, fuel) for d in direct],
        "free_foil": [partial(lambda_pi.nf_free, empty, f, fuel) for f in free],
        "nbe": [partial(nbe.nf_nbe, empty, f) for f in free],
    }


def build(workload: str, seed: int) -> Setup:
    """Inputs, their conversion into every representation, and the .lp file."""
    t0 = time.perf_counter()
    inputs = workloads.BUILDERS[workload](seed)
    t1 = time.perf_counter()
    runs = prepare(inputs.terms)
    OUT.mkdir(exist_ok=True)
    lp_path = OUT / f"{workload}-{seed}.lp"
    lp_path.write_text("".join(f"compute {text} : U ;\n" for text in inputs.texts))
    t2 = time.perf_counter()
    return Setup(inputs, runs, lp_path, inputs_s=t1 - t0, convert_s=t2 - t1)


def set_up(workload: str, seed: int) -> Setup:
    t0 = time.perf_counter()
    import_program()
    from scopefoil import bench

    bench.ensure_deep_recursion()
    t1 = time.perf_counter()
    setup = build(workload, seed)
    setup.import_s = t1 - t0
    return setup


# --------------------------------------------------------------------------
# operations and their checks
# --------------------------------------------------------------------------

READERS = {
    "named": checks.from_named,
    "debruijn": checks.from_debruijn,
    "foil_direct": checks.from_direct,
    "free_foil": checks.from_generic,
    "nbe": checks.from_generic,
    "pipeline": checks.from_text,
}


def run_pipeline(lp_path: Path, n: int) -> list:
    """``scopefoil run <file>`` in-process (default ``free`` engine): one
    printed normal form per input, or the error for each of the ``n`` inputs."""
    from scopefoil import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["run", str(lp_path)])
    if code != 0:
        return [RuntimeError(f"scopefoil run exited with {code}")] * n
    return out.getvalue().splitlines()


class Checker:
    """Checks each result against the workload's expected normal forms.

    An operation that raised or whose result fails a check counts as failed;
    a result that fails a check also makes the run incorrect.
    """

    def __init__(self, inputs: workloads.Inputs):
        self.inputs = inputs
        self.refs = list(inputs.expected)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: list[str] = []

    def report(self, message: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        if len(self.errors) < 20:
            self.errors.append(message)

    def canon(self, kind: str, result) -> tuple:
        if isinstance(result, Exception):
            raise checks.CheckFailed(f"{type(result).__name__}: {result}")
        canon = READERS[kind](result)
        checks.check_closed_normal(canon)
        return canon

    def settle(self, results: dict[str, list]) -> None:
        """Fix the expected form of inputs only agreement can check: the form
        most kinds produced, which must be closed and normal."""
        for i, ref in enumerate(self.refs):
            if ref is not None:
                continue
            votes: dict = {}
            for kind, outs in results.items():
                try:
                    canon = self.canon(kind, outs[i])
                except (checks.CheckFailed, RecursionError):
                    continue
                votes[canon] = votes.get(canon, 0) + 1
            if votes:
                self.refs[i] = max(votes, key=votes.get)

    def check(self, kind: str, outs: list) -> None:
        self.attempted += len(self.refs)
        if len(outs) != len(self.refs):
            for _ in self.refs:
                self.report(f"{kind}: {len(outs)} results for {len(self.refs)} inputs", True)
            return
        for i, result in enumerate(outs):
            if isinstance(result, Exception):
                self.report(f"{kind} input {i}: {type(result).__name__}: {result}", False)
                continue
            try:
                canon = self.canon(kind, result)
                value = self.inputs.values[i]
                if value is not None and checks.church_value(canon) != value:
                    got = checks.church_value(canon)
                    raise checks.CheckFailed(f"numeral {got}, expected {value}")
                if canon != self.refs[i]:
                    raise checks.CheckFailed("normal form differs from the expected one")
            except (checks.CheckFailed, RecursionError) as exc:
                self.report(f"{kind} input {i}: {exc}", True)


# --------------------------------------------------------------------------
# the run
# --------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, clock: Clock):
    spans: dict[str, list[float]] = {
        name: [] for name in ("setup_s", "setup.import_s", "setup.inputs_s", "setup.convert_s")
    }
    for _ in range(SETUPS):
        setup = None  # the previous set-up is garbage before the next starts
        ref_s, wall, setup = clock.span(partial(set_up, workload, seed))
        spans["setup_s"].append(ref_s)
        for name in ("import", "inputs", "convert"):
            spans[f"setup.{name}_s"].append(getattr(setup, f"{name}_s") * ref_s / wall)
    # Keep the inputs out of the collector's view from here on, so that the
    # gc.collect() before each sample and any full collection inside one cost
    # as much on a large workload as on a small one.
    gc.collect()
    gc.freeze()
    checker = Checker(setup.inputs)
    ops = {kind: partial(timed_pass, setup.runs[kind]) for kind in ENGINES}
    ops["pipeline"] = partial(run_pipeline, setup.lp_path, len(setup.inputs.terms))

    # The first round warms up and fixes the expected forms that only
    # agreement can check; its times are not kept.
    samples: dict[str, list[tuple[float, float]]] = {kind: [] for kind in KINDS}
    rounds = 0
    start = time.perf_counter()
    while rounds < 2 or time.perf_counter() - start < seconds:
        results = {}
        for kind in KINDS:
            ref_s, wall, outs = clock.span(ops[kind])
            results[kind] = outs
            if rounds > 0:
                samples[kind].append((ref_s, wall))
                checker.check(kind, outs)
        if rounds == 0:
            checker.settle(results)
            for kind, outs in results.items():
                checker.check(kind, outs)
        rounds += 1
    return spans, setup, checker, samples, rounds


def traced(workload: str, seed: int, checker: Checker, clock: Clock, untraced_s: float) -> dict:
    """The profiled pass: per-layer metrics, kept apart from the timed samples."""
    from scopefoil import bridge, encoding, lambda_pi, names, oracles, syntax

    def profiled(fn):
        """(reference seconds, result, profile, reference seconds per wall second)"""
        ref_s, wall, (result, prof) = clock.span(partial(layers.profile, fn))
        return ref_s, result, prof, ref_s / wall

    total = layers.Profile()
    metrics: dict[str, tuple[float, str]] = {}

    _, rebuilt, prof, k = profiled(partial(build, workload, seed))
    total.add(prof, k)
    candidates = prof.calls.get(("bench", "_gen_closed"), 0)
    accepted = prof.calls.get(("bench", "gen_random"), 0)
    metrics["bench.gen_random.candidates"] = (candidates, "count")
    ratio = accepted / candidates if candidates else 0.0
    metrics["bench.gen_random.accept_ratio"] = (ratio, "ratio")

    traced_s = 0.0
    for engine in ENGINES:
        runs = rebuilt.runs[engine]
        ref_s, outs, prof, k = profiled(partial(timed_pass, runs))
        checker.check(engine, outs)
        _, outs, again, _ = profiled(partial(timed_pass, runs))
        checker.check(engine, outs)
        if dict(prof.calls) != dict(again.calls):
            checker.report(f"{engine}: call counts differ between two profiled passes", True)
        traced_s += ref_s
        total.add(prof, k)
        for layer in ENGINE_LAYERS[engine]:
            metrics[f"{engine}.{layer}.self_s"] = (prof.self_s.get(layer, 0.0) * k, "s")
        for layer, fn, label in ENGINE_COUNTS[engine]:
            metrics[f"{engine}.{layer}.{label}.calls"] = (prof.calls.get((layer, fn), 0), "count")
        if "names" in ENGINE_LAYERS[engine]:
            metrics[f"{engine}.names.refreshes"] = (prof.refreshes, "count")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")

    n = len(rebuilt.inputs.terms)
    _, outs, prof, k = profiled(partial(run_pipeline, rebuilt.lp_path, n))
    checker.check("pipeline", outs)
    total.add(prof, k)

    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (total.self_s.get(layer, 0.0), "s")
    metrics["names.Scope.add.calls"] = (total.calls.get(("names", "add"), 0), "count")
    refreshed = total.calls.get(("names", "with_refreshed"), 0)
    metrics["names.with_refreshed.calls"] = (refreshed, "count")

    # Stage spans, not profiled: the pipeline of ``scopefoil run`` split into
    # its stages, plus the de Bruijn conversion and hash that the bench
    # harness checks results with.
    empty = names.Scope()
    stages: dict[str, list[float]] = {name: [] for name in STAGE_NAMES}
    for _ in range(STAGE_PASSES):
        spent = dict.fromkeys(STAGE_NAMES, 0.0)
        outs = []
        before = calibrate()
        for text in rebuilt.inputs.texts:
            t = [time.perf_counter()]
            surface = syntax.parse_term(text)
            t.append(time.perf_counter())
            direct = bridge.to_foil_closed(surface)
            t.append(time.perf_counter())
            free = lambda_pi.direct_to_free(direct)
            t.append(time.perf_counter())
            normal = lambda_pi.nf_free(empty, free)
            t.append(time.perf_counter())
            back = lambda_pi.free_to_direct(normal)
            t.append(time.perf_counter())
            named = bridge.from_foil_term(bridge.default_ident, back)
            t.append(time.perf_counter())
            syntax.pretty_term(named)
            t.append(time.perf_counter())
            db = oracles.to_debruijn(named)
            t.append(time.perf_counter())
            encoding.hash_debruijn(db)
            t.append(time.perf_counter())
            for name, a, b in zip(STAGE_NAMES, t, t[1:]):
                spent[name] += b - a
            outs.append(normal)
        scale = CALIB_REF_S / ((before + calibrate()) / 2)
        for name, seconds in spent.items():
            stages[name].append(seconds * scale)
        checker.check("free_foil", outs)
    for name, values in stages.items():
        metrics[name] = (statistics.median(values), "s")
    return metrics


LAYERS = (
    "syntax", "bridge", "lambda_pi", "generic", "terms", "patterns", "names",
    "fuel", "naive", "oracles", "nbe", "bench", "cli",
)
STAGE_NAMES = (
    "syntax.parse_s", "bridge.to_foil_s", "lambda_pi.to_free_s", "lambda_pi.nf_s",
    "lambda_pi.to_direct_s", "bridge.from_foil_s", "syntax.pretty_s",
    "oracles.to_debruijn_s", "encoding.hash_s",
)
ENGINE_LAYERS = {
    "named": ("oracles", "naive", "fuel"),
    "debruijn": ("oracles", "fuel"),
    "foil_direct": ("terms", "patterns", "names", "fuel"),
    "free_foil": ("lambda_pi", "generic", "names", "fuel"),
    "nbe": ("nbe", "lambda_pi", "names"),
}
# (layer, function as cProfile names it, metric label)
ENGINE_COUNTS = {
    "named": (
        ("naive", "free_idents", "free_idents"),
        ("oracles", "subst_named", "subst_named"),
        ("oracles", "_fresh_ident", "_fresh_ident"),
        ("fuel", "spend", "Fuel.spend"),
    ),
    "debruijn": (
        ("oracles", "shift_db", "shift_db"),
        ("oracles", "_db_size", "_db_size"),
        ("fuel", "spend", "Fuel.spend"),
    ),
    "foil_direct": (
        ("terms", "subst_direct", "subst_direct"),
        ("names", "add", "Scope.add"),
        ("names", "with_refreshed", "with_refreshed"),
        ("fuel", "spend", "Fuel.spend"),
    ),
    "free_foil": (
        ("generic", "substitute", "substitute"),
        ("names", "add", "Scope.add"),
        ("names", "with_refreshed", "with_refreshed"),
        ("fuel", "spend", "Fuel.spend"),
    ),
    "nbe": (
        ("nbe", "eval_term", "eval_term"),
        ("nbe", "force", "Thunk.force"),
        ("names", "add", "Scope.add"),
        ("names", "with_refreshed", "with_refreshed"),
    ),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != "0":
        print("error: run with PYTHONHASHSEED=0 (see BENCHMARK.json)", file=sys.stderr)
        return 2
    if os.environ.get("SCOPEFOIL_DEBUG_SCOPES") == "1":
        print(
            "error: SCOPEFOIL_DEBUG_SCOPES=1 times the scope assertions, not the program",
            file=sys.stderr,
        )
        return 2
    if not (SRC / "scopefoil" / "__init__.py").is_file():
        print(f"error: no scopefoil sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    clock = Clock()
    spans, setup, checker, samples, rounds = measure(args.workload, args.seed, args.seconds, clock)
    medians = {kind: statistics.median(s[0] for s in samples[kind]) for kind in KINDS}
    raw = {kind: statistics.median(s[1] for s in samples[kind]) for kind in KINDS}
    calib_s = statistics.median(clock.calibs)

    if args.trace:
        untraced_s = sum(medians[e] for e in ENGINES)
        metrics = traced(args.workload, args.seed, checker, clock, untraced_s)
        metrics["machine.calib_s"] = (calib_s, "s")
        for name in ("setup.import_s", "setup.inputs_s", "setup.convert_s"):
            metrics[name] = (statistics.median(spans[name]), "s")
    else:
        metrics = {"setup_s": (statistics.median(spans["setup_s"]), "s")}
        for kind in KINDS:
            metrics[f"{kind}_s"] = (medians[kind], "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    print(
        f"{args.workload} seed {args.seed}: {rounds - 1} timed rounds, "
        f"{len(setup.inputs.terms)} inputs, calib median {calib_s:.4f} s "
        f"(min {min(clock.calibs):.4f}, max {max(clock.calibs):.4f})",
        file=sys.stderr,
    )
    for kind in KINDS:
        print(f"  {kind:<12} {medians[kind]:.4f} ref-s   {raw[kind]:.4f} wall-s", file=sys.stderr)
    for error in checker.errors:
        print(f"  FAILED {error}", file=sys.stderr)
    result = {
        "correct": checker.wrong == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

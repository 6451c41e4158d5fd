"""The command-line interface: subcommands, exit codes, error formatting."""

import csv
import errno
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from scopefoil import cli
from scopefoil.cli import main


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_run_check_and_compute(tmp_path, capsys):
    path = _write(
        tmp_path,
        "p.lp",
        "check lam x . x : fun (A : U) -> U ;\n"
        "compute (lam x . (x, x)) U : (U, U) ;\n",
    )
    assert main(["run", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["scope-ok", "(U, U)"]


def test_run_engines_agree(tmp_path, capsys):
    path = _write(
        tmp_path, "p.lp", "compute (lam f . lam x . f (f x)) (lam y . y) U : U ;\n"
    )
    results = []
    for engine in ("direct", "free", "nbe"):
        assert main(["run", path, "--engine", engine]) == 0
        results.append(capsys.readouterr().out)
    assert results[0] == results[1] == results[2] == "U\n"


def test_run_pattern_programs_agree_across_engines(tmp_path, capsys):
    corpus = Path(__file__).resolve().parent.parent / "corpus" / "pairs.lp"
    path = _write(
        tmp_path,
        "p.lp",
        "compute (lam _ . U) U : U ;\n"
        "compute fun ((a, b) : U) -> a : U ;\n"
        "compute (lam (a, _) . a) (U, lam y . y y) : U ;\n",
    )
    for program in (str(corpus), path):
        outputs = []
        for engine in ("direct", "free", "nbe"):
            assert main(["run", program, "--engine", engine]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2], program
    assert outputs[0] == "U\nfun ((x0, x1) : U) -> x0\nU\n"


# sha256 of the standard output of ``scopefoil run corpus/<file>``, the same
# under every engine
CORPUS_RUN_SHA256 = {
    "church.lp": "fbe7025bf0f75be3ba84c762a2298af6e44820c0f8710ef530d58b831dae9b2b",
    "idents.lp": "445f2a936d4de613e8747ff79dc772b134cdb43d3f6a80d167419842575c5aeb",
    "pairs.lp": "e4d0af57133706c246a7ff256a5ac1f9296c40123485d90621c857a9f356b32e",
}


def test_run_corpus_output_is_pinned(capsys):
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    assert sorted(p.name for p in corpus.glob("*.lp")) == sorted(CORPUS_RUN_SHA256)
    for name, digest in CORPUS_RUN_SHA256.items():
        for engine in ("direct", "free", "nbe"):
            assert main(["run", str(corpus / name), "--engine", engine]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (name, engine)


def test_normalize_file_and_stdin(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "t.lp", "(lam x . x x) (lam y . y)\n")
    assert main(["normalize", path]) == 0
    assert capsys.readouterr().out == "lam x0 . x0\n"

    stdin = io.TextIOWrapper(io.BytesIO(b"second (U, lam q . q)"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main(["normalize", "-"]) == 0
    assert capsys.readouterr().out == "lam x0 . x0\n"


def test_normalize_whnf(tmp_path, capsys):
    path = _write(tmp_path, "t.lp", "(lam x . (x, x)) ((lam y . y) U)")
    assert main(["normalize", "--whnf", path]) == 0
    assert capsys.readouterr().out == "((lam x0 . x0) U, (lam x0 . x0) U)\n"
    assert main(["normalize", "--whnf", "--engine", "direct", path]) == 0
    capsys.readouterr()


def test_normalize_whnf_rejects_nbe(tmp_path, capsys):
    path = _write(tmp_path, "t.lp", "U")
    assert main(["normalize", "--whnf", "--engine", "nbe", path]) == 1
    err = capsys.readouterr().err
    assert "--whnf" in err and "nbe" in err


def test_echo_is_byte_idempotent(tmp_path, capsys):
    src = (
        "-- a comment that will not survive\n"
        "check lam x.x:fun (A:U)->U;\n"
        "compute first ((U , U)) : U ;\n"
    )
    path = _write(tmp_path, "p.lp", src)
    assert main(["echo", path]) == 0
    once = capsys.readouterr().out
    path2 = _write(tmp_path, "p2.lp", once)
    assert main(["echo", path2]) == 0
    twice = capsys.readouterr().out
    assert once == twice
    assert once == (
        "check lam x . x : fun (A : U) -> U ;\n"
        "compute first (U, U) : U ;\n"
    )


def test_parse_error_location_and_exit_code(tmp_path, capsys):
    path = _write(tmp_path, "bad.lp", "compute (lam x . x : U ;\n")
    assert main(["run", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:1:20:")


def test_input_too_deep_to_parse_is_a_located_parse_error(tmp_path, capsys):
    """``U`` in 50,000 parentheses runs the parser out of stack before
    anything is normalized (``echo`` normalizes nothing)."""
    nested = "(" * 50_000 + "U" + ")" * 50_000
    program = _write(tmp_path, "deep.lp", f"check {nested} : U ;\n")
    term = _write(tmp_path, "deep.term", nested)
    for argv in (["echo", program], ["run", program], ["normalize", term]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {argv[1]}:1:")
        assert err.endswith(": input nested too deeply to parse\n")
        assert "normalize" not in err.removeprefix(f"error: {argv[1]}")


def test_unbound_variable_location(tmp_path, capsys):
    path = _write(tmp_path, "bad.lp", "compute lam x . yy : U ;\n")
    assert main(["run", path]) == 1
    err = capsys.readouterr().err
    assert f"{path}:1:17" in err
    assert "yy" in err


def test_duplicate_binder_rejected(tmp_path, capsys):
    path = _write(tmp_path, "bad.lp", "compute lam (a, a) . a : U ;\n")
    assert main(["run", path]) == 1
    err = capsys.readouterr().err
    assert f"{path}:1:17: pattern binds 'a' twice" in err


def test_missing_file_is_user_error(capsys):
    assert main(["run", "/nonexistent/nowhere.lp"]) == 1
    assert "error:" in capsys.readouterr().err


def test_undecodable_input_is_a_user_error_naming_its_path(tmp_path, capsys, monkeypatch):
    path = tmp_path / "bad.lp"
    path.write_bytes(b"\xffcheck U : U ;\n")
    reason = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    for command in ("normalize", "run", "echo"):
        assert main([command, str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {reason}\n"
    stdin = io.TextIOWrapper(io.BytesIO(b"\xffU"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main(["normalize", "-"]) == 1
    assert capsys.readouterr().err == f"error: -: {reason}\n"


def test_undecodable_stdin_fails_like_a_file_under_the_c_locale():
    """Under the C locale the interpreter decodes ``sys.stdin`` with
    ``surrogateescape``; the CLI reads the bytes and decodes them strictly,
    so a bad byte is a decode error, not a parse error on a character the
    input never held."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONIOENCODING", "PYTHONUTF8")}
    src = str(Path(cli.__file__).resolve().parents[1])
    env.update(LC_ALL="C", PYTHONPATH=os.pathsep.join(filter(None, (src, env.get("PYTHONPATH")))))
    reason = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    for data, code, out, err in (
        (b"\xffU", 1, "", f"error: -: {reason}\n"),
        ("(lam x . x) (λ, U)".encode(), 1, "", "error: -:1:14: unexpected character 'λ'\n"),
        (b"(lam x . x)\r\n  U\r\n", 0, "U\n", ""),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "scopefoil.cli", "normalize", "-"],
            input=data, capture_output=True, env=env, timeout=60,
        )
        result = proc.returncode, proc.stdout.decode(), proc.stderr.decode()
        assert result == (code, out, err)


def test_bench_rejects_an_unwritable_csv_path_before_running(tmp_path, capsys, monkeypatch):
    def run_benchmarks(config):
        raise AssertionError("the benchmark ran before the CSV path was checked")

    monkeypatch.setattr(cli, "run_benchmarks", run_benchmarks)
    missing = tmp_path / "missing" / "x.csv"
    for path, code in ((missing, errno.ENOENT), (tmp_path, errno.EISDIR)):
        assert main(["bench", "--group", "random15", "--csv", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {os.strerror(code)}\n"
    assert not missing.parent.exists()


def test_bench_subcommand_writes_csv(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main(
        [
            "bench",
            "--group", "random15",
            "--impl", "named",
            "--impl", "free_foil",
            "--seed", "5",
            "--terms", "2",
            "--csv", str(out),
            "--warmups", "1",
            "--runs", "2",
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "observed ordering" in text
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["group", "impl", "term", "median_ns", "hash"]
    assert len(rows) == 1 + 2 * 2
    # both implementations agree per term
    hashes = {}
    for group, impl, term, _, digest in rows[1:]:
        hashes.setdefault(term, set()).add(digest)
    assert all(len(v) == 1 for v in hashes.values())


def test_bench_rejects_bad_counts(tmp_path, capsys):
    out = tmp_path / "out.csv"
    argv = ["bench", "--group", "random15", "--terms", "-3", "--warmups", "-2"]
    assert main(argv + ["--csv", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_bench_rejects_unknown_group(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["bench", "--group", "weird", "--csv", "/tmp/x.csv"])
    assert exc_info.value.code == 1
    assert "invalid choice" in capsys.readouterr().err


def test_unbound_variable_on_a_later_line(tmp_path, capsys):
    src = "check U : U ; -- fine\n{- x -} compute lam x .\n  {- y\n -} x y : U ;\n"
    path = _write(tmp_path, "bad.lp", src)
    assert main(["run", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "scope-ok\n"
    assert captured.err == f"error: {path}:4:7: unbound variable 'y'\n"
    path = _write(tmp_path, "bad2.lp", "check U : U ;\ncompute zz : U ;\n")
    assert main(["run", path]) == 1
    assert capsys.readouterr().err == f"error: {path}:2:9: unbound variable 'zz'\n"

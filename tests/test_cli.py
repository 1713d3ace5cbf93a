import io
import json
import re
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhuff import cli, matrices, vectors, verify
from qhuff.eta import (MAX_DIGITS, MAX_NESTING, NonIntegerConstant,
                       QuotientSyntaxError, parse)
from qhuff.matrices import ZeroPatternViolation
from qhuff.vectors import CoeffVector
from qhuff.verify import ItemReport, SuiteReport


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_expand_text(capsys):
    rc, out, err = run(capsys, "expand", "f1", "-N", "8")
    assert rc == 0 and not err
    assert out.splitlines()[0] == "f1 expanded to order 8"
    assert "  q^1: -1" in out
    assert "  q^5: 1" in out


def test_expand_default_order(capsys):
    rc, out, _ = run(capsys, "expand", "f1")
    assert rc == 0
    assert "expanded to order 30" in out


def test_expand_json_strings(capsys):
    rc, out, _ = run(capsys, "expand", "1/f1^3", "-N", "6", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["expression"] == "1/f1^3"
    assert [2, "9"] in payload["coefficients"]


def test_expand_csv_to_file(capsys, tmp_path):
    target = tmp_path / "coeffs.csv"
    rc, out, _ = run(capsys, "expand", "f1", "-N", "6", "--format", "csv",
                     "--out", str(target))
    assert rc == 0 and out == ""
    lines = target.read_text().splitlines()
    assert lines[0] == "n,coefficient"
    assert "2,-1" in lines


def test_expand_refused_past_the_work_budget(capsys):
    # Coefficients times the passes of the plan: f1*...*f5 at order 39999 is
    # 40000 coefficients times five sparse stages, the budget.
    assert 40000 * 5 == cli.MAX_EXPAND_WORK
    rc, out, _ = run(capsys, "expand", "f1*f2*f3*f4*f5", "-N", "39999", "--format", "csv")
    assert rc == 0 and len(out.splitlines()) == 1 + 40000
    # A large exponent costs a pass per squaring, not per unit of exponent.
    rc, out, _ = run(capsys, "expand", "f1^40000", "-N", "4")
    assert rc == 0 and out.splitlines()[-1] == "  q^4: 106618670599930000"
    rc, out, _ = run(capsys, "expand", "f1^1000000", "-N", "5")
    assert rc == 0 and out.splitlines()[2] == "  q^1: -1000000"
    # Squaring a dense run takes a pass per coefficient: f1^2147483647 is
    # taken at order 5, refused at 100.
    rc, _, _ = run(capsys, "expand", "f1^2147483647", "-N", "5")
    assert rc == 0
    for argv in (["f1*f2*f3*f4*f5", "-N", "40000"], ["f1^2147483647", "-N", "100"],
                 ["1/q^99999999", "-N", "5"], ["f1", "-N", "200000"]):
        rc, out, err = run(capsys, "expand", *argv)
        assert rc == 2 and out == "" and "MAX_EXPAND_WORK" in err, argv


# Every error cli.main maps to exit 2 that parsing can raise.
PARSE_ERRORS = (QuotientSyntaxError, NonIntegerConstant, OverflowError,
                ZeroDivisionError, ValueError)
EXPRESSION_TEXT = st.one_of(
    st.text(),
    st.text(alphabet="0123456789fq^*/()- \uff11\u00b2", max_size=40),
    st.integers(0, 6 * MAX_NESTING).map(lambda n: "(" * n + "f1" + ")" * n))


@settings(max_examples=300, deadline=None)
@given(EXPRESSION_TEXT)
def test_any_text_parses_or_exits_2(text):
    try:
        parse(text)
    except PARSE_ERRORS:
        pass
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(["expand", "-N", "5", "--", text])
    assert rc in (0, 2), err.getvalue()


def test_expand_bad_expression(capsys):
    for expression in ("f1^^2", "1" + "0" * 5000):
        rc, _, err = run(capsys, "expand", expression)
        assert rc == 2
        assert err.startswith("error:")


def test_expand_long_literal_names_the_digit_bound(capsys):
    # Refused before int() sees it, so CPython's own digit-limit advice
    # never reaches the user.
    rc, out, err = run(capsys, "expand", "9" * 5000 + "*f1", "-N", "3")
    assert rc == 2 and out == ""
    assert f"MAX_DIGITS = {MAX_DIGITS}" in err and "set_int_max_str_digits" not in err
    # A constant past 4300 digits built from shorter literals still prints,
    # and still names the work budget when refused.
    big = "*".join(["9" * MAX_DIGITS] * 8)  # (10^640 - 1)^8: 5120 digits
    rc, out, _ = run(capsys, "expand", big, "-N", "1")
    head, last = out.splitlines()[-2:]
    assert rc == 0 and last == "  q^1: 0"
    assert head.startswith("  q^0: 9") and len(head) == 7 + 5120
    rc, out, err = run(capsys, "expand", big + "*f1", "-N", "200000")
    assert rc == 2 and out == "" and "MAX_EXPAND_WORK" in err


def test_usage_errors(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()
    assert cli.main(["verify", "nonsense"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit):
        cli.create_parser().parse_args(["--help"])
    capsys.readouterr()
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_verify_exit_codes(capsys, monkeypatch):
    good = SuiteReport("demo", items=[ItemReport("fine", True)])
    bad = SuiteReport("demo", items=[ItemReport("broken", False)])
    monkeypatch.setattr(cli, "run_suites", lambda names, config: [good])
    assert cli.main(["verify", "matrix"]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out
    monkeypatch.setattr(cli, "run_suites", lambda names, config: [bad])
    assert cli.main(["verify", "matrix"]) == 1
    out = capsys.readouterr().out
    assert "overall: FAIL" in out


@pytest.mark.parametrize("exc", [RuntimeError("boom"),
                                 ZeroPatternViolation("entry (8, 1)"),
                                 MemoryError()])
def test_other_errors_exit_3(capsys, monkeypatch, exc):
    def fail(spec, order):
        raise exc

    monkeypatch.setattr(cli, "expand_spec", fail)
    rc, out, err = run(capsys, "expand", "f1")
    assert rc == 3 and not out
    assert err == f"error: {exc!r}\n"


def test_verify_json_shape(capsys, monkeypatch):
    good = SuiteReport("demo", items=[ItemReport("fine", True)])
    monkeypatch.setattr(cli, "run_suites", lambda names, config: [good])
    rc, out, _ = run(capsys, "verify", "matrix", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["result"] == "pass"
    assert payload["suites"][0]["suite"] == "demo"


def test_verify_all_expands_names(monkeypatch, capsys):
    seen = []

    def fake(names, config):
        seen.extend(names)
        return [SuiteReport("demo")]

    monkeypatch.setattr(cli, "run_suites", fake)
    assert cli.main(["verify", "all"]) == 0
    capsys.readouterr()
    assert seen == ["identities", "theorems", "matrix", "vectors"]


def test_dump_matrix_csv(capsys):
    rc, out, _ = run(capsys, "dump", "matrix", "--depth", "6",
                     "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "i,entries"
    assert len(lines) == 7
    assert lines[6] == "6,0,1,126,3645,39366,177147"


def test_dump_matrix_default_depth(capsys):
    rc, out, _ = run(capsys, "dump", "matrix")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 9
    assert lines[8].startswith("row 9: ")


def test_dump_vectors_text(capsys):
    rc, out, _ = run(capsys, "dump", "vectors", "--family", "Y",
                     "--depth", "1")
    assert rc == 0
    assert "Y[1]: (54, 972, 6561)" in out
    assert "nu = (3, 5, 8); tight at [2, 3]" in out


def test_dump_vectors_json(capsys):
    rc, out, _ = run(capsys, "dump", "vectors", "--depth", "2",
                     "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    families = {v["family"] for v in payload["vectors"]}
    assert families == {"X", "Y"}
    x2 = [v for v in payload["vectors"]
          if v["family"] == "X" and v["alpha"] == 2][0]
    assert x2["entries"] == ["3", "81", "729"]


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_dump_vectors_past_str_digit_limit(capsys, monkeypatch, fmt):
    huge = 3 ** 10000  # 4772 digits, over CPython's default limit of 4300
    monkeypatch.setattr(cli, "chain",
                        lambda family, depth: [CoeffVector("Y", 0, (huge,))])
    limit = sys.get_int_max_str_digits()
    rc, out, err = run(capsys, "dump", "vectors", "--family", "Y",
                       "--format", fmt)
    assert rc == 0 and not err
    assert sys.get_int_max_str_digits() == limit
    digits = re.findall(r"\d{4000,}", out)
    assert len(digits) == 1
    sys.set_int_max_str_digits(0)
    try:
        assert int(digits[0]) == huge
    finally:
        sys.set_int_max_str_digits(limit)


def test_dump_depth_validation(capsys):
    rc, _, err = run(capsys, "dump", "matrix", "--depth", "0")
    assert rc == 2 and "depth" in err


def test_dump_vectors_past_depth_cap_exits_2(capsys, monkeypatch):
    def no_chain(family, depth):
        raise AssertionError("a chain was computed")

    monkeypatch.setattr(cli, "chain", no_chain)
    rc, out, err = run(capsys, "dump", "vectors", "--depth",
                       str(cli.MAX_VECTOR_DEPTH + 1))
    assert rc == 2 and not out
    assert f"cap {cli.MAX_VECTOR_DEPTH}" in err


@pytest.mark.parametrize("key", ["val_alpha", "recon_alpha"])
def test_config_chain_depth_past_cap_exits_2(capsys, monkeypatch, tmp_path, key):
    def no_chain(family, depth):
        raise AssertionError("a chain was computed")

    monkeypatch.setattr(vectors, "chain", no_chain)
    conf = tmp_path / "run.conf"
    conf.write_text(f"{key} = {cli.MAX_VECTOR_DEPTH + 1}\n")
    rc, out, err = run(capsys, "verify", "vectors", "--config", str(conf))
    assert rc == 2 and not out
    assert err.startswith(f"error: {key} ") and f"cap {cli.MAX_VECTOR_DEPTH}" in err


def test_config_chain_depth_at_cap_accepted(tmp_path):
    import argparse
    conf = tmp_path / "run.conf"
    conf.write_text(f"val_alpha = {cli.MAX_VECTOR_DEPTH}\n"
                    f"recon_alpha = {cli.MAX_VECTOR_DEPTH}\n")
    config = cli.make_config(argparse.Namespace(config=str(conf)))
    assert config.val_alpha == config.recon_alpha == cli.MAX_VECTOR_DEPTH


def test_config_oracle_past_cap_exits_2(capsys, monkeypatch, tmp_path):
    def no_oracle(family, n_max, cap=verify.ORACLE_CAP):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(verify, "oracle_counts", no_oracle)
    conf = tmp_path / "run.conf"
    conf.write_text(f"oracle_n_max = {verify.ORACLE_CAP + 1}\n")
    started = time.perf_counter()
    rc, out, err = run(capsys, "verify", "identities", "--config", str(conf))
    assert time.perf_counter() - started < 1
    assert rc == 2 and not out
    assert err.startswith(f"error: oracle_n_max {verify.ORACLE_CAP + 1} ")
    assert f"ORACLE_CAP = {verify.ORACLE_CAP}" in err


def test_config_oracle_at_cap_accepted(tmp_path):
    import argparse
    conf = tmp_path / "run.conf"
    conf.write_text(f"oracle_n_max = {verify.ORACLE_CAP}\n")
    config = cli.make_config(argparse.Namespace(config=str(conf)))
    assert config.oracle_n_max == verify.ORACLE_CAP
    assert verify.oracle_suite(config.oracle_n_max).passed


def _no_table(rows):
    raise AssertionError("a table was built")


@pytest.mark.parametrize("argv", [["verify", "matrix", "--rows"], ["dump", "matrix", "--depth"]])
def test_matrix_rows_past_cap_exit_2(capsys, monkeypatch, argv):
    monkeypatch.setattr(matrices, "MatrixTable", _no_table)
    started = time.perf_counter()
    rc, out, err = run(capsys, *argv, str(cli.MAX_MATRIX_ROWS + 1))
    assert time.perf_counter() - started < 1
    assert rc == 2 and not out
    assert f"{cli.MAX_MATRIX_ROWS + 1} is past the matrix row cap " \
           f"MAX_MATRIX_ROWS = {cli.MAX_MATRIX_ROWS}" in err


def test_matrix_rows_at_cap_accepted(capsys, monkeypatch):
    built = []

    class CountingTable:
        def __init__(self, rows):
            built.append(rows)

        def row(self, i):
            return [i]

    def fake_suite(rows):
        built.append(rows)
        return SuiteReport("matrix")

    monkeypatch.setattr(matrices, "MatrixTable", CountingTable)
    monkeypatch.setattr(cli, "matrix_suite", fake_suite)
    top = str(cli.MAX_MATRIX_ROWS)
    rc, out, _ = run(capsys, "dump", "matrix", "--depth", top, "--format", "csv")
    assert rc == 0 and out.splitlines()[-1] == f"{top},{top}"
    rc, _, _ = run(capsys, "verify", "matrix", "--rows", top)
    assert rc == 0
    assert built == [cli.MAX_MATRIX_ROWS] * 2


def test_config_file_precedence(capsys, tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("# sizes\norder = 20\nformat = csv\n")
    rc, out, _ = run(capsys, "expand", "f1", "--config", str(conf))
    assert rc == 0
    assert out.splitlines()[0] == "n,coefficient"
    assert len(out.splitlines()) == 22

    rc, out, _ = run(capsys, "expand", "f1", "--config", str(conf),
                     "-N", "10", "--format", "text")
    assert rc == 0
    assert out.splitlines()[0] == "f1 expanded to order 10"

    # an order from the file is not capped at expand's default of 30
    conf.write_text("order = 40\n")
    rc, out, _ = run(capsys, "expand", "f1", "--config", str(conf))
    assert rc == 0
    assert out.splitlines()[0] == "f1 expanded to order 40"
    assert out.splitlines()[-1] == "  q^40: -1"


def test_config_file_errors(capsys, tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("orderr = 20\n")
    rc, _, err = run(capsys, "expand", "f1", "--config", str(conf))
    assert rc == 2 and "unknown key" in err and ":1:" in err

    conf.write_text("order = soon\n")
    rc, _, err = run(capsys, "expand", "f1", "--config", str(conf))
    assert rc == 2 and "needs an integer" in err

    conf.write_text("just words\n")
    rc, _, err = run(capsys, "expand", "f1", "--config", str(conf))
    assert rc == 2 and "key=value" in err

    conf.write_text("format = xml\n")
    rc, _, err = run(capsys, "expand", "f1", "--config", str(conf))
    assert rc == 2 and "format" in err

    rc, _, err = run(capsys, "expand", "f1", "--config",
                     str(tmp_path / "missing.conf"))
    assert rc == 2


@pytest.mark.parametrize("argv, key", [
    (["verify", "matrix", "--rows", "-5"], "rows"),
    (["verify", "matrix", "--rows", "0"], "rows"),
    (["verify", "theorems", "--n-max", "-1"], "n_max"),
    (["verify", "theorems", "--alpha-t1", "-1"], "alpha_t1"),
    (["expand", "f1", "--config", "deep_order = -1"], "deep_order"),
    (["expand", "f1", "--config", "oracle_n_max = -3"], "oracle_n_max"),
])
def test_negative_sizes_exit_2(capsys, tmp_path, argv, key):
    if "--config" in argv:
        conf = tmp_path / "run.conf"
        conf.write_text(argv[-1] + "\n")
        argv = argv[:-1] + [str(conf)]
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and not out
    assert err.startswith(f"error: {key} ")


def test_make_config_flag_beats_file(tmp_path):
    import argparse
    conf = tmp_path / "run.conf"
    conf.write_text("order = 20\nseed = 5\n")
    args = argparse.Namespace(config=str(conf), order=10)
    config = cli.make_config(args)
    assert config.order == 10
    assert config.seed == 5


def test_verify_json_deterministic(capsys, tmp_path):
    conf = tmp_path / "small.conf"
    conf.write_text("order = 60\ndeep_order = 40\nrama_order = 60\n"
                    "cubic_n_max = 100\npair_n_max = 50\noracle_n_max = 20\n")
    outputs = []
    for _ in range(2):
        rc, out, _ = run(capsys, "verify", "identities", "--config",
                         str(conf), "--format", "json")
        assert rc == 0
        outputs.append(re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out))
    assert outputs[0] == outputs[1]

"""CLI subcommands: exit codes, document structure, determinism."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclichd import DegreeSequence, Witness, verify_witness
from cyclichd.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_recognize_yes(capsys):
    code, out, _ = run(["recognize", "--degrees", "1,1,1"], capsys)
    assert code == 0
    assert "cyclic hyper degree: yes" in out


def test_recognize_no(capsys):
    code, out, _ = run(["recognize", "--degrees", "4,1,1,1"], capsys)
    assert code == 1
    assert "cyclic hyper degree: no" in out


def test_recognize_rejects_bad_token(capsys):
    for token in ["x", "1_0", "+1", "\u0661", "-1"]:
        code, _, err = run(["recognize", "--degrees", f"1,{token},3"], capsys)
        assert code == 2
        assert "invalid degree token" in err


def test_degree_tokens_may_carry_surrounding_whitespace(capsys):
    code, out, _ = run(["recognize", "--degrees", " 2 ,2,\t1 "], capsys)
    assert code == 0
    assert "degrees: 2,2,1" in out


def test_recognize_rejects_empty(capsys):
    code, _, err = run(["recognize", "--degrees", ""], capsys)
    assert code == 2


def test_oversized_entry_is_a_negative_decision_not_an_error(capsys):
    code, out, _ = run(["recognize", "--degrees", "5,0,0"], capsys)
    assert code == 1
    assert "cyclic hyper degree: no" in out


def test_recognize_json_document_round_trips(capsys):
    code, out, _ = run(["recognize", "--degrees", "2,2,1", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3
    assert doc["degrees"] == ["2", "2", "1"]
    assert doc["is_cyclic_hyper_degree"] is True
    w = DegreeSequence(tuple(int(v) for v in doc["degrees"]))
    wit = Witness(
        n=doc["n"],
        N=doc["N"],
        perm=tuple(p - 1 for p in doc["permutation"]),
        starts=tuple(int(s) for s in doc["starts"]),
    )
    assert verify_witness(w, wit)


def test_recognize_json_negative_document(capsys):
    code, out, _ = run(["recognize", "--degrees", "4,1,1,1", "--json"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["is_cyclic_hyper_degree"] is False
    assert "N" not in doc
    assert "permutation" not in doc


def test_exit_code_does_not_depend_on_output_format(capsys):
    plain = run(["recognize", "--degrees", "2,2,1"], capsys)[0]
    as_json = run(["recognize", "--degrees", "2,2,1", "--json"], capsys)[0]
    assert plain == as_json == 0


def test_witness_json_with_edges(capsys):
    code, out, _ = run(
        ["witness", "--degrees", "1,1,1", "--json", "--edges"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["edges"] == [[1, 2, 3]]
    assert doc["includes_empty_edge"] is False


def test_witness_flags_empty_edge(capsys):
    code, out, _ = run(
        ["witness", "--degrees", "0,0", "--json", "--edges"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["edges"] == [[]]
    assert doc["includes_empty_edge"] is True


def test_witness_human_output(capsys):
    code, out, _ = run(["witness", "--degrees", "1,1,1", "--edges"], capsys)
    assert code == 0
    assert "edge 0: {1,2,3}" in out


def test_witness_negative(capsys):
    code, out, _ = run(["witness", "--degrees", "4,1,1,1", "--json"], capsys)
    assert code == 1
    assert json.loads(out)["is_cyclic_hyper_degree"] is False


def test_witness_edge_cap_exits_with_capacity_code(capsys):
    code, _, err = run(
        ["witness", "--degrees", "8,8,8,8", "--edges", "--max-edges", "4"],
        capsys,
    )
    assert code == 3
    assert "capacity" in err


def test_ranges_command_json(capsys):
    code, out, _ = run(
        ["ranges", "--i", "2", "--N", "3", "--n", "3", "--json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc == {"n": 3, "i": 2, "N": "3", "lo": "1", "hi": "2", "size": "2"}


def test_ranges_command_human(capsys):
    code, out, _ = run(["ranges", "--i", "2", "--N", "3", "--n", "3"], capsys)
    assert code == 0
    assert "[1, 2]" in out


def test_ranges_rejects_bad_column(capsys):
    code, _, err = run(["ranges", "--i", "9", "--N", "3", "--n", "3"], capsys)
    assert code == 2
    assert "error" in err


def test_enumerate_command(capsys):
    code, out, _ = run(["enumerate", "--n", "2"], capsys)
    assert code == 0
    assert out.strip().splitlines() == [
        "0,0", "0,1", "1,0", "1,1", "1,2", "2,1", "2,2"
    ]


def test_order_must_be_positive(capsys):
    # verify --n 0 used to die on a negative shift, enumerate --n 0 to exit 3
    for command in ["enumerate", "count", "verify"]:
        for order in ["0", "-1"]:
            code, _, err = run([command, "--n", order], capsys)
            assert code == 2
            assert "order must be a positive integer" in err


def test_enumerate_capacity(capsys):
    code, _, err = run(["enumerate", "--n", "5"], capsys)
    assert code == 3
    assert "capacity" in err


def test_count_command_with_exact(capsys):
    code, out, _ = run(["count", "--n", "4", "--exact"], capsys)
    assert code == 0
    assert "M: 5" in out
    assert "product: 96" in out
    assert "bound: 8" in out
    assert "exact: 1297" in out


def test_count_exact_capacity(capsys):
    code, _, err = run(["count", "--n", "5", "--exact"], capsys)
    assert code == 3


@pytest.fixture
def default_digit_limit():
    # CPython's default int<->str limit, whatever the environment sets
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(previous)


def test_count_refuses_products_past_the_digit_limit(capsys, default_digit_limit):
    # order 170 prints a 4296-digit product, 171 would print 4347 digits
    code, out, _ = run(["count", "--n", "170"], capsys)
    assert code == 0
    for order in ["171", "200", "1000000"]:
        code, out, err = run(["count", "--n", order], capsys)
        assert code == 3
        assert out == ""
        assert "4300-digit limit" in err
        assert "Traceback" not in err


def test_degree_token_past_the_digit_limit_is_a_capacity_error(
        capsys, default_digit_limit):
    code, _, err = run(["recognize", "--degrees", "1," + "1" * 4301], capsys)
    assert code == 3
    assert "4301 digits" in err
    assert "4300-digit limit" in err


def test_verify_command_exhaustive_order(capsys):
    code, out, _ = run(["verify", "--n", "2", "--samples", "10"], capsys)
    assert code == 0
    assert "equivalence: PASS" in out
    assert "sufficiency: PASS" in out
    assert "distinctness: PASS" in out


def test_verify_command_sampled_order(capsys):
    code, out, _ = run(
        ["verify", "--n", "6", "--samples", "40", "--seed", "3"], capsys
    )
    assert code == 0
    assert "equivalence: PASS" in out


def test_verify_compares_yes_answers(capsys):
    code, out, _ = run(["verify", "--n", "9", "--samples", "30"], capsys)
    assert code == 0
    m = re.search(r"equivalence: PASS \(30 checked, 0 failures, (\d+) yes\)", out)
    assert m and int(m.group(1)) > 0, out


def test_verify_is_deterministic_given_seed(capsys):
    first = run(["verify", "--n", "5", "--samples", "25", "--seed", "7"], capsys)
    second = run(["verify", "--n", "5", "--samples", "25", "--seed", "7"], capsys)
    assert first == second


def test_verify_capacity(capsys):
    code, _, err = run(["verify", "--n", "13"], capsys)
    assert code == 3


def test_unknown_command_is_usage_error(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2


def test_missing_required_flag_is_usage_error(capsys):
    code = main(["recognize"])
    capsys.readouterr()
    assert code == 2


def imported_packages(*args):
    """Top-level packages among the modules a fresh interpreter imports
    while running `python *args` with PYTHONPATH=src."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    r = subprocess.run([sys.executable, "-X", "importtime", *args],
                       capture_output=True, text=True, env=env, timeout=120)
    assert r.returncode in (0, 1), r.stderr
    return {
        line.split("|")[-1].strip().split(".")[0]
        for line in r.stderr.splitlines()
        if line.startswith("import time:")
    }


@pytest.mark.parametrize("args, numpy_loaded", [
    (["-c", "import cyclichd, cyclichd.cli"], False),
    (["-m", "cyclichd.cli", "recognize", "--degrees", "4,1,1,1"], False),
    (["-m", "cyclichd.cli", "witness", "--edges", "--degrees", "2,2,1"], False),
    (["-m", "cyclichd.cli", "verify", "--n", "2", "--samples", "1"], True),
], ids=["import", "recognize-no", "witness-edges", "verify"])
def test_import_chain_loads_numpy_only_for_arrays(args, numpy_loaded):
    # the decision and certificate paths are standard library only, the
    # oracle's scans load numpy, and no path loads scipy
    loaded = imported_packages(*args)
    assert "cyclichd" in loaded
    assert ("numpy" in loaded) == numpy_loaded
    assert "scipy" not in loaded


@pytest.mark.parametrize("args", [
    ["count", "--n", "170"],
    ["recognize", "--degrees", "1,1,1"],
], ids=["count", "recognize"])
def test_closed_stdout_exits_quietly(args):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = subprocess.run([sys.executable, "-m", "cyclichd.cli", *args],
                           stdout=write_end, stderr=subprocess.PIPE, text=True,
                           env=dict(os.environ, PYTHONPATH=str(SRC)),
                           timeout=120)
    finally:
        os.close(write_end)
    assert "Traceback" not in r.stderr
    assert "BrokenPipeError" not in r.stderr
    assert r.returncode == 141


# Malformed tokens: signs, separators, letters and a non-ASCII digit, short
# enough that none parses to a large number.
JUNK = st.text(alphabet="-+_ .xe\u0661", max_size=3)


def ints(lo, hi):
    # mostly well formed, so that most commands get past argument parsing
    return st.integers(0, 4).flatmap(
        lambda k: st.integers(lo, hi).map(str) if k else JUNK)


DEGREES = st.one_of(
    st.lists(st.integers(0, 3) | st.integers(0, 1 << 16), max_size=16).map(
        lambda xs: ",".join(map(str, xs))),
    st.lists(ints(0, 3), max_size=16).map(",".join),
)
# per subcommand: flag -> strategy for its value, None for a switch;
# enumerate and count --exact stop at order 4 and verify at order 4
SUBCOMMANDS = {
    "recognize": {"--degrees": DEGREES, "--json": None},
    "witness": {"--degrees": DEGREES, "--json": None, "--edges": None,
                "--max-edges": ints(-2, 1 << 16)},
    "ranges": {"--i": ints(-2, 18), "--N": ints(-2, 1 << 17),
               "--n": ints(-2, 16), "--json": None},
    "enumerate": {"--n": ints(-2, 4)},
    "count": {"--n": ints(-2, 16)},
    "count --exact": {"--n": ints(-2, 4)},
    "verify": {"--n": ints(-2, 4), "--samples": ints(-2, 5),
               "--seed": ints(-5, 1 << 40)},
}


@st.composite
def cli_argv(draw):
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    flags = SUBCOMMANDS[name]
    argv = name.split()
    # each flag mostly once, sometimes left out, repeated or without a value
    for flag in draw(st.permutations(sorted(flags))):
        for _ in range(draw(st.sampled_from([1, 1, 1, 0, 2]))):
            argv.append(flag)
            if flags[flag] is not None and draw(st.integers(0, 9)):
                argv.append(draw(flags[flag]))
    if not draw(st.integers(0, 4)):
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(["--bogus", "-x", "--", "--json=1",
                                          "--degrees", "bogus", ""])))
    return argv


@settings(max_examples=300, deadline=None)
@given(cli_argv())
def test_fuzzed_argv_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()

"""End-to-end command line behavior: exit codes, reports, golden files.

Set RELFIX_REGEN_GOLDEN=1 to rewrite the golden reports from current
output (after an intentional format change), then inspect the diff.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).parent
SPECS = HERE / "specs"
GOLDEN = HERE / "golden"


def run_cli(*args, cwd=None, timeout=None, python=()):
    """Run the CLI, with the interpreter options `python`; past `timeout`
    seconds subprocess.TimeoutExpired fails the test instead of letting it
    hang."""
    return subprocess.run(
        [sys.executable, *python, "-m", "relfix.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=timeout,
    )


def test_solve_reports_sizes_and_checks():
    proc = run_cli("solve", "--spec", str(SPECS / "lazy_nat.spec"))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["command"] == "solve"
    assert report["result"]["sizes"] == [1, 3, 5, 7, 9, 11, 13]
    assert all(report["result"]["verification"].values())


@pytest.mark.parametrize("name", ["lazy_nat", "streams", "reflexive"])
def test_solve_verifies_the_chain_once(name, monkeypatch, capsys):
    from relfix import chain, cli

    runs = []
    verify = chain._verify_chain
    monkeypatch.setattr(chain, "_verify_chain", lambda ch: runs.append(ch) or verify(ch))
    assert cli.main(["solve", "--spec", str(SPECS / f"{name}.spec")]) == 0
    assert len(runs) == 1
    assert all(json.loads(capsys.readouterr().out)["result"]["verification"].values())


def test_solve_emits_hasse_dot_files(tmp_path):
    proc = run_cli(
        "solve",
        "--spec",
        str(SPECS / "lazy_nat.spec"),
        "--emit-dot",
        str(tmp_path),
        "--report",
        str(tmp_path / "r.json"),
    )
    assert proc.returncode == 0, proc.stderr
    dot = (tmp_path / "X_2.dot").read_text()
    assert dot.startswith("digraph")
    assert dot.count("label") == 5
    assert dot.count("->") == 4
    assert sorted(p.name for p in tmp_path.glob("X_*.dot")) == [
        f"X_{i}.dot" for i in range(7)
    ]


def test_relate_is_byte_deterministic(tmp_path):
    out = []
    for k in range(2):
        path = tmp_path / f"run{k}.json"
        proc = run_cli(
            "relate",
            "--spec",
            str(SPECS / "streams.spec"),
            "--method",
            "all",
            "--seed",
            "11",
            "--report",
            str(path),
        )
        assert proc.returncode == 0, proc.stderr
        out.append(path.read_bytes())
    assert out[0] == out[1]


# fun_nondiag, lift(fun(const(chain(2), pairs [(0,0),(0,1)]), D)) at depth
# 3, is the one bundled spec whose answer is not the diagonal
@pytest.mark.parametrize("name", ["lazy_nat", "streams", "reflexive", "fun_nondiag"])
def test_golden_relate_reports_are_stable(name, tmp_path):
    path = tmp_path / "report.json"
    proc = run_cli(
        "relate",
        "--spec",
        str(SPECS / f"{name}.spec"),
        "--method",
        "all",
        "--report",
        str(path),
    )
    assert proc.returncode == 0, proc.stderr
    golden = GOLDEN / f"{name}_relate.json"
    if os.environ.get("RELFIX_REGEN_GOLDEN") == "1":
        golden.write_bytes(path.read_bytes())
    assert path.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("suite,code", [("all", 0), ("corrupted", 1)])
def test_golden_check_reports_are_stable(suite, code, tmp_path):
    path = tmp_path / "report.json"
    proc = run_cli("check", "--suite", suite, "--report", str(path))
    assert proc.returncode == code, proc.stderr
    golden = GOLDEN / f"check_{suite}.json"
    if os.environ.get("RELFIX_REGEN_GOLDEN") == "1":
        golden.write_bytes(path.read_bytes())
    assert path.read_bytes() == golden.read_bytes()


def test_report_hash_is_the_sha256_of_the_spec_source():
    source = (SPECS / "reflexive.spec").read_bytes()
    proc = run_cli("relate", "--spec", str(SPECS / "reflexive.spec"), "--method", "kt")
    report = json.loads(proc.stdout)
    assert report["spec_sha256"] == hashlib.sha256(source).hexdigest()
    assert report["seed"] == 0
    assert report["tool_version"]


def test_method_specific_reports():
    kt = json.loads(
        run_cli("relate", "--spec", str(SPECS / "lazy_nat.spec"), "--method", "kt").stdout
    )
    assert kt["result"]["iterations"] == 7
    assert kt["result"]["neg_equals_pos"] is True
    banach = json.loads(
        run_cli(
            "relate", "--spec", str(SPECS / "lazy_nat.spec"), "--method", "banach"
        ).stdout
    )
    assert banach["result"]["stabilization_profile"] == [0, 1, 2, 3, 4, 5, 6]


def test_cli_depth_flag_overrides_the_spec():
    proc = run_cli(
        "solve", "--spec", str(SPECS / "lazy_nat.spec"), "--depth", "2"
    )
    assert json.loads(proc.stdout)["result"]["sizes"] == [1, 3, 5]


def test_karoubi_subcommand():
    proc = run_cli("karoubi", "--poset", "chain(3)")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert result["ed_size"] == 4
    assert result["cpo"]["ok"] and result["slice_equivalence"]["ok"]
    assert len(result["claim_audit"]) == 4
    assert json.loads(run_cli("karoubi", "--poset", "one").stdout)["result"]["ed_size"] == 1


def test_karoubi_chain5_completes_with_oversized_audits_skipped():
    proc = run_cli("karoubi", "--poset", "chain(5)")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert result["ed_size"] == 16
    assert all("skipped" in audit for audit in result["claim_audit"])


def test_karoubi_over_the_order_matrix_cap_exits_3_with_the_candidate_count():
    # 2^12 candidate images; an E_D that large would need a 4096^2 order
    # matrix, over the default 10^7 pair cap
    proc = run_cli("karoubi", "--poset", "chain(13)", timeout=5)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "candidates=4096" in proc.stderr


@pytest.mark.parametrize(
    "kind, text",
    [
        ("karoubi", "chain(99999999999)"),
        ("karoubi", "poset { elems 99999999999; le; bot 0 }"),
        ("spec", "domain D = lift(prod(const(chain(99999999999), diag), D))\ndepth 2\n"),
    ],
    ids=["chain", "poset", "spec_const"],
)
def test_an_oversized_poset_literal_exits_3_before_allocating(kind, text, tmp_path):
    if kind == "spec":
        spec = tmp_path / "big.spec"
        spec.write_text(text)
        args = ("relate", "--spec", str(spec))
    else:
        args = ("karoubi", "--poset", text)
    t0 = time.monotonic()
    proc = run_cli(*args, timeout=5)
    assert time.monotonic() - t0 < 1.0
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("relfix: ") and len(proc.stderr.splitlines()) == 1
    assert "size=99999999999" in proc.stderr and "cap=200000" in proc.stderr


def test_karoubi_chain10_completes_within_its_budget():
    proc = run_cli("karoubi", "--poset", "chain(10)", timeout=15)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert result["ed_size"] == 512
    assert result["cpo"]["ok"] and result["slice_equivalence"]["ok"]


def test_check_suite_passes_and_fails_by_exit_code():
    ok = run_cli("check", "--suite", "lemma2")
    assert ok.returncode == 0, ok.stderr
    bad = run_cli("check", "--suite", "corrupted")
    assert bad.returncode == 1
    report = json.loads(bad.stdout)
    assert report["result"]["caught"] is True
    assert report["result"]["witness"]


def test_parse_failure_is_a_usage_error(tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text("domain D = fun(D)\ndepth 1\n")
    proc = run_cli("relate", "--spec", str(bad), "--method", "all")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "expected" in proc.stderr


def test_missing_spec_file_is_a_usage_error(tmp_path):
    proc = run_cli("solve", "--spec", str(tmp_path / "nope.spec"))
    assert proc.returncode == 2


def test_cap_excess_is_a_resource_error():
    proc = run_cli("solve", "--spec", str(SPECS / "reflexive.spec"), "--depth", "4")
    assert proc.returncode == 3
    assert "level" in proc.stderr
    # the chain-level error carries the cap details of its cause once
    for key in ("cap", "cod", "dom", "functor", "level"):
        assert proc.stderr.count(f"{key}=") == 1, proc.stderr


CYCLIC = "poset { elems 2; le (0,1), (1,0); bot 0 }"


@pytest.mark.parametrize(
    "args",
    [
        ("spec", "domain D = prod(const(chain(0), diag), D)\ndepth 1\n"),
        ("spec", f"domain D = prod(const({CYCLIC}, diag), D)\ndepth 1\n"),
        ("spec", "domain D = sum(one, D)\ndepth -1\n"),
        ("spec", "domain D = prod(const(chain(2), pairs [(0,0), (0,5)]), D)\ndepth 1\n"),
        ("karoubi", "chain(0)"),
        ("karoubi", CYCLIC),
    ],
    ids=["empty_chain", "cyclic_poset", "negative_depth", "pair_out_of_range",
         "karoubi_empty_chain", "karoubi_cyclic_poset"],
)
def test_bad_input_is_a_usage_error(args, tmp_path):
    kind, text = args
    if kind == "spec":
        spec = tmp_path / "bad.spec"
        spec.write_text(text)
        proc = run_cli("relate", "--spec", str(spec))
    else:
        proc = run_cli("karoubi", "--poset", text)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("relfix: "), proc.stderr


def _assert_report_line(proc):
    # every --timings run ends with the report's size and write time
    last = proc.stderr.splitlines()[-1]
    m = re.fullmatch(r"report: (\d+) bytes, \d+\.\d{3}s", last)
    assert m is not None, last
    assert int(m.group(1)) == len(proc.stdout.encode()) > 0


def test_timings_go_to_stderr_only():
    proc = run_cli(
        "solve", "--spec", str(SPECS / "lazy_nat.spec"), "--depth", "1", "--timings"
    )
    assert proc.returncode == 0
    json.loads(proc.stdout)  # stdout stays pure JSON
    assert [line.split(":")[0] for line in proc.stderr.splitlines()] == ["solve", "report"]
    _assert_report_line(proc)
    proc = run_cli("karoubi", "--poset", "chain(3)", "--timings")
    assert proc.returncode == 0
    assert [line.split(":")[0] for line in proc.stderr.splitlines()] == ["karoubi", "report"]
    _assert_report_line(proc)
    # relate adds the eval_rel counts, and its report is the untimed one
    spec = str(SPECS / "lazy_nat.spec")
    plain = run_cli("relate", "--spec", spec)
    timed = run_cli("relate", "--spec", spec, "--timings")
    assert plain.returncode == timed.returncode == 0, timed.stderr
    assert timed.stdout == plain.stdout
    assert plain.stderr == ""
    lines = timed.stderr.splitlines()
    phases = ["build", "kt", "kleene", "banach", "banach_from_bottom", "gluing", "unfolding",
              "uniform", "all"]
    assert [line.split(":")[0] for line in lines] == [
        *(f"relate[{p}]" for p in phases), "eval_rel", "pair_tables", "report"
    ]
    _assert_report_line(timed)
    m = re.fullmatch(
        r"eval_rel: (\d+) calls, (\d+) answered by the chain's table, (\d+) entries", lines[-3]
    )
    assert m is not None, lines[1]
    calls, hits, entries = map(int, m.groups())
    assert 0 < hits < calls
    assert entries == calls - hits  # every other call stored its answer


@pytest.mark.parametrize("method", ["all", "kt", "kleene", "banach"])
def test_relate_timings_leave_the_report_bytes_alone(tmp_path, method):
    # the phases are timed on every method; the report file is the same
    spec = str(SPECS / "streams.spec")
    plain, timed = tmp_path / "plain.json", tmp_path / "timed.json"
    assert run_cli("relate", "--spec", spec, "--method", method, "--report", str(plain)).returncode == 0
    proc = run_cli("relate", "--spec", spec, "--method", method, "--report", str(timed), "--timings")
    assert proc.returncode == 0 and proc.stdout == ""
    assert timed.read_bytes() == plain.read_bytes()
    names = [line.split(":")[0] for line in proc.stderr.splitlines()]
    assert names[0] == "relate[build]" and f"relate[{method}]" in names
    for line in proc.stderr.splitlines():
        if line.startswith("relate["):
            assert re.fullmatch(r"relate\[\w+\]: \d+\.\d{3}s", line), line


def test_relate_timings_count_the_wide_pair_tables():
    # streams at depth 4 has 31 elements: the upper levels' tables are wide,
    # and the lift and sum injections among them are runs
    spec = str(SPECS / "streams.spec")
    plain = run_cli("relate", "--spec", spec)
    timed = run_cli("relate", "--spec", spec, "--timings")
    assert plain.returncode == timed.returncode == 0, timed.stderr
    assert timed.stdout == plain.stdout
    assert plain.stderr == ""
    (line,) = [line for line in timed.stderr.splitlines() if line.startswith("pair_tables:")]
    m = re.fullmatch(r"pair_tables: (\d+) wide built, (\d+) of them runs, largest (\d+) -> (\d+)", line)
    assert m is not None, line
    tables, runs, kx, ky = map(int, m.groups())
    assert 0 < runs < tables
    assert max(kx, ky) == 31


def test_check_timings_name_each_suite_and_leave_the_report_alone():
    plain = run_cli("check", "--suite", "all")
    timed = run_cli("check", "--suite", "all", "--timings")
    assert plain.returncode == timed.returncode == 0, timed.stderr
    assert timed.stdout == plain.stdout
    assert plain.stderr == ""
    names = [line.split(":")[0] for line in timed.stderr.splitlines()]
    suites = ["lemma2", "functor_laws", "adjunction", "contractive", "karoubi", "duality"]
    assert names == [f"check[{s}]" for s in suites + ["all"]] + ["monotone_tables", "report"]
    _assert_report_line(timed)


def test_check_timings_count_the_hom_table_cache():
    plain = run_cli("check", "--suite", "karoubi")
    timed = run_cli("check", "--suite", "karoubi", "--timings")
    assert plain.returncode == timed.returncode == 0, timed.stderr
    assert timed.stdout == plain.stdout
    assert plain.stderr == ""
    lines = timed.stderr.splitlines()
    assert [line.split(":")[0] for line in lines] == ["check[karoubi]", "monotone_tables", "report"]
    _assert_report_line(timed)
    m = re.fullmatch(r"monotone_tables: (\d+) poset pairs enumerated, (\d+) cache hits", lines[1])
    assert m is not None, lines[1]
    # each hom-set is enumerated once and then served from the cache
    assert 0 < int(m.group(1)) < int(m.group(2))


LAZY = str(SPECS / "lazy_nat.spec")


@functools.lru_cache(maxsize=None)
def _usage():
    proc = run_cli("--help")
    assert proc.returncode == 0 and proc.stderr == ""
    return proc.stdout


@pytest.mark.parametrize(
    "args",
    [
        (),
        ("frobnicate",),
        ("--seed", "1", "relate"),
        ("relate", "--spec", LAZY, "--bogus"),
        ("relate", "--spec", LAZY, "extra"),
        ("relate", "--spec"),
        ("relate", "--depth", "2"),
        ("relate", "--spec", LAZY, "--depth", "two"),
        ("relate", "--spec", LAZY, "--method", "fastest"),
        ("check", "--suite", "nope"),
        ("solve", "--spec", LAZY, "--method", "kt"),
        ("relate", "--spec", LAZY, "--timings=yes"),
        ("relate", "--spec", LAZY, "--m", "kt"),
        ("relate", "--spec", LAZY, "--s", LAZY),
    ],
    ids=["no_command", "unknown_command", "flag_before_command", "unknown_flag",
         "stray_word", "missing_value", "missing_required", "bad_int", "bad_choice",
         "bad_suite", "flag_of_another_command", "switch_with_value",
         "ambiguous_prefix", "ambiguous_prefix_spec_seed"],
)
def test_every_misuse_prints_the_usage_and_one_error_and_exits_2(args):
    proc = run_cli(*args)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    usage = _usage()
    assert proc.stderr.startswith(usage)
    error = proc.stderr[len(usage):].splitlines()
    assert len(error) == 1 and error[0].startswith("relfix: error: "), proc.stderr
    if "ambiguous" in error[0]:
        assert args[-2] in error[0]


@pytest.mark.parametrize("args", [("--help",), ("-h",), ("--he",), ("relate", "--help"),
                                  ("check", "-h"), ("karoubi", "--poset", "chain(2)", "--h")])
def test_help_prints_the_usage_and_exits_0(args):
    proc = run_cli(*args)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == _usage()
    assert [line.split()[1] for line in proc.stdout.splitlines()] == [
        "solve", "relate", "karoubi", "check"
    ]


def test_the_usage_survives_python_minus_OO():
    # -OO strips docstrings, so the usage must not be read from one
    usage = _usage()
    proc = run_cli("--help", python=("-OO",))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, usage, "")
    proc = run_cli("relate", "--spec", LAZY, "--x", python=("-OO",))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == usage + "relfix: error: unrecognized argument: --x\n"


def test_flag_spellings_give_the_same_report_bytes():
    # `--flag value`, `--flag=value`, a unique prefix, and the last repeat wins
    want = run_cli("relate", "--spec", LAZY, "--method", "kt", "--depth", "3", "--seed", "5")
    assert want.returncode == 0, want.stderr
    for args in [
        (f"--spec={LAZY}", "--method=kt", "--depth=3", "--seed=5"),
        ("--spec", LAZY, "--me", "kt", "--dep", "3", "--se", "5"),
        ("--depth", "9", "--method", "all", "--seed=1", "--spec", LAZY,
         "--method=kt", "--dep=3", "--seed", "5"),
    ]:
        proc = run_cli("relate", *args)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == want.stdout


def test_the_method_defaults_to_all():
    assert run_cli("relate", "--spec", LAZY).stdout == run_cli(
        "relate", "--spec", LAZY, "--method", "all").stdout


@pytest.mark.parametrize("depth", [("--depth", "-1"), ("--depth=-1",), ("--dep", "-1")])
def test_a_value_may_start_with_a_dash(depth):
    proc = run_cli("relate", "--spec", LAZY, *depth)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "relfix: depth must be nonnegative, got -1\n"


def test_a_run_of_each_command_never_imports_argparse():
    # a fresh interpreter: the test runner itself has argparse loaded
    code = (
        "import contextlib, io, sys\n"
        "from relfix import cli\n"
        f"runs = [['relate', '--spec', {LAZY!r}], ['check', '--suite', 'lemma2'],\n"
        "        ['karoubi', '--poset', 'chain(3)']]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv) for argv in runs]\n"
        "print(codes, sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0] []\n"


def test_the_readme_synopsis_is_the_usage():
    from relfix import cli

    readme = (HERE.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command-line tool", 1)[1].split("```")[1]
    synopsis = [line for line in block.splitlines() if line.startswith("relfix ")]
    assert len(synopsis) == 4
    assert synopsis == _usage().splitlines()
    # the usage names every choice the flag table accepts
    for flag, line in [("--method", synopsis[1]), ("--suite", synopsis[3])]:
        words = line.replace("[", " ").replace("]", " ").split()
        assert words[words.index(flag) + 1] == "|".join(cli._FLAGS[flag][2])

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachecomp import cli
from cachecomp.strategies import run
from cachecomp.trace import parse_trace
from test_exports import run_fresh


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("a\nb\nc\na\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def weighted_file(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("a 5\nb\nc\nb\na 5\n", encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_prints_cost(self, capsys, trace_file):
        code, out, _ = run_cli(
            capsys, "simulate", "--strategy", "lru", "--k", "2", "--trace", trace_file
        )
        assert code == 0
        assert "cost 2" in out

    def test_event_csv(self, capsys, trace_file, tmp_path):
        out_file = tmp_path / "events.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--strategy", "lru", "--k", "2",
            "--trace", trace_file, "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "index,node,kind,evicted,cost"
        assert lines[3] == "2,c,move,a,1"

    def test_matches_library(self, capsys, trace_file):
        code, out, _ = run_cli(
            capsys, "simulate", "--strategy", "fwf", "--k", "2", "--trace", trace_file
        )
        expected = run("fwf", 2, parse_trace("a\nb\nc\na\n")).total_cost
        assert f"cost {expected}" in out

    def test_unknown_strategy_is_domain_error(self, capsys, trace_file):
        code, _, err = run_cli(
            capsys, "simulate", "--strategy", "lfu", "--k", "2", "--trace", trace_file
        )
        assert code == 1 and "error" in err


class TestOptimal:
    def test_paging_uses_belady(self, capsys, trace_file):
        code, out, _ = run_cli(capsys, "optimal", "--k", "2", "--trace", trace_file)
        assert code == 0
        assert "method belady" in out and "cost 1" in out

    def test_weighted_uses_flow_with_schedule(self, capsys, weighted_file):
        code, out, _ = run_cli(
            capsys, "optimal", "--k", "2", "--trace", weighted_file, "-v"
        )
        assert code == 0
        assert "method flow" in out
        assert "request,predecessor" in out

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "optimal", "--k", "2", "--trace", "/no/such")
        assert code == 1 and err

    @pytest.mark.parametrize(
        "argv", [["optimal", "--k", "2"], ["sweep", "--n", "2", "--strategies", "lru"]],
        ids=["optimal", "sweep"],
    )
    def test_belady_on_weighted_trace_is_domain_error(
        self, capsys, weighted_file, tmp_path, argv
    ):
        # a single weighted node leaves a sweep no row to solve
        one_node = tmp_path / "one.txt"
        one_node.write_text("a 3\na 3\n", encoding="utf-8")
        for path in (weighted_file, str(one_node)):
            code, out, err = run_cli(capsys, *argv, "--opt", "belady", "--trace", path)
            assert code == cli.DOMAIN_ERROR and err.startswith("error:") and out == ""


class TestCertify:
    def test_pass_verdict(self, capsys, weighted_file, tmp_path):
        cert = tmp_path / "cert.txt"
        code, out, _ = run_cli(
            capsys, "certify", "--k", "2", "--h", "1", "--trace", weighted_file,
            "--out", str(cert),
        )
        assert code == 0
        assert "feasible PASS" in out and "bound PASS" in out and "verdict PASS" in out
        assert "ratio 1" in out  # k/(k-h+1) = 2/2
        assert cert.read_text().startswith("cachecomp-certificate 1")

    def test_h_defaults_to_k(self, capsys, trace_file):
        code, out, _ = run_cli(capsys, "certify", "--k", "2", "--trace", trace_file)
        assert code == 0 and "h 2" in out and "ratio 2" in out

    def test_h_out_of_range(self, capsys, trace_file):
        code, _, err = run_cli(
            capsys, "certify", "--k", "2", "--h", "3", "--trace", trace_file
        )
        assert code == 1 and err

    def test_failure_exits_three(self, capsys, trace_file, monkeypatch):
        from cachecomp.dualcert import Violation

        monkeypatch.setattr(
            cli.dualcert, "check_feasibility_fast", lambda dual, trace: [Violation(0, 1, 1)]
        )
        code, out, _ = run_cli(capsys, "certify", "--k", "2", "--trace", trace_file)
        assert code == 3
        assert "feasible FAIL" in out and "verdict FAIL" in out


class TestPhases:
    def test_summary_and_csv(self, capsys, trace_file):
        code, out, _ = run_cli(
            capsys, "phases", "--k", "2", "--trace", trace_file, "-v"
        )
        assert code == 0
        assert "num_phases 1" in out and "avenew 1" in out
        assert "phase,start,end,distinct,new" in out


class TestSweep:
    @pytest.mark.parametrize("strategies", ["lru,LRU", "greedydual,greedydual:max"])
    def test_repeated_strategy(self, capsys, trace_file, strategies):
        code, out, err = run_cli(
            capsys, "sweep", "--n", "2", "--strategies", strategies, "--trace", trace_file
        )
        assert code == 1 and out == "" and "given twice" in err

    def test_huge_n_is_domain_error(self, capsys, trace_file):
        code, out, err = run_cli(
            capsys, "sweep", "--trace", trace_file, "--n", "1000000000", "--strategies", "lru"
        )
        assert code == cli.DOMAIN_ERROR and out == ""
        assert err.startswith("error: n must be") and err.count("\n") == 1

    def test_stdout_csv(self, capsys, trace_file):
        code, out, _ = run_cli(
            capsys, "sweep", "--trace", trace_file, "--n", "3",
            "--strategies", "lru,fwf", "--c-family", "log:4", "--d", "1",
        )
        assert code == 0
        assert "k,strategy,cost,opt,ratio,phases,avenew,violator" in out
        assert "violators lru" in out
        # n rows per strategy
        rows = [l for l in out.splitlines() if l and l[0].isdigit()]
        assert len(rows) == 6

    def test_gnuplot_requires_out(self, capsys, trace_file):
        code, _, err = run_cli(
            capsys, "sweep", "--trace", trace_file, "--n", "2",
            "--strategies", "lru", "--gnuplot",
        )
        assert code == 1 and "gnuplot" in err

    def test_out_and_gnuplot_files(self, capsys, trace_file, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--trace", trace_file, "--n", "2",
            "--strategies", "lru", "--out", str(out_csv), "--gnuplot",
        )
        assert code == 0
        assert out_csv.exists() and (tmp_path / "sweep.csv.gp").exists()

    def test_rational_d(self, capsys, trace_file):
        code, out, _ = run_cli(
            capsys, "sweep", "--trace", trace_file, "--n", "2",
            "--strategies", "lru", "--c-family", "const:2", "--d", "1/2",
        )
        assert code == 0

    def test_huge_d_matches_moderate_d(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("d\nc\nd\nb\nd\na\nc\na\n", encoding="utf-8")
        argv = ["sweep", "--trace", str(path), "--n", "3",
                "--strategies", "lru,fifo,mark", "--c-family", "const:2"]
        code, huge, err = run_cli(capsys, *argv, "--d", "1000000000")
        assert code == 0 and err == ""
        # opt1 = 7 and mark's mean cost is a multiple of 1/100, so at d = 8
        # the opt1 / 3^d floor is already below every positive cost
        code, moderate, _ = run_cli(capsys, *argv, "--d", "8")
        assert code == 0 and huge == moderate
        assert "opt1 7\n" in huge and "violators lru 1 [3]" in huge
        # at d = 1 the floor keeps that row out
        _, small_d, _ = run_cli(capsys, *argv, "--d", "1")
        assert "violators lru 0" in small_d

    def test_weight_beyond_float_range_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text(f"a 1{'0' * 400}\nb\na\nc\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "sweep", "--trace", str(path), "--n", "2", "--strategies", "lru,mark",
            "--c-family", "log:1",
        )
        assert code == cli.DOMAIN_ERROR and err.startswith("error:") and out == ""

    @pytest.mark.parametrize("flags", [["log:1e400"], ["const:1e400", "--d", "1/2"]])
    def test_family_beyond_float_range_is_domain_error(self, capsys, trace_file, flags):
        code, out, err = run_cli(
            capsys, "sweep", "--trace", trace_file, "--n", "2", "--strategies", "lru",
            "--c-family", *flags,
        )
        assert code == cli.DOMAIN_ERROR and err.startswith("error:") and out == ""

    def test_d_beyond_float_range_with_one_server(self, capsys, tmp_path):
        # n^d overflows a float for d = 1e400; with n = 1 the floor is opt1
        # (20), which fwf's one-server cost ties, and ties count
        path = tmp_path / "w.txt"
        path.write_text("a 5\nb 5\na\nb\na\n", encoding="utf-8")
        argv = ["sweep", "--trace", str(path), "--n", "1", "--strategies", "fwf",
                "--c-family", "log:1/100"]
        code, huge, err = run_cli(capsys, *argv, "--d", "1e400")
        assert code == 0 and err == ""
        assert run_cli(capsys, *argv, "--d", "1")[1] == huge
        assert "violators fwf 1 [1]\n" in huge

    def test_huge_d_with_log_family(self, capsys, trace_file):
        # n^d overflows a float here; the floor is then below any cost
        code, out, err = run_cli(
            capsys, "sweep", "--trace", trace_file, "--n", "2",
            "--strategies", "lru", "--c-family", "log:1", "--d", "1000000000",
        )
        assert code == 0 and err == ""
        assert "violators lru 2 [1 2]" in out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--d", "1/0"],
            ["--c-family", "log:1/0"],
            ["--c-family", "const:0"],
            ["--d", "0"],
            ["--d", "-1"],
            ["--c-family", "log:4", "--d", "0"],
        ],
    )
    def test_bad_numbers_are_domain_errors(self, capsys, trace_file, flags):
        code, out, err = run_cli(
            capsys, "sweep", "--trace", trace_file, "--n", "2",
            "--strategies", "lru", *flags,
        )
        assert code == cli.DOMAIN_ERROR
        assert err.startswith("error:") and out == ""


class TestOSErrors:
    def test_unreadable_trace_is_domain_error(self, capsys, trace_file, monkeypatch):
        def deny(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_text", deny)
        code, out, err = run_cli(capsys, "optimal", "--k", "2", "--trace", trace_file)
        assert code == cli.DOMAIN_ERROR
        assert err.startswith("error:") and "Permission denied" in err
        assert out == ""

    def test_closed_stdout_exits_quietly(self, trace_file):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before anything is written
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        try:
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from cachecomp.cli import main; sys.exit(main())",
                 "sweep", "--trace", trace_file, "--n", "3", "--strategies", "lru,fwf"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == cli.BROKEN_PIPE
        assert proc.stderr == b""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--k", "2", "--strategy", "lru"],
            ["optimal", "--k", "2", "--opt", "flow"],
            ["certify", "--k", "2"],
            ["phases", "--k", "2"],
            ["sweep", "--n", "3", "--strategies", "lru,mark", "--c-family", "log:4"],
            ["sweep", "--n", "3", "--strategies", "fwf", "--gnuplot"],
        ],
        ids=["simulate", "optimal", "certify", "phases", "sweep", "sweep-gnuplot"],
    )
    def test_out_is_a_directory(self, capsys, trace_file, tmp_path, argv):
        code, out, err = run_cli(capsys, *argv, "--trace", trace_file, "--out", str(tmp_path))
        assert code == cli.DOMAIN_ERROR
        assert err.startswith("error:") and "Traceback" not in err
        assert out == ""  # the file is written before any summary line
        assert not (tmp_path.parent / (tmp_path.name + ".gp")).exists()


LINES = st.builds(
    "{}{}".format,
    st.sampled_from(["a", "b", "c", "é", "#", "a#b", "", " ", "\t", "\x00"]),
    st.sampled_from(["", " 1", " 3", " 0", " -2", " x", " 1 2", " 99999999999999999999",
                     " 1" + "0" * 400, " #7"]),
)
TRACE_BYTES = st.one_of(
    st.binary(max_size=120),
    st.text(max_size=60).map(lambda s: s.encode("utf-8")),
    st.lists(LINES, max_size=12).flatmap(
        lambda lines: st.sampled_from(["\n", "\r\n", "\r"]).map(
            lambda sep: sep.join(lines).encode("utf-8")
        )
    ),
)
FUZZ_ARGV = {
    "simulate": ["--k", "2", "--strategy", "greedydual:min", "-v"],
    "sweep": ["--n", "3", "--strategies", "lru,fwf,mark,balance", "--trials", "2",
              "--c-family", "log:2"],
    "certify": ["--k", "2"],
    "phases": ["--k", "2", "-v"],
}


class TestFuzzedTraces:
    """Arbitrary trace bytes end in a documented exit code, never a traceback."""

    @pytest.mark.parametrize("command", sorted(FUZZ_ARGV))
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(data=TRACE_BYTES)
    def test_exit_code_without_traceback(self, command, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.txt"
            path.write_bytes(data)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([command, "--trace", str(path), *FUZZ_ARGV[command]])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code:
            assert err.getvalue().startswith("error:")


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys, trace_file):
        assert cli.main(["simulate", "--trace", trace_file]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--k", "2", "-v"],
            ["sweep", "--n", "2", "--strategies", "lru", "-v"],
            ["certify", "--k", "2", "--policy", "balance"],
        ],
        ids=["certify-verbose", "sweep-verbose", "certify-balance"],
    )
    def test_flag_not_offered(self, capsys, trace_file, argv):
        code, out, _ = run_cli(capsys, *argv, "--trace", trace_file)
        assert code == 2 and out == ""


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv_template",
        [
            ["simulate", "--strategy", "mark", "--k", "2", "--trace", "{t}", "-v"],
            ["optimal", "--k", "2", "--trace", "{t}", "-v"],
            ["certify", "--k", "2", "--trace", "{t}"],
            ["phases", "--k", "2", "--trace", "{t}", "-v"],
            [
                "sweep", "--trace", "{t}", "--n", "3", "--strategies",
                "lru,mark", "--trials", "8", "--c-family", "log:4",
            ],
        ],
    )
    def test_two_runs_identical(self, capsys, trace_file, argv_template):
        argv = [a.format(t=trace_file) for a in argv_template]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2


def loaded_in_fresh_interpreter(code: str, *flags: str) -> set[str]:
    """Every module a new interpreter, started with ``flags``, holds after
    ``code``."""
    proc = run_fresh(
        "import contextlib, io, sys\n"
        f"{code}\n"
        "print(' '.join(sys.modules))",
        *flags,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def ours(modules: set[str]) -> set[str]:
    return {m for m in modules if m.split(".")[0] == "cachecomp"}


def cli_main_code(argv: list[str]) -> str:
    return (
        "from cachecomp import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0"
    )


# what the result records would pull in as dataclasses
RECORD_MACHINERY = {"dataclasses", "inspect"}


class TestColdStart:
    """Each subcommand loads only the layers it runs, and no module that
    declaring its records would need."""

    @pytest.mark.parametrize(
        "argv, layers",
        [
            (["simulate", "--strategy", "lru", "--k", "2"], {"strategies", "phases"}),
            (["optimal", "--k", "2"], {"offline"}),
            (["certify", "--k", "2"], {"dualcert", "strategies", "phases"}),
            (["phases", "--k", "2"], {"phases"}),
            (
                ["sweep", "--n", "3", "--strategies", "lru,mark", "--c-family", "log:4"],
                {"sweep", "offline", "strategies", "phases"},
            ),
        ],
        ids=["simulate", "optimal", "certify", "phases", "sweep"],
    )
    def test_subcommand_loads_its_layers(self, trace_file, argv, layers):
        loaded = loaded_in_fresh_interpreter(cli_main_code([*argv, "--trace", trace_file]))
        expected = {"cachecomp", "cachecomp.cli", "cachecomp.trace"}
        assert ours(loaded) == expected | {f"cachecomp.{m}" for m in layers}
        assert not loaded & RECORD_MACHINERY

    def test_parser_loads_no_layer(self):
        loaded = loaded_in_fresh_interpreter("from cachecomp import cli\ncli.build_parser()")
        assert ours(loaded) == {"cachecomp", "cachecomp.cli", "cachecomp.trace"}
        assert not loaded & RECORD_MACHINERY

    @pytest.mark.parametrize(
        "argv",
        [
            None,
            ["optimal", "--k", "2"],
            ["phases", "--k", "2"],
            ["certify", "--k", "2"],
            ["simulate", "--strategy", "lru", "--k", "2"],
        ],
        ids=["import", "optimal", "phases", "certify", "simulate-lru"],
    )
    def test_trace_loads_random_only_to_generate(self, trace_file, argv):
        """Only ``generate_random`` and marking import ``random``.  ``-S``
        skips ``site``, whose ``.pth`` files may load it on their own."""
        code = cli_main_code([*argv, "--trace", trace_file]) if argv else "import cachecomp.cli"
        assert "random" not in loaded_in_fresh_interpreter(code, "-S")

    @pytest.mark.parametrize("command", [None, "simulate", "optimal", "certify", "phases", "sweep"])
    def test_help_lists_accepted_values(self, capsys, command):
        from cachecomp.offline import OPT_METHODS
        from cachecomp.strategies import MAX_LOWER, MIN_LOWER

        code, out, _ = run_cli(capsys, *([command] if command else []), "--help")
        assert code == 0 and out.startswith("usage: cachecomp")
        opt = "{" + ",".join(OPT_METHODS) + "}"
        assert (opt in out) == (command in ("optimal", "sweep"))
        assert (f"{{{MAX_LOWER},{MIN_LOWER}}}" in out) == (command == "certify")

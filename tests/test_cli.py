"""The mantle-sim command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.core.api import MantlePolicy
from repro.core.policyfile import dump_policy
from repro.core.policies import greedy_spill_policy


class TestPolicies:
    def test_lists_stock_policies(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "greedy-spill" in out
        assert "adaptable" in out
        assert "fill-and-spill" in out


class TestShow:
    def test_show_stock_policy(self, capsys):
        assert main(["show", "greedy-spill"]) == 0
        out = capsys.readouterr().out
        assert "-- @when" in out
        assert "-- @howmuch" in out


class TestValidate:
    def test_validate_stock_policy(self, capsys):
        assert main(["validate", "greedy-spill"]) == 0
        out = capsys.readouterr().out
        assert "ok:       True" in out

    def test_validate_policy_file(self, tmp_path, capsys):
        path = tmp_path / "p.lua"
        path.write_text(dump_policy(greedy_spill_policy()))
        assert main(["validate", str(path)]) == 0

    def test_validate_bad_policy_file(self, tmp_path, capsys):
        path = tmp_path / "bad.lua"
        path.write_text("-- @when\nwhile 1 do end\n-- @where\nx = 1\n")
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "problem:" in out

    def test_unknown_policy_errors(self):
        with pytest.raises(SystemExit):
            main(["validate", "no-such-policy"])


class TestRun:
    def test_ratio_metaload_run_finishes(self, tmp_path, capsys):
        # IWR / IRD divides by zero on every rank that has not read yet:
        # IEEE inf or nan, as in the interpreter, never an exception.
        path = tmp_path / "ratio.lua"
        path.write_text(dump_policy(MantlePolicy(
            name="ratio", metaload="IWR / IRD", mdsload='MDSs[i]["all"]',
            when=greedy_spill_policy().when,
            where=greedy_spill_policy().where, howmuch=("half",))))
        code = main(["run", "--policy", str(path), "--mds", "2",
                     "--clients", "4", "--files", "20000", "--shared",
                     "--split-size", "5000"])
        assert code == 0
        assert "[ratio] makespan=" in capsys.readouterr().out

    def test_run_create_workload(self, capsys):
        code = main(["run", "--mds", "1", "--clients", "1",
                     "--files", "300", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "latency" in out

    def test_run_with_stock_policy_and_decisions(self, capsys):
        code = main(["run", "--policy", "greedy-spill", "--mds", "2",
                     "--clients", "2", "--files", "500", "--shared",
                     "--split-size", "200", "--decisions"])
        assert code == 0
        assert "greedy-spill" in capsys.readouterr().out

    def test_run_refuses_invalid_policy(self, tmp_path, capsys):
        path = tmp_path / "bad.lua"
        path.write_text("-- @when\ngo = nil + 1\n-- @where\nx = 1\n")
        code = main(["run", "--policy", str(path), "--files", "10"])
        assert code == 1
        assert "refusing" in capsys.readouterr().err

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_run_into_closed_pipe_exits_quietly(self, unbuffered):
        # ``mantle-sim run ... | head -1``: the reader is gone before the
        # report is written.  Block-buffered stdout fails at the final
        # flush, unbuffered stdout at the first print; neither may print
        # a traceback.
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
                   PYTHONPATH=str(Path(repro.__file__).parents[1]))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", "run", "--mds", "1",
                 "--clients", "1", "--files", "300", "--seed", "3"],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                timeout=120)
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 1

    def test_run_zipf(self, capsys):
        code = main(["run", "--workload", "zipf", "--mds", "1",
                     "--clients", "1", "--files", "200", "--ops", "300"])
        assert code == 0


class TestSweep:
    TINY = ["sweep", "--seeds", "1", "--policies", "greedy_spill",
            "--clients", "2", "--files", "100", "--split-size", "100"]

    @pytest.mark.parametrize("grid", [["--seeds", "0"], ["--seeds", ","],
                                      ["--policies", ","]],
                             ids=["zero-seeds", "no-seeds", "no-policies"])
    def test_empty_grid_is_refused(self, grid, capsys):
        with pytest.raises(SystemExit, match="at least one seed"):
            main(self.TINY + grid)
        assert capsys.readouterr().out == ""

    def test_malformed_seed_is_refused(self, capsys):
        with pytest.raises(SystemExit, match="invalid literal"):
            main(self.TINY + ["--seeds", "1,x"])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [["--jobs", "0"], ["--jobs", "-3"]],
                             ids=["jobs-0", "jobs-negative"])
    def test_jobs_below_one_is_an_argparse_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.TINY + argv)
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_sweep_writes_only_its_report(self, tmp_path):
        # Every cell simulates: nothing lands in the home directory and
        # stderr stays empty.
        env = dict(os.environ, HOME=str(tmp_path),
                   PYTHONPATH=str(Path(repro.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", *self.TINY, "--seeds", "2",
             "--jobs", "2"],
            capture_output=True, env=env, cwd=tmp_path, timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == b""
        assert proc.stdout.count(b"policy=greedy-spill") == 2
        assert list(tmp_path.iterdir()) == []


class TestSizeArguments:
    """Cluster and workload sizes below one are usage errors, not
    tracebacks from inside the run."""

    @pytest.mark.parametrize("argv", [
        ["run", "--clients", "1", "--files", "0"],
        ["run", "--clients", "0"],
        ["run", "--mds", "0"],
        ["inspect", "--clients", "0"],
        ["inspect", "--mds", "0"],
        ["sweep", "--seeds", "1", "--clients", "0"],
        ["sweep", "--seeds", "1", "--mds", "0"],
        ["sweep", "--seeds", "1", "--files", "0"],
    ], ids=lambda argv: "-".join(argv[:1] + argv[-2:]).replace("--", ""))
    def test_size_below_one_is_an_argparse_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{argv[-2]}: expected an integer >= 1" in captured.err
        assert "Traceback" not in captured.err

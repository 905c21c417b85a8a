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

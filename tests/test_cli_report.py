"""Tests for the CLI and the trace-report utilities."""

import numpy as np
import pytest

from repro.cli import main
from repro.gpusim.engine import launch_layer, price_trace
from repro.gpusim.report import layer_report, timeline
from repro.gpusim.trace import KernelLaunch, KernelTrace, LaunchKind
from repro.hw import get_device


def make_trace():
    return KernelTrace(
        [
            KernelLaunch(name="conv1/fwd:main", kind=LaunchKind.GEMM,
                         flops=1e9, ctas=500),
            KernelLaunch(name="conv1/map/hash_query",
                         kind=LaunchKind.MAPPING, scalar_ops=1e7, ctas=100),
            KernelLaunch(name="conv2/fwd:main", kind=LaunchKind.GEMM,
                         flops=5e8, ctas=300),
        ]
    )


class TestReport:
    def test_timeline_contains_all_launches(self):
        text = timeline(make_trace(), "a100", "fp16")
        assert "conv1/fwd:main" in text
        assert "conv2/fwd:main" in text
        assert "total" in text

    def test_timeline_top_filters(self):
        text = timeline(make_trace(), "a100", "fp16", top=1)
        assert text.count("conv") == 1

    def test_by_layer_groups_by_prefix(self):
        run = price_trace(make_trace(), get_device("a100"), "fp16")
        grouped = run.split_us(launch_layer)
        assert set(grouped) == {"conv1", "conv2"}
        assert grouped["conv1"] > grouped["conv2"]

    def test_layer_report_shares_sum_to_100(self):
        text = layer_report(make_trace(), "a100", "fp16")
        shares = [
            float(line.split("|")[-1].strip().rstrip("%"))
            for line in text.splitlines()[3:]
        ]
        assert sum(shares) == pytest.approx(100.0, abs=0.5)


class TestCli:
    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "A100" in out and "Jetson" in out

    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        assert "SK-M-0.5" in capsys.readouterr().out

    def test_engines(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        assert "TorchSparse++" in out and "MinkowskiEngine" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_device_exits_2_with_choices(self, capsys):
        assert main(["measure", "SK-M-0.5", "--device", "h100"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "h100" in err
        assert "known devices" in err  # lists the valid choices

    def test_unknown_engine_exits_2(self, capsys):
        assert main(["measure", "SK-M-0.5", "--engine", "cudnn"]) == 2
        err = capsys.readouterr().err
        assert "unknown engine" in err and "torchsparse++" in err

    def test_unknown_workload_exits_2(self, capsys):
        assert main(["measure", "SK-Z-9"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err and "SK-M-0.5" in err

    def test_unknown_precision_exits_2(self, capsys):
        assert main(["tune", "SK-M-0.5", "--precision", "int8"]) == 2
        err = capsys.readouterr().err
        assert "unknown precision" in err and "fp16" in err

    def test_tune_unknown_workload_exits_2(self, capsys):
        assert main(["tune", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_serve_bench_unknown_device_exits_2(self, capsys):
        assert main(["serve-bench", "--device", "tpu"]) == 2
        assert "known devices" in capsys.readouterr().err

    def test_serve_bench_missing_policy_file_exits_2(self, capsys):
        assert main(["serve-bench", "--policy", "/nonexistent/p.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_workload_alias_resolves(self):
        from repro.models import get_workload

        assert get_workload("sk-m-1x").id == "SK-M-1.0"
        assert get_workload("SK-M-0.5x").id == "SK-M-0.5"

    def test_experiments_list(self, capsys):
        from repro.experiments.__main__ import main as exp_main

        assert exp_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig14_inference" in out
        assert "tab05_split_space" in out

    def test_experiments_unknown(self):
        from repro.experiments.__main__ import main as exp_main

        with pytest.raises(SystemExit):
            exp_main(["fig99"])

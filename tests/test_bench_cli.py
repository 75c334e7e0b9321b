"""The `python -m repro.bench` CLI."""

from repro.bench.__main__ import main


class TestCli:
    def test_list(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "fig03" in out and "table01" in out and "ext-fusion" in out

    def test_run_single(self, capsys):
        assert main(["fig09", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "CACHE_SIZE" in out
        assert "note:" in out

    def test_unknown_experiment_raises(self):
        import pytest

        from repro.errors import BenchmarkError

        with pytest.raises(BenchmarkError):
            main(["fig99"])

    def test_trace_output(self, tmp_path, capsys):
        from repro import obs

        trace = tmp_path / "t.jsonl"
        assert main(["fig09", "--quick", "--trace", str(trace)]) == 0
        records, dropped = obs.read_trace_lenient(trace)
        assert dropped == 0
        names = {r["name"] for r in records}
        assert "bench.experiment" in names and "kernel.spmm" in names
        (result_event,) = [r for r in records if r["name"] == "experiment.result"]
        assert result_event["attrs"]["experiment"] == "fig09"
        assert result_event["attrs"]["rows"]  # replayable record of the table
        # tracing is torn down after the run
        assert not obs.tracing_enabled()
        # and the trace gates clean against a baseline folded from itself
        report = obs.compare_to_baseline(
            obs.baseline_from_traces([records]), records
        )
        assert report.ok and report.checked > 0

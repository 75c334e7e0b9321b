"""Smoke tests: every shipped example runs end-to-end."""

import subprocess
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "SpMM" in out and "SDDMM" in out
    assert "autotuned config" in out
    assert "kernel.spmm" in out
    assert "wall=" not in out  # output is deterministic: simulated time only


def test_kernel_comparison():
    out = run_example("kernel_comparison.py", "G3", "16")
    assert "gnnone" in out and "ge-spmm" in out
    assert "LAUNCH ERROR" not in out.split("SDDMM")[0]  # spmm all run


def test_gnn_training():
    out = run_example("gnn_training.py", "G0", "2")
    assert "GCN" in out and "GAT" in out
    assert "test acc" in out


def test_scheduler_deep_dive():
    out = run_example("scheduler_deep_dive.py")
    assert "CACHE_SIZE sweep" in out
    assert "Yang" in out

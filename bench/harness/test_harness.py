"""Tests of the benchmark harness itself, at tiny sizes.

    python3 -m pytest -q bench/harness
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import kernel  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((kernel.REPO / "BENCHMARK.json").read_text())
TINY = ["--seed", "3", "--seconds", "0"]


@pytest.fixture
def workloads(monkeypatch):
    """The harness's workloads with every step and sample count cut to
    a hundredth; the inputs and the recorded drift values stay."""
    kernel.ensure_built()
    kernel.import_package()
    import workloads
    monkeypatch.setattr(workloads, "SCALE", 0.01)
    return workloads


def _harness(*args, root=kernel.REPO):
    script = root / "bench" / "harness" / "run.py"
    return subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, cwd=root,
                          timeout=300)


def test_benchmark_json_names_what_the_harness_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"] for m in BENCHMARK["end_to_end"]
            if m["better"] == "higher"} == run.HIGHER_IS_BETTER
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == run.PER_LAYER
    assert BENCHMARK["command"] == ["python3", "bench/harness/run.py"]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workloads, capsys,
                                                   name, trace):
    status = run.main(["--workload", name, "--trace", trace, *TINY])
    lines = capsys.readouterr().out.strip().splitlines()
    assert status == 0
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for metric, unit in expected.items():
        entry = result["metrics"][metric]
        assert entry["unit"] == unit
        assert any(line.startswith(f"{metric}: ") and f" {unit}" in line
                   for line in lines[:-1]), metric


def test_corrupted_state_dump_trips_the_parity_gate(workloads, monkeypatch,
                                                   capsys):
    honest = workloads.kernel_dump

    def corrupted(ke):
        header, first, rest = honest(ke).split("\n", 2)
        return "\n".join([header, first.replace(" CT ", " CF ", 1), rest])
    monkeypatch.setattr(workloads, "kernel_dump", corrupted)
    status = run.main(["--workload", "trial-ct", "--trace", "0", *TINY])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"] == {}


def test_without_the_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(kernel.REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench" / "harness",
                    ignore=shutil.ignore_patterns("build", "__pycache__"))
    proc = _harness("--workload", "trial-ct", *TINY, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

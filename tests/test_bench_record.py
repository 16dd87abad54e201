"""``tools/bench_record.py`` folds benchmark run records into a BENCH record.

The tool is loaded by path, as the benchmark's tracer is in
``test_perfbench_bindings``, and run on synthetic records shaped like those of
``perfbench/run.py --trace 0``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_record_tool", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_record(path, workload, walls, setup, rss=41.5, trace=0, commit="abc123"):
    rounds = [{"traced": False, "wall_s": w, "ops": 18, "failed": 0, "messages": [], "digests": []}
              for w in walls]
    blob = {
        "record": {"git_commit": commit, "src_caf_sha256": "f" * 64, "caf_version": "0.1.0",
                   "python": "3.11.7", "numpy": "2.4.6", "nproc": 2, "cpu_affinity": 2,
                   "cpu_model": "cpu", "thread_pins": {"OPENBLAS_NUM_THREADS": "1"}, "seed": 0,
                   "trace": trace, "workload": workload, "argv": [["caf", workload]]},
        "setup_s": setup, "rounds": rounds, "attempted": 18 * len(walls), "failed": 0,
        "correct": True,
        "metrics": {"ops_per_s": {"value": 0.0, "unit": "1/s"},
                    "setup_s": {"value": 0.0, "unit": "s"},
                    "peak_rss_mb": {"value": rss, "unit": "MB"}},
    }
    path.write_text(json.dumps(blob), encoding="utf-8")
    return path


def test_folds_runs_per_workload(tool, tmp_path):
    # per-round ops/s 18 / wall: 180, 90, 60, 45, 36
    first = write_record(tmp_path / "a.json", "dof_k3", [0.1, 0.2, 0.3, 0.4, 0.5], [0.3, 0.1, 0.2])
    second = write_record(tmp_path / "b.json", "dof_k3", [0.05, 0.1], [0.2], rss=43.0, commit="def")
    other = write_record(tmp_path / "c.json", "fig2_k2", [0.5], [0.15])
    out = tmp_path / "BENCH_7.json"
    assert tool.main(["--pr", "7", "--out", str(out), str(first), str(second), str(other)]) == 0
    bench = json.loads(out.read_text())
    assert bench["pr"] == 7 and sorted(bench["workloads"]) == ["dof_k3", "fig2_k2"]
    dof = bench["workloads"]["dof_k3"]
    assert [r["record"] for r in dof["runs"]] == ["a.json", "b.json"]
    run = dof["runs"][0]
    assert run["ops_per_s"] == pytest.approx({"median": 60.0, "q1": 45.0, "q3": 90.0, "iqr": 45.0})
    assert run["setup_s"] == {"samples": [0.3, 0.1, 0.2], "median": 0.2}
    assert run["peak_rss_mb"] == 41.5 and run["rounds"] == 5 and run["correct"] is True
    assert (run["git_commit"], run["nproc"], run["numpy"]) == ("abc123", 2, "2.4.6")
    assert run["thread_pins"] == {"OPENBLAS_NUM_THREADS": "1"}
    assert dof["runs"][1]["ops_per_s"]["median"] == pytest.approx(270.0)
    assert dof["median_ops_per_s"] == pytest.approx(165.0)  # of the two run medians
    single = bench["workloads"]["fig2_k2"]["runs"][0]["ops_per_s"]
    assert single == pytest.approx({"median": 36.0, "q1": 36.0, "q3": 36.0, "iqr": 0.0})


def test_refuses_a_traced_record(tool, tmp_path, capsys):
    traced = write_record(tmp_path / "t.json", "dof_k3", [0.1], [0.2], trace=1)
    assert tool.main(["--pr", "7", "--out", str(tmp_path / "o.json"), str(traced)]) == 2
    assert "traced record" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()

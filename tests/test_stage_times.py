import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_case_prints_the_documented_keys():
    result = subprocess.run([sys.executable, "scripts/stage_times.py", "--case", "design-96x64",
                             "--tree", "x=src", "--repeats", "3"],
                            cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    case = json.loads(result.stdout)
    assert sorted(case) == sorted(["case", "command", "nx", "ny", "stages_s", "command_s",
                                   "command_cold_s", "process_s", "process_peak_rss_mb",
                                   "cg_iterations", "levels", "peak_rss_mb"])
    assert (case["case"], case["command"], case["nx"], case["ny"]) == (
        "design-96x64", "compare", 96, 64)
    assert list(case["stages_s"]) == ["build_fields", "assemble", "transfers",
                                      "solve_linear", "pressure_csv", "fields_csv"]
    times = [*case["stages_s"].values(), case["command_s"], case["command_cold_s"],
             case["process_s"]]
    assert all(isinstance(t, float) and t > 0.0 for t in times)
    # a cold 96x64 transfers build takes milliseconds; a cache hit about 1 us
    assert case["stages_s"]["transfers"] > 1e-4
    # a fresh interpreter pays the imports that an in-process run has already paid
    assert case["process_s"] > case["command_s"]
    assert case["cg_iterations"] == 10
    assert case["levels"][0] == 96 * 63 and case["levels"][-1] <= 64
    assert case["peak_rss_mb"] > 0.0 and case["process_peak_rss_mb"] > 0.0

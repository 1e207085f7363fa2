"""Smoke test of the sweep benchmark at toy dimensions.

    python3 -m pytest perfbench/tests -q

Runs the whole benchmark path (sweeps, row checks, metrics, trace) with
``--smoke`` and checks the output against BENCHMARK.json's metric lists.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from scmimo import experiments_cli as cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           "--smoke", "--seconds", "0.5", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def metric_units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = last_json(run_bench("--workload", workload, "--seed", "12345",
                                 "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    spec = WORKLOADS[workload]
    assert result["attempted"] >= spec.seeds * sum(s.n_rows
                                                   for s in spec.sweeps)
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == metric_units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric(tmp_path):
    spans = tmp_path / "spans.jsonl"
    result = last_json(run_bench("--workload", "beta_grid", "--seed", "7",
                                 "--trace", "1", "--spans", str(spans)))
    assert result["correct"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} \
        == metric_units("per_layer")
    # one RZFP cell at two powers plus one MMSEE cell at one power, each
    # point searching beta on 20 draws and reporting on 20 more
    assert metrics["experiments_cli.optimize_beta.calls"]["value"] == 3
    assert metrics["channel.draws_per_needed"]["value"] == 3.0
    assert metrics["experiments_cli.beta_rate_evals"]["value"] > 1
    lines = [json.loads(line) for line in spans.read_text().splitlines()]
    assert len(lines) == metrics["trace.spans"]["value"]
    ids = {span["span_id"] for span in lines}
    assert all(span["parent_id"] in ids or span["parent_id"] == 0
               for span in lines)
    assert any(span["parent_id"] for span in lines)


def test_run_leaves_no_files_behind():
    before = set(ROOT.iterdir())
    last_json(run_bench("--workload", "fixed", "--trace", "0"))
    assert set(ROOT.iterdir()) == before


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "fixed", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_a_beta_grid_run_covers_two_seeds():
    proc = run_bench("--workload", "beta_grid", "--seed", "3", "--trace", "0")
    last_json(proc)
    line = next(line for line in proc.stdout.splitlines()
                if line.startswith("sweep_s per process"))
    assert "(3)" in line and f"({3 + workloads.SEED_STRIDE})" in line


def test_sweep_seconds_is_the_median_round_of_its_slowest_process():
    rounds = [[{"sweep_s": 1.0}, {"sweep_s": 3.0}],
              [{"sweep_s": 2.0}, {"sweep_s": 1.5}], [{"sweep_s": 9.0}]]
    assert run.sweep_seconds(rounds) == 3.0


def smoke_sweep(workload, index=0):
    sweep = WORKLOADS[workload].sweeps[index]
    path = checks.reference_path(True, workload, sweep)
    cfg = cli.load_config(str(ROOT / sweep.config),
                          sweep.overrides(12345, str(path), smoke=True))
    ref = checks.load_reference(True, workload, sweep)
    header, rows = checks.read_sweep_csv(path)
    return sweep, cfg, ref, header, rows


def test_checks_pass_the_reference_rows():
    for workload, spec in WORKLOADS.items():
        for index in range(len(spec.sweeps)):
            sweep, cfg, ref, header, rows = smoke_sweep(workload, index)
            problems, attempted = checks.check_sweep(sweep, cfg, rows,
                                                     header, rows, ref)
            assert problems == {} and attempted == sweep.n_rows


@pytest.mark.parametrize("column,factor", [("rate_bpcu", 1 + 1e-6),
                                           ("isi", 1 + 1e-6),
                                           ("awgn", 2.0)])
def test_checks_catch_a_changed_value(column, factor):
    sweep, cfg, ref, header, rows = smoke_sweep("fixed")
    bad = copy.deepcopy(rows)
    bad[20][column] = repr(float(bad[20][column]) * factor)
    problems, _ = checks.check_sweep(sweep, cfg, bad, header, bad, ref)
    assert 20 in problems


def test_checks_catch_header_order_and_missing_rows():
    sweep, cfg, ref, header, rows = smoke_sweep("fixed")
    problems, _ = checks.check_sweep(sweep, cfg, rows, header.upper(), rows,
                                     ref)
    assert len(problems) == len(rows)
    swapped = rows[:]
    swapped[0], swapped[1] = swapped[1], swapped[0]
    problems, _ = checks.check_sweep(sweep, cfg, swapped, header, swapped,
                                     ref)
    assert {0, 1} <= set(problems)
    problems, attempted = checks.check_sweep(sweep, cfg, rows[:-3], header,
                                             rows[:-3], ref)
    assert attempted == len(rows) and len(problems) >= 3


def test_other_seeds_are_checked_statistically():
    sweep, cfg, ref, header, rows = smoke_sweep("fixed")
    other = cli.load_config(str(ROOT / sweep.config),
                            sweep.overrides(99, "unused.csv", smoke=True))
    moved = [dict(r, seed="99") for r in rows]
    problems, _ = checks.check_sweep(sweep, other, moved, header, moved, ref)
    assert problems == {}
    i = 30
    moved[i]["rate_bpcu"] = repr(float(moved[i]["rate_bpcu"])
                                 + 10 * ref.stderr[i])
    problems, _ = checks.check_sweep(sweep, other, moved, header, moved, ref)
    assert i in problems

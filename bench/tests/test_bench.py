"""Tests of the benchmark itself, at the TINY scale of tests/conftest.py.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import gzip
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import make_reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _tiny_scenario():
    spec = importlib.util.spec_from_file_location(
        "nomadas_tests_conftest", ROOT / "tests" / "conftest.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TINY


TINY = dataclasses.asdict(_tiny_scenario())
SERIAL = run.Workload("tiny", TINY, tail_pct=90.0)
POOL = run.Workload("tiny-pool", TINY, pool=True)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def small_runs(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "POOL_TRIALS", 4)
    for wl in (SERIAL, POOL):
        monkeypatch.setitem(run.WORKLOADS, wl.name, wl)


def _main(capsys, *argv):
    code = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [SERIAL.name, POOL.name])
@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_printed_with_unit(capsys, workload, trace, key):
    code, lines, result = _main(capsys, "--workload", workload, "--seed",
                                "3", "--seconds", "0.3", "--trace",
                                str(trace))
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    got = result["metrics"]
    assert set(got) == set(expected)
    printed = {ln.split()[0]: ln.split()[-1] for ln in lines[1:-1]
               if ln.startswith("  ") and len(ln.split()) == 3}
    for name, unit in expected.items():
        assert got[name]["unit"] == unit
        assert isinstance(got[name]["value"], float)
        assert printed[name] == unit
    if trace == 0:
        assert all(got[m["name"]]["value"] > 0 for m in BENCHMARK[key])
        assert printed["fail_frac"] == printed["ref_mismatch_frac"] == "ratio"
    report = json.loads(lines[-2].split(" ", 1)[1])
    assert report["environment"]["seed"] == 3
    assert "OPENBLAS_NUM_THREADS" in report["environment"]["blas_thread_vars"]


def test_metric_lists_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    names = run.per_layer_names(run.Program(SERIAL).nm.ALGORITHMS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == names
    assert all(m["unit"] == run.unit_of(m["name"])
               for m in BENCHMARK["per_layer"])
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)


def test_perturbed_reference_is_a_mismatch():
    ref = make_reference.workload_reference(SERIAL, 0, drops=4)
    clean = run.run(SERIAL, 0, 0.2, False, reference=ref, setup_reps=1)
    assert clean["result"]["correct"]
    assert clean["report"]["checks"]["ref_checked"] >= 4 * 11

    bad = json.loads(json.dumps(ref))
    alg = next(iter(bad["drops"][1]))
    bad["drops"][1][alg][0] *= 1.0 + 1e-9          # total off by 1e-9 rel
    bad["drops"][2][alg][1] = "0" * 16              # step log differs
    out = run.run(SERIAL, 0, 0.2, False, reference=bad, setup_reps=1)
    assert not out["result"]["correct"]
    assert out["result"]["failed"] == 2
    assert out["report"]["checks"]["mismatched"] == 2
    assert out["report"]["checks"]["failed"] == 0

    within = json.loads(json.dumps(ref))
    within["drops"][1][alg][0] *= 1.0 + 1e-12       # inside the tolerance
    assert run.run(SERIAL, 0, 0.2, False, reference=within,
                   setup_reps=1)["result"]["correct"]


def test_perturbed_pool_reference_is_a_mismatch():
    ref = make_reference.workload_reference(POOL, 0, drops=0)
    ref["records"][0][3] *= 1.0 + 1e-9
    out = run.run(POOL, 0, 0.1, False, reference=ref, setup_reps=1)
    assert not out["result"]["correct"]
    # one perturbed record, compared once per pooled call
    assert out["report"]["checks"]["mismatched"] == out["report"]["pool_calls"]
    assert out["report"]["checks"]["failed"] == 0


def test_audit_violation_is_a_failure():
    class Strict:
        @staticmethod
        def audit_result(result):
            return ["planted violation"]

    checker = checks.Checker(Strict)
    prog = run.Program(SERIAL)
    run.time_drop(prog, 0, 0, checker)
    assert checker.failed == checker.rejected == len(prog.algorithms)


def test_host_speed_scaling_cancels_a_slow_spell():
    ref = hostspeed.REF_MS
    probes = [ref] * 5 + [1.5 * ref] * 5 + [ref] * 5
    probes[1] = 4 * ref                      # one disturbed probe
    times = [0.4 * p / ref for p in probes]  # drops slow down with the host
    times[1] = 0.4
    scales = hostspeed.rolling_scales(probes)
    assert [t * s for t, s in zip(times, scales)] == pytest.approx(
        [0.4] * len(probes))


def _spans(path):
    with gzip.open(path, "rt") as fh:
        doc = json.load(fh)
    arr = np.array(doc["spans"], dtype=float)
    return doc["names"], arr


@pytest.mark.parametrize("workload", [SERIAL, POOL])
def test_span_tree_is_well_formed(tmp_path, workload):
    out = run.run(workload, 1, 0.3, True)
    report = out["report"]
    names, spans = _spans(tmp_path / Path(report["spans_file"]).name)
    start, end = spans[:, 1], spans[:, 2]
    parent = spans[:, 3].astype(int)
    assert (end >= start).all()
    nested = parent >= 0
    # every child lies inside its parent (1 ns rounding of the file)
    assert (start[nested] >= start[parent[nested]] - 1e-9).all()
    assert (end[nested] <= end[parent[nested]] + 1e-9).all()
    dur = end - start
    child = np.zeros(len(dur))
    np.add.at(child, parent[nested], dur[nested])
    self_t = dur - child
    assert (self_t >= -1e-6).all()
    assert self_t.sum() == pytest.approx(dur[~nested].sum(), rel=1e-6)
    # layer self times add up to the same traced wall time
    layer_ms = sum(report["layer_self_ms_per_drop"].values())
    assert layer_ms * report["traced_drops"] / 1e3 == pytest.approx(
        dur[~nested].sum(), rel=1e-5)
    assert {"channel.generate_channel", "channel.drop_users",
            "allocators.run_algorithm"} <= set(names)
    assert report["top_self_time_layer"] in tracing.LAYERS


def test_tracer_restores_every_patched_name():
    prog = run.Program(SERIAL)
    nm = prog.nm
    before = {(id(o), a): vars(o)[a] for o, a, _ in tracing._targets(nm)}
    with tracing.installed(tracing.Tracer(), nm):
        assert nm.allocators.opad_cases is not before[
            (id(nm.allocators), "opad_cases")]
    after = {(id(o), a): vars(o)[a] for o, a, _ in tracing._targets(nm)}
    assert after == before


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in BENCHMARK["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        BENCHMARK["command"] + ["--workload", "paper-9M", "--seed", "0",
                                "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

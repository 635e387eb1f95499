"""Tests of the benchmark itself: inputs, checks and tracer.

    PYTHONPATH=src python3 -m pytest perfbench/tests
"""

import contextlib
import json
import os
import signal
import subprocess
import sys

import numpy.polynomial.hermite as hermite
import pytest

import checks
import reference
import workloads
import worker
from heatchern import duhamel
from heatchern.scenario import parse_scenario
from tracer import Tracer

# Cheap items that still reach every layer: suite all, a remainder and a
# torus mode sum (the baseline), a sparse n=6 fixed-point scenario and the
# torsion suite.
SMALL = ("base-all", "base-remainder-d4", "base-torus-sum-k20",
         "fp-n6-a6-sparse", "torsion")


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, workload):
    first = _files(os.path.dirname(
        workloads.write_inputs(workload, 7, str(tmp_path / "a"))))
    again = _files(os.path.dirname(
        workloads.write_inputs(workload, 7, str(tmp_path / "b"))))
    other = _files(os.path.dirname(
        workloads.write_inputs(workload, 8, str(tmp_path / "c"))))
    assert first == again
    assert first.keys() == other.keys()
    assert first != other


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_scenarios_parse_and_validate(tmp_path, workload, seed):
    manifest = workloads.write_inputs(workload, seed, str(tmp_path))
    with open(manifest, encoding="utf-8") as fh:
        items = json.load(fh)["items"]
    configs = [it["config"] for it in items if it["kind"] == "verify"]
    assert configs
    for config in configs:
        parse_scenario(os.path.join(str(tmp_path), config)).validate()


def _small(tmp_path, seed=3):
    items = []
    for workload in ("fixed-point-exact", "numeric-kernels"):
        directory = str(tmp_path / workload)
        with open(workloads.write_inputs(workload, seed, directory),
                  encoding="utf-8") as fh:
            for item in json.load(fh)["items"]:
                if item["name"] in SMALL and item["name"] not in {
                        it["name"] for it, _ in items}:
                    items.append((item, directory))
    assert {it["name"] for it, _ in items} == set(SMALL)
    return items


def _run(items, traced):
    tracer = Tracer() if traced else None
    with checks.EmitRecorder() as recorder, \
            tracer or contextlib.nullcontext():
        results = [checks.run_item(item, directory, recorder)
                   for item, directory in items]
    return results, tracer


def _bindings():
    """Every function-valued attribute the tracer may rebind."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "heatchern" or name.startswith("heatchern."):
            for attribute, value in vars(mod).items():
                if callable(value):
                    out[(name, attribute)] = value
    out["hermgauss"] = hermite.hermgauss
    out["SimplexQuadrature.__init__"] = duhamel.SimplexQuadrature.__init__
    return out


def test_tracer_restores_every_wrapped_function(tmp_path):
    items = _small(tmp_path)
    before = _bindings()
    _, tracer = _run(items, traced=True)
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []
    # the traced run did rebind: re-exports and the counting hooks
    assert tracer.stats["equivariant.local_index_density"][0] > 0
    assert tracer.counts["kernels.gh_points"] > 0
    assert tracer.counts["duhamel.simplex_nodes"] > 0
    assert tracer.counts["spectral.modes"] > (2 * 20 + 1) ** 2


def test_traced_and_untraced_runs_emit_identical_bytes(tmp_path):
    items = _small(tmp_path)
    plain, _ = _run(items, traced=False)
    traced, _ = _run(items, traced=True)
    assert all(ok for ok, _ in plain)
    assert [payload for _, payload in plain] == \
        [payload for _, payload in traced]


def test_two_traced_runs_give_identical_counts(tmp_path):
    items = _small(tmp_path)
    _, first = _run(items, traced=True)
    _, second = _run(items, traced=True)
    counts = [worker.layer_numbers(t)[1] for t in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["getzler.volterra_compose.calls"] > 0


def test_failures_are_detected(tmp_path):
    scenario = tmp_path / "bad.scn"
    scenario.write_text("suite spectral\ngeometry sphere\naction rotation 0.7\n"
                        "tolerance 1e-300\n")
    with checks.EmitRecorder() as recorder:
        ok, payload = checks.run_item(
            {"name": "bad", "kind": "verify", "config": "bad.scn",
             "out": "bad.txt"}, str(tmp_path), recorder)
        assert not ok and b"FAIL" in payload
        ok, _ = checks.run_item(
            {"name": "missing", "kind": "verify", "config": "nope.scn",
             "out": "nope.txt"}, str(tmp_path), recorder)
        assert not ok
    broken = {"name": "rem", "kind": "remainder", "N": 2, "s": 0.3,
              "H": [[0.0, 1.0], [0.0, 0.0]], "B": [[1.0, 0.0], [0.0, 1.0]]}
    ok, payload = checks.run_item(broken, str(tmp_path), recorder)
    assert not ok and payload.startswith(b"error")


def test_times_are_scaled_by_the_reference_chunks_during_them():
    sampler = reference.SpeedSampler()
    nominal = reference.NOMINAL_S
    # a chunk every 0.1 s: 20 at the nominal speed, then 20 at half of it
    sampler.starts = [0.1 * i for i in range(40)]
    sampler.seconds = [nominal] * 20 + [2 * nominal] * 20
    # a long stretch: its own chunks, and their time is not the program's
    assert sampler.program_seconds(0.0, 2.0) == pytest.approx(2.0 - 20 * nominal)
    assert sampler.scaled(0.0, 2.0) == pytest.approx(2.0 - 20 * nominal)
    assert sampler.factor(2.0, 4.0) == pytest.approx(0.5)
    assert sampler.factor(1.0, 3.0) == pytest.approx(2 / 3)
    # a short stretch: the MIN_SAMPLES chunks nearest to it
    assert sampler.program_seconds(0.51, 0.59) == pytest.approx(0.08)
    assert sampler.factor(0.51, 0.59) == pytest.approx(1.0)
    assert sampler.factor(3.91, 3.99) == pytest.approx(0.5)
    # a preempted chunk counts as CAP times the nominal at most
    sampler.seconds[5] = 1000 * nominal
    assert sampler.factor(0.0, 2.0) == pytest.approx(
        20 / (19 + reference.CAP))


def test_sampler_runs_during_a_pass_and_restores_the_handler(tmp_path):
    item, directory = _small(tmp_path)[0]   # suite all at n=4
    before = signal.getsignal(signal.SIGALRM)
    with checks.EmitRecorder() as recorder, \
            reference.SpeedSampler() as sampler:
        result = worker.run_pass([item], directory, recorder)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert result["ok"] == [True]
    span = result["spans"][0]
    assert len(sampler.seconds) >= 2
    assert 0 < sampler.program_seconds(*span) < span[1] - span[0]
    assert sampler.scaled(*span) > 0


def test_setup_child_prints_measured_and_scaled_seconds(tmp_path):
    manifest = workloads.write_inputs("sweep-default", 1, str(tmp_path))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(workloads.__file__),
                                      "setup_child.py"),
         workloads.first_scenario(manifest)],
        env=env, capture_output=True, text=True, check=True).stdout
    measured, scaled = (float(x) for x in out.split())
    assert 0 < measured < 60 and 0 < scaled < 60

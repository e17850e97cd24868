"""Tests of the benchmark's own checks and tracer.

Each check must accept one real round of its workload and reject a
deliberately wrong copy of it. Run from the repository root:

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 5


def run_once(workload):
    return {label: call() for label, call in workload.ops}


@pytest.fixture(scope="module")
def dme():
    workload = workloads.dme(SEED)
    return workload, run_once(workload)


@pytest.fixture(scope="module")
def exact():
    workload = workloads.scalar_exact(SEED)
    workload.ops = workload.ops[:20]
    return workload, run_once(workload)


@pytest.fixture(scope="module")
def tasks():
    workload = workloads.tasks(SEED)
    return workload, run_once(workload)


def altered(outputs, label, **changes):
    out = dict(outputs)
    out[label] = dataclasses.replace(out[label], **changes)
    return out


def test_dme_check_accepts_a_real_round(dme):
    workload, outputs = dme
    assert workload.check(outputs) == []


@pytest.mark.parametrize(
    "label, field, factor, expect",
    [
        ("0/correlated-klevel", "mse", 1.01, "bias_sq + variance"),
        ("0/hadamard-cq", "mean_variance", 0.99, "bias_sq + variance"),
        ("0/independent", "bias_sq", 3.0, "fails the gate"),
        ("0/hadamard-cq", "bias_sq", 3.0, "hadamard-cq: bias_sq"),
        ("0/correlated-1bit", "bits_per_client", 2.0, "bits, want"),
        ("0/terngrad", "bits_per_client", 1.0 - 64 / 2328, "bits, want"),
        ("0/entropy-cq", "bits_per_client", 0.5, "outside"),
    ],
)
def test_dme_check_rejects_a_wrong_report(dme, label, field, factor, expect):
    workload, outputs = dme
    value = getattr(outputs[label], field) * factor
    problems = workload.check(altered(outputs, label, **{field: value}))
    assert any(expect in p for p in problems), problems


def test_dme_check_rejects_broken_promises(dme):
    workload, outputs = dme
    klevel = outputs["0/correlated-klevel"]
    wrong_entropy = altered(outputs, "0/entropy-cq", mse=klevel.mse * (1 + 1e-12))
    assert workload.check(wrong_entropy) == [
        "seed set 0: entropy-cq: mse differs from correlated-klevel's"
    ]

    above = altered(outputs, "0/correlated-klevel", mse=1e9, bias_sq=0.0, mean_variance=1e9)
    assert any("above ceiling" in p for p in workload.check(above))

    swapped = altered(outputs, "2/independent", mse=klevel.mse / 2, bias_sq=0.0,
                      mean_variance=klevel.mse / 2)
    assert "seed set 2: correlated-klevel does not beat independent" in workload.check(swapped)


def test_exact_check(exact):
    workload, outputs = exact
    assert workload.check(outputs) == []
    label = next(iter(outputs))
    assert workload.check(altered(outputs, label, mse=1e-30))
    assert workload.check(altered(outputs, label, bits_per_client=218.0))


def test_tasks_check(tasks):
    workload, outputs = tasks
    assert workload.check(outputs) == []
    sgd, fedavg = outputs["1/sgd"], outputs["1/fedavg"]
    wrong = [
        altered(outputs, "0/kmeans-correlated",
                bits_per_round=(17841.0,) * workloads.KMEANS_ROUNDS),
        altered(outputs, "2/power", metrics=(float("nan"),) * workloads.POWER_ROUNDS),
        altered(outputs, "1/fedavg", metrics=fedavg.metrics[:-1] + (0.1,)),
        altered(outputs, "1/sgd", metrics=sgd.metrics[:-1] + (10.0,)),
    ]
    for case in wrong:
        assert workload.check(case), case


def test_wire_layout_arithmetic():
    assert checks.fixed_message_bits("correlated-1bit", 1, 2) == 217
    assert checks.fixed_message_bits("hadamard-cq", 1000, 16) == 216 + 1024 * 4
    assert checks.fixed_message_bits("rotate-sign", 1000, 16) == 216 + 1024 + 64
    assert checks.fixed_message_bits("terngrad", 1024, 16) == 216 + 2048 + 64


def test_tracer_counts_and_restores():
    import corrq
    from corrq import harness

    original = harness.build_context_arrays
    batch = corrq.generate(corrq.SyntheticSpec("uniform-mean", n=8, d=16), 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        corrq.run_dme(batch, "correlated-klevel", 30, 2, k=4, bit_trials=3)
    finally:
        tracer.uninstall()
    assert harness.build_context_arrays is original
    got = tracer.layer_metrics()
    assert got["harness.audited_messages"] == got["bitcodec.messages"] == 3 * 8
    assert got["randomness.context_elems"] == 30 * 16 * 8
    assert got["harness.trial_clients"] == 30 * 8
    layer_total = sum(v for k, v in got.items() if k.endswith("_s") and k != "harness.run_dme_s")
    assert layer_total == pytest.approx(got["harness.run_dme_s"], rel=1e-9)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == tracing.METRICS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.BUILDERS)

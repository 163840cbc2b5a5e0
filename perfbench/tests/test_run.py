"""Aggregation of generation results into the reported metrics."""

import pytest

from perfbench import run


def generation(**overrides):
    result = {"ops": 1000, "cpu_s": 2.0, "wall_s": 2.1, "setup_s": 1.0,
              "peak_rss_mib": 100.0, "host_ref_s": run.HOST_REF_S}
    result.update(overrides)
    return result


def test_host_normalisation_cancels_a_uniform_slowdown():
    usual = [generation(), generation(ops=1200, cpu_s=2.4, wall_s=2.5)]
    slow = [dict(r, cpu_s=r["cpu_s"] * 1.5, wall_s=r["wall_s"] * 1.5,
                 setup_s=r["setup_s"] * 1.5,
                 host_ref_s=r["host_ref_s"] * 1.5) for r in usual]
    expected = run.end_to_end(usual)
    assert run.host_slowdown(usual) == pytest.approx(1.0)
    assert run.host_slowdown(slow) == pytest.approx(1.5)
    for name, metric in run.end_to_end(slow).items():
        assert metric["value"] == pytest.approx(expected[name]["value"])
    assert run.raw_end_to_end(slow)["ops_per_s"] == pytest.approx(
        expected["ops_per_s"]["value"] / 1.5)


def test_a_slower_program_still_reads_slower():
    usual = [generation()]
    regressed = [generation(cpu_s=2.4, wall_s=2.5)]
    assert (run.end_to_end(regressed)["ops_per_s"]["value"]
            < run.end_to_end(usual)["ops_per_s"]["value"])


def test_generation_count_depends_on_seconds_only():
    assert run.generations("op-heavy", 35) == run.generations("op-heavy", 35)
    assert run.generations("des-nfs", 1) == 2
    assert run.population_seed(7, 0) == 7
    assert len({run.population_seed(7, k) for k in range(8)}) == 8


def test_traced_metrics_are_the_ones_benchmark_json_names():
    import json
    import os

    from perfbench.tracer import layers

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as stream:
        declared = {m["name"]: m["unit"]
                    for m in json.load(stream)["per_layer"]}
    spans = layers(("call", "iter")) + layers(("count",))
    traced = dict(generation(), region_cpu_s=2.0, traced_s=2.0,
                  unattributed_s=0.1, facts={},
                  self_s={layer: 0.1 for layer in spans},
                  calls={layer: 1 for layer in spans})
    plain = dict(generation(), region_cpu_s=1.9, facts={})
    reported = {name: metric["unit"]
                for name, metric in run.per_layer([plain], [traced]).items()}
    # run.main adds these two next to the per-layer figures.
    reported.update({"error_rate": "fraction", "host.ref_s": "s"})
    assert reported == declared


def test_every_workload_pins_every_reference_seed():
    import json

    from perfbench.workloads import REFERENCE_SEEDS, WORKLOADS

    with open(run.REFERENCE) as stream:
        pinned = json.load(stream)["workloads"]
    assert set(pinned) == set(WORKLOADS)
    for name in WORKLOADS:
        assert set(pinned[name]) == {str(seed) for seed in REFERENCE_SEEDS}

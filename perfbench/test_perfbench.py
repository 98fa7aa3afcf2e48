"""Tests of the benchmark's own machinery: tracing, probe scaling, checks."""

import json
import sys

import fppkit.cli  # noqa: F401  (loads every fppkit module)

from perfbench import run
from perfbench.probe import PROBE_REF, Probe
from perfbench.tracing import METHODS, Tracer
from perfbench.workloads import WORKLOADS, DeficiencyStrip


def _bindings():
    mods = {k: m for k, m in sys.modules.items() if k == "fppkit" or k.startswith("fppkit.")}
    out = {(k, attr): v for k, m in mods.items() for attr, v in vars(m).items() if callable(v)}
    graph_cls = sys.modules["fppkit.geodesics"].RegionGraph
    out.update({("RegionGraph", attr): graph_cls.__dict__[attr] for attr, _ in METHODS})
    return out


def test_traced_output_equals_untraced_and_wrappers_are_removed(tmp_path):
    before = _bindings()
    wl = DeficiencyStrip(tmp_path)
    wl.setup()
    plain = wl.run(7).files
    tracer = Tracer()
    with tracer.installed(), tracer.span("op"):
        for mod in ("fppkit.geodesics", "fppkit.experiments", "fppkit.renormalization"):
            assert sys.modules[mod].dijkstra is not before[(mod, "dijkstra")]
        traced = wl.run(7).files
    assert traced == plain
    assert Tracer.leftover_wrappers() == []
    after = _bindings()
    assert all(after[key] is fn for key, fn in before.items())
    totals = tracer.layer_totals({"op"})
    assert totals["geodesics.dijkstra"][0] > 0 and totals["config.write_csv"][0] == 1
    assert tracer.counts["patterns.condition_holds.calls"] > 0


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [["op", 0.0, 10.0, -1], ["a", 1.0, 5.0, 0], ["b", 2.0, 3.0, 1], ["b", 6.0, 7.0, 0]]
    totals = tracer.layer_totals({"op"})
    assert totals == {"a": (1, 3.0), "b": (2, 2.0)}


def test_probe_scales_by_reference_over_local_mean():
    probe = Probe()
    probe.samples = [(0.0, 2 * PROBE_REF), (1.0, 2 * PROBE_REF), (2.0, 2 * PROBE_REF), (100.0, PROBE_REF)]
    assert abs(probe.adjust(0.5, 1.5) - 0.5) < 1e-12  # machine at half speed near t=1


def test_deficiency_check_rejects_a_wrong_minimum(tmp_path):
    wl = DeficiencyStrip(tmp_path)
    wl.setup()
    wl.prepare_check()
    out = wl.run(3)
    assert wl.check(3, out) == []
    lines = out.files.decode().splitlines()
    header = lines[1].split(",")
    col = header.index("min_count")
    row = lines[2].split(",")
    row[col] = str(int(row[col]) + 1)
    out.files = "\n".join(lines[:2] + [",".join(row)] + lines[3:]).encode()
    assert wl.check(3, out)


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    probe = Probe()
    probe.samples = [(0.5, PROBE_REF)]
    fake = run.Run(None, 1.0, 1, probe)
    fake.ops = fake.traced_ops = fake.setups = [(0.0, 1.0)]
    for kind, metrics in (("end_to_end", run.end_to_end(fake, [(0.0, 1.0, 1.0)])),
                          ("per_layer", run.per_layer(fake, Tracer()))):
        assert {n: v["unit"] for n, v in metrics.items()} == {m["name"]: m["unit"] for m in spec[kind]}

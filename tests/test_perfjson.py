"""Unit tests for the kernel benchmark recorder/checker."""

import json

import pytest

from repro.harness import perfjson


def _fake_doc(delay: float, timeout: float,
              probe_ns: float = 50.0) -> dict:
    return {
        "schema": perfjson.SCHEMA,
        "kernel": {
            "delay_events_per_s": delay,
            "timeout_events_per_s": timeout,
        },
        "obs": {
            "null_probe_ns": probe_ns,
            "null_probe_fields_ns": probe_ns,
            "ceiling_ns": perfjson.OBS_PROBE_NS_CEILING,
        },
        "reference_s": {
            "kernel.delay_events_per_s": 0.01,
            "kernel.timeout_events_per_s": 0.01,
            "trainer.iterations_per_s": 0.01,
        },
    }


@pytest.fixture
def measured(monkeypatch):
    """Pin collect() so check() compares against known numbers."""

    def _pin(delay, timeout, probe_ns=50.0):
        monkeypatch.setattr(
            perfjson, "collect",
            lambda quick=False: _fake_doc(delay, timeout, probe_ns),
        )

    return _pin


def test_check_passes_within_tolerance(tmp_path, measured, capsys):
    committed = tmp_path / "bench.json"
    committed.write_text(json.dumps(_fake_doc(1_000_000, 1_000_000)))
    measured(750_000, 900_000)  # -25% and -10%: inside the 30% budget
    assert perfjson.check(committed) == 0
    assert "PASS" in capsys.readouterr().out


def test_check_fails_on_regression(tmp_path, measured, capsys):
    committed = tmp_path / "bench.json"
    committed.write_text(json.dumps(_fake_doc(1_000_000, 1_000_000)))
    measured(500_000, 1_000_000)  # delay path halved: regression
    assert perfjson.check(committed) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out
    assert "delay_events_per_s" in out


def test_check_improvement_always_passes(tmp_path, measured):
    committed = tmp_path / "bench.json"
    committed.write_text(json.dumps(_fake_doc(1_000_000, 1_000_000)))
    measured(3_000_000, 2_000_000)
    assert perfjson.check(committed) == 0


def test_check_fails_on_obs_probe_over_ceiling(tmp_path, measured, capsys):
    """The obs overhead check is an absolute ceiling, not a ratio."""
    committed = tmp_path / "bench.json"
    committed.write_text(json.dumps(_fake_doc(1_000_000, 1_000_000)))
    measured(1_000_000, 1_000_000,
             probe_ns=perfjson.OBS_PROBE_NS_CEILING * 10)
    assert perfjson.check(committed) == 1
    assert "obs.null_probe_ns" in capsys.readouterr().out


def test_check_guards_trainer_entry(tmp_path, monkeypatch, capsys):
    """A committed trainer.iterations_per_s is regression-checked too."""
    committed_doc = _fake_doc(1_000_000, 1_000_000)
    committed_doc["trainer"] = {"iterations_per_s": 300_000}
    committed = tmp_path / "bench.json"
    committed.write_text(json.dumps(committed_doc))
    measured_doc = _fake_doc(1_000_000, 1_000_000)
    measured_doc["trainer"] = {"iterations_per_s": 100_000}  # -67%
    monkeypatch.setattr(perfjson, "collect",
                        lambda quick=False: measured_doc)
    assert perfjson.check(committed) == 1
    assert "trainer.iterations_per_s" in capsys.readouterr().out


def _pin_doc(monkeypatch, doc):
    monkeypatch.setattr(perfjson, "collect", lambda quick=False: doc)


def _with_reference(doc: dict, reference_s: float) -> dict:
    doc["reference_s"] = {"kernel.delay_events_per_s": reference_s,
                          "kernel.timeout_events_per_s": reference_s}
    return doc


def test_check_fails_without_committed_reference(tmp_path, monkeypatch,
                                                 capsys):
    """A committed rate without its reference time cannot be compared."""
    doc = _fake_doc(1_000_000, 1_000_000)
    del doc["reference_s"]["kernel.delay_events_per_s"]
    committed = tmp_path / "bench.json"
    committed.write_text(json.dumps(doc))
    _pin_doc(monkeypatch, _fake_doc(1_000_000, 1_000_000))
    assert perfjson.check(committed) == 1
    assert "without a reference time" in capsys.readouterr().out


def test_check_normalises_by_reference_time(tmp_path, monkeypatch, capsys):
    """A host half as fast halves the rates and doubles the reference
    loop's time: that is no regression."""
    committed = tmp_path / "bench.json"
    committed.write_text(json.dumps(
        _with_reference(_fake_doc(1_000_000, 1_000_000), 0.01)))
    _pin_doc(monkeypatch, _with_reference(_fake_doc(500_000, 500_000), 0.02))
    assert perfjson.check(committed) == 0
    assert "normalised" in capsys.readouterr().out


def test_check_fails_on_normalised_regression(tmp_path, monkeypatch, capsys):
    """At the same reference time, a 35% slower delay path fails."""
    committed = tmp_path / "bench.json"
    committed.write_text(json.dumps(
        _with_reference(_fake_doc(1_000_000, 1_000_000), 0.01)))
    _pin_doc(monkeypatch,
             _with_reference(_fake_doc(650_000, 1_000_000), 0.01))
    assert perfjson.check(committed) == 1
    assert "delay_events_per_s" in capsys.readouterr().out


def test_check_fails_when_a_faster_host_hides_a_regression(tmp_path,
                                                           monkeypatch):
    """The raw rate holds on a host twice as fast, but normalised it
    halved."""
    committed = tmp_path / "bench.json"
    committed.write_text(json.dumps(
        _with_reference(_fake_doc(1_000_000, 1_000_000), 0.02)))
    _pin_doc(monkeypatch,
             _with_reference(_fake_doc(1_000_000, 2_000_000), 0.01))
    assert perfjson.check(committed) == 1


def test_collect_records_reference_for_every_ratio_gate(stub_benches):
    doc = perfjson.collect(quick=True)
    assert set(doc["reference_s"]) == {
        "kernel.delay_events_per_s", "kernel.timeout_events_per_s",
        "macro.sim_seconds_per_cpu_s", "trainer.iterations_per_s",
        "flowsim.simulated_bytes_per_cpu_s", "flowsim.solver_flows_per_s",
        "nf.chain_packets_per_s", "traffic.flows_generated_per_s",
    }
    assert all(ref > 0 for ref in doc["reference_s"].values())


def test_collect_quick_schema():
    doc = perfjson.collect(quick=True)
    assert doc["schema"] == perfjson.SCHEMA
    assert doc["kernel"]["delay_events_per_s"] > 0
    assert doc["kernel"]["timeout_events_per_s"] > 0
    assert doc["macro"]["packets_per_s"] > 0
    assert doc["trainer"]["iterations_per_s"] > 0
    assert doc["fig15_sweep"]["scheduled_events"] > 0
    assert 0 < doc["obs"]["null_probe_ns"]
    assert doc["obs"]["ceiling_ns"] == perfjson.OBS_PROBE_NS_CEILING
    assert set(doc["seed_baseline"]) == {
        "delay_events_per_s", "timeout_events_per_s", "fig15_cpu_s",
    }


class _Ones(dict):
    """A bench result whose every figure is 1.0."""

    def __missing__(self, key):
        return 1.0


#: Benches that return a dict of figures; every other bench returns
#: ``(figure, reference seconds)``.
_DICT_BENCHES = {"bench_packet_path", "bench_figure_sweep", "bench_flowsim",
                 "bench_obs_overhead", "bench_flowsim_scale"}


@pytest.fixture
def stub_benches(monkeypatch):
    """Replace every bench with an instant stub; returns name -> kwargs."""
    calls = {}
    for name in perfjson.__all__:
        if not name.startswith("bench_"):
            continue

        def stub(*args, _name=name, **kwargs):
            calls[_name] = kwargs
            return _Ones() if _name in _DICT_BENCHES else (1.0, 1.0)

        monkeypatch.setattr(perfjson, name, stub)
    return calls


@pytest.mark.parametrize("kwargs, scaled", [
    ({"quick": True}, False),
    ({}, False),
    ({"quick": True, "scale": False}, False),
    ({"scale": True}, True),
])
def test_collect_runs_scale_point_only_on_request(stub_benches, kwargs,
                                                  scaled):
    doc = perfjson.collect(**kwargs)
    assert ("bench_flowsim_scale" in stub_benches) is scaled
    assert ("flowsim_scale" in doc) is scaled


def test_collect_quick_shrinks_kernel_sizing(stub_benches):
    perfjson.collect(quick=True)
    assert stub_benches["bench_delay_path"]["events"] == 50_000
    perfjson.collect()
    assert stub_benches["bench_delay_path"]["events"] == 200_000


def test_main_writes_json(tmp_path, monkeypatch):
    out = tmp_path / "bench.json"
    monkeypatch.setattr(
        perfjson, "collect",
        lambda quick=False, scale=False: _fake_doc(2_000_000, 1_000_000),
    )
    assert perfjson.main(["--output", str(out), "--quick"]) == 0
    doc = json.loads(out.read_text())
    assert doc["kernel"]["delay_events_per_s"] == 2_000_000

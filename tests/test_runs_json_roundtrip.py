"""Satellite guarantee: every ExperimentReport.data survives JSON.

The run store persists ``ExperimentReport.data`` through
``json.dumps``/``json.loads``; a Fraction, a set, or a tuple-keyed dict
anywhere in an experiment's payload would silently corrupt (or refuse)
the stored record.  This module runs *every* registered experiment with
its declared smoke parameters and asserts the payload is losslessly
JSON-serialisable — with ``ensure_json_data`` (the store's guard) and
directly.
"""

import json

import pytest

from repro.experiments import all_experiments, get_experiment
from repro.runs import ensure_json_data

EXACT_CAPABLE = ["L33", "L34", "L35"]


def _experiment_ids():
    """All registered ids, as pytest params for per-experiment reporting."""
    return [exp.experiment_id for exp in all_experiments()]


def _run_smoke(experiment_id: str, **extra):
    """Run one experiment with its declared smoke overrides."""
    exp = get_experiment(experiment_id)
    return exp.run(**dict(exp.spec.smoke), **extra)


@pytest.mark.parametrize("experiment_id", _experiment_ids())
def test_data_roundtrips_losslessly(experiment_id):
    report = _run_smoke(experiment_id)
    # The report carries its registration's id and title.
    assert report.experiment_id == experiment_id
    assert report.title == get_experiment(experiment_id).title
    data = ensure_json_data(report.data, experiment_id)
    assert data == json.loads(json.dumps(data))
    assert json.loads(json.dumps(report.data)) == data


@pytest.mark.parametrize("experiment_id", EXACT_CAPABLE)
def test_exact_mode_data_roundtrips(experiment_id):
    report = _run_smoke(experiment_id, exact=True)
    data = ensure_json_data(report.data, experiment_id)
    assert data == json.loads(json.dumps(data))


def test_every_experiment_declares_smoke_params():
    """Smoke overrides exist wherever defaults are slow (sanity floor)."""
    for exp in all_experiments():
        assert isinstance(exp.spec.smoke, dict), exp.experiment_id

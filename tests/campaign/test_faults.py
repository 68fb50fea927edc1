"""Tests for fault-mutation campaigns (predicted violations)."""

import pytest

from repro import FaultMutationCampaign, run_monitor, tr, tr_compiled
from repro.campaign.directed import StimulusSynthesizer
from repro.cesc.builder import ev, scesc
from repro.errors import CampaignError
from repro.monitor.automaton import Monitor, Transition
from repro.logic.expr import TRUE
from repro.protocols.amba.charts import ahb_transaction_chart
from repro.protocols.ocp import ocp_burst_read_chart, ocp_simple_read_chart


@pytest.mark.parametrize("chart_builder", [
    ocp_simple_read_chart, ocp_burst_read_chart, ahb_transaction_chart,
])
def test_targeted_trials_kill_the_detection(chart_builder):
    campaign = FaultMutationCampaign(tr_compiled(chart_builder()), seed=1)
    trials = campaign.build(random_mutations=0)
    # One targeted derailment per tick of the scenario spine.
    assert len(trials) == campaign.base.trace.length
    for trial in trials:
        assert trial.kind == "targeted"
        # Derailing any spine tick of the shortest accepting run must
        # lose the detection at its predicted tick.
        assert trial.killed
        assert (trial.baseline_detections[-1]
                not in trial.predicted_detections)


def test_run_confirms_every_prediction():
    campaign = FaultMutationCampaign(tr_compiled(ocp_simple_read_chart()),
                                     seed=3)
    report = campaign.run(random_mutations=12)
    assert report.ok, report.mismatches
    assert report.n_trials >= campaign.base.trace.length
    assert report.n_killed >= campaign.base.trace.length
    assert 0.0 < report.kill_rate <= 1.0
    document = report.to_json()
    assert document["mismatches"] == []
    assert document["trials"] == report.n_trials


def test_predictions_come_from_reference_replay():
    monitor = tr(ocp_simple_read_chart())
    campaign = FaultMutationCampaign(monitor, seed=2)
    for trial in campaign.build(random_mutations=6):
        assert (run_monitor(monitor, trial.trace).detections
                == list(trial.predicted_detections))


def test_interpreted_and_compiled_campaigns_agree_on_targeted_kills():
    chart = ocp_simple_read_chart()
    interpreted = FaultMutationCampaign(tr(chart), seed=4)
    compiled = FaultMutationCampaign(tr_compiled(chart), seed=4)
    killed_i = [t.killed for t in interpreted.build(random_mutations=0)]
    killed_c = [t.killed for t in compiled.build(random_mutations=0)]
    assert killed_i == killed_c == [True, True]


def test_shared_synthesizer_is_reused():
    monitor = tr_compiled(ocp_simple_read_chart())
    synthesizer = StimulusSynthesizer(monitor)
    campaign = FaultMutationCampaign(monitor, synthesizer=synthesizer)
    assert campaign.run(random_mutations=0).ok


def test_monitor_without_accepting_trace_is_an_error():
    dead = Monitor(
        "dead", n_states=2, initial=0, final=1,
        transitions=[Transition(0, TRUE, (), 0),
                     Transition(1, TRUE, (), 1)],
        alphabet={"a"},
    )
    with pytest.raises(CampaignError, match="no accepting"):
        FaultMutationCampaign(dead).build()


def test_trial_repr_mentions_kill_state():
    campaign = FaultMutationCampaign(tr_compiled(ocp_simple_read_chart()))
    trial = campaign.build(random_mutations=0)[0]
    assert "killed=True" in repr(trial)

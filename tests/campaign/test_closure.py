"""Tests for the coverage-closure campaign loop."""

import json

import pytest

from repro import CoverageCampaign, tr, tr_compiled
from repro.cesc.builder import ev, scesc
from repro.cesc.charts import Seq, ScescChart
from repro.errors import CampaignError
from repro.protocols.amba.charts import ahb_transaction_chart
from repro.protocols.ocp import ocp_burst_read_chart, ocp_simple_read_chart
from repro.trace.vcd_reader import VcdReader


# The acceptance bar: full state and transition closure on the
# protocol fixture charts, within a bounded budget.
@pytest.mark.parametrize("chart_builder", [
    ocp_simple_read_chart, ocp_burst_read_chart, ahb_transaction_chart,
])
def test_campaign_reaches_full_closure_within_budget(chart_builder):
    campaign = CoverageCampaign(chart_builder(), seed=3)
    report = campaign.run(budget=128)
    assert report.reached
    assert report.state_coverage == 1.0
    assert report.transition_coverage == 1.0
    assert report.traces_executed <= 128
    # Directed generation had to contribute: random seeding alone does
    # not close these charts at this budget (that is the point).
    assert report.directed_traces > 0
    # Everything not covered was proven unreachable, not forgotten.
    assert report.coverage.uncovered_transitions() == []
    assert report.coverage.uncovered_states() == []


def test_campaign_over_dense_interpreted_monitor():
    chart = ocp_simple_read_chart()
    campaign = CoverageCampaign(chart, monitor=tr(chart), seed=1)
    report = campaign.run(budget=256, directed_per_round=48)
    assert report.reached
    # The dense automaton carries one edge per minterm; closure needs
    # most of them driven directly.
    assert report.directed_traces > 50


def test_budget_exhaustion_reports_open_targets():
    campaign = CoverageCampaign(ahb_transaction_chart(), seed=0)
    report = campaign.run(budget=3, seed_traces=3)
    assert not report.reached
    assert report.traces_executed <= 3
    assert (report.coverage.uncovered_transitions()
            or report.coverage.uncovered_states())
    document = report.to_json()
    assert document["reached"] is False
    assert document["uncovered_transition_count"] > 0


def test_zero_seed_traces_goes_straight_to_directed():
    campaign = CoverageCampaign(ocp_simple_read_chart(), seed=0)
    report = campaign.run(budget=64, seed_traces=0)
    assert report.reached
    assert all(entry.kind != "seed" for entry in report.corpus)


def test_campaign_accepts_bare_monitor_without_chart():
    monitor = tr_compiled(ocp_simple_read_chart())
    report = CoverageCampaign(monitor, seed=5).run(budget=64)
    assert report.reached
    assert report.transition_coverage == 1.0


def test_corpus_round_trips_through_vcd_export(tmp_path):
    campaign = CoverageCampaign(ocp_simple_read_chart(), seed=2)
    report = campaign.run(budget=64)
    paths = report.export_vcd(tmp_path)
    exported = [e for e in report.corpus if e.trace.length > 0]
    assert len(paths) == len(exported)
    for path, entry in zip(paths, exported):
        with VcdReader(path) as reader:
            recovered = list(reader.valuations(clock="clk"))
        assert len(recovered) == entry.trace.length
        for read_back, original in zip(recovered, entry.trace):
            assert read_back.true == original.true


def test_report_json_is_serialisable_and_complete():
    report = CoverageCampaign(ocp_simple_read_chart(), seed=4).run(budget=64)
    document = json.loads(json.dumps(report.to_json()))
    assert document["monitor"] == "ocp_simple_read"
    assert document["reached"] is True
    assert document["state_coverage"] == 1.0
    assert document["traces_executed"] == len(document["corpus"])
    assert {entry["kind"] for entry in document["corpus"]} >= {"seed"}


def test_lower_targets_stop_earlier():
    campaign = CoverageCampaign(ahb_transaction_chart(), seed=0)
    report = campaign.run(
        target_state_coverage=0.5, target_transition_coverage=0.0,
        budget=64, seed_traces=2,
    )
    assert report.reached
    assert report.state_coverage >= 0.5


def test_campaign_rejects_bad_inputs():
    chart = ocp_simple_read_chart()
    with pytest.raises(CampaignError, match="budget"):
        CoverageCampaign(chart).run(budget=0)
    composite = Seq(
        [ScescChart(chart), ScescChart(ocp_burst_read_chart())]
    )
    with pytest.raises(CampaignError, match="composite"):
        CoverageCampaign(composite)
    with pytest.raises(CampaignError, match="chart"):
        CoverageCampaign(tr_compiled(chart), monitor=tr(chart))


def test_truncated_search_fails_closure_honestly():
    """With the reachability search cut short, nothing is excluded and
    the campaign must report the miss (never a fake 100%)."""
    campaign = CoverageCampaign(ocp_burst_read_chart(), seed=0, max_depth=2)
    report = campaign.run(budget=16, seed_traces=4)
    assert not report.exploration_exhaustive
    assert not report.reached
    assert report.coverage.excluded_transitions == []
    assert report.to_json()["exploration_exhaustive"] is False


def test_directed_predictions_are_cross_checked_against_execution():
    """The loop executes directed traces through the batch backend and
    verifies the predicted detection ticks — so a closure run doubles
    as a differential test.  A chart with scoreboard causality keeps
    the check non-trivial."""
    chart = (
        scesc("causal").instances("M", "S")
        .tick(ev("req")).tick(ev("gnt")).tick(ev("done"))
        .arrow("served", cause="req", effect="done")
        .build()
    )
    report = CoverageCampaign(chart, seed=6).run(budget=96)
    assert report.reached
    directed = [e for e in report.corpus if e.kind != "seed"]
    assert directed

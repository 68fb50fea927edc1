"""Differential lockdown of directed traces: five paths, one verdict.

Every trace the campaign engine labels accepting/violating (plus a
witness for every reachable edge) is executed through all five
execution paths —

1. the interpreted engine (``run_monitor``, the reference semantics),
2. the compiled table engine (``run_compiled``),
3. the streaming checker (``StreamingChecker.feed``),
4. the planned batch runner (native with a C compiler, else the
   compiled lock-step loop),
5. the generated standalone Python checker (``monitor_to_python``) —

and each must report detections at exactly the ticks the synthesizer
*predicted* when it walked the automaton.  Families cover AMBA, both
OCP charts and randomly generated CESC charts, mirroring the fuzz
suite's family structure for the directed corpus.
"""

import random

import pytest

from repro import (
    StreamingChecker,
    run_monitor,
    run_compiled,
    tr,
)
from repro.campaign.directed import StimulusSynthesizer
from repro.cesc.builder import ev, scesc
from repro.codegen.python_gen import monitor_to_python
from repro.protocols.amba.charts import ahb_transaction_chart
from repro.protocols.ocp import ocp_burst_read_chart, ocp_simple_read_chart
from repro.runtime.compiled import compile_monitor
from repro.synthesis.symbolic import symbolic_monitor

#: Directed witnesses per family are capped to keep the suite fast;
#: the cap is far above the edge counts of these monitors, so in
#: practice every reachable edge is differentially executed.
MAX_EDGES_PER_FAMILY = 32


def _random_chart(seed: int):
    """A random (valid) SCESC: fresh events per tick, causal arrows."""
    rng = random.Random(seed)
    n_ticks = rng.randint(2, 4)
    builder = scesc(f"dfuzz_{seed}").instances("A", "B")
    events_by_tick = []
    for tick in range(n_ticks):
        names = [f"e{tick}_{i}" for i in range(rng.randint(1, 2))]
        events_by_tick.append(names)
        builder = builder.tick(*[ev(name) for name in names])
    for arrow in range(rng.randint(0, 2)):
        cause_tick = rng.randrange(n_ticks - 1)
        effect_tick = rng.randrange(cause_tick + 1, n_ticks)
        builder = builder.arrow(
            f"arr{arrow}",
            cause=rng.choice(events_by_tick[cause_tick]),
            effect=rng.choice(events_by_tick[effect_tick]),
        )
    return builder.build()


def _symbolic(chart):
    """Compressed-guard monitor: tractable for the dense AMBA chart."""
    return symbolic_monitor(tr(chart), name=tr(chart).name)


FAMILIES = {
    "ocp_simple": lambda: tr(ocp_simple_read_chart()),
    "ocp_burst": lambda: _symbolic(ocp_burst_read_chart()),
    "amba_ahb": lambda: _symbolic(ahb_transaction_chart()),
    "random_a": lambda: tr(_random_chart(11)),
    "random_b": lambda: tr(_random_chart(57)),
    "random_c": lambda: tr(_random_chart(303)),
}


class _Family:
    def __init__(self, name):
        self.monitor = FAMILIES[name]()
        self.compiled = compile_monitor(self.monitor)
        namespace = {}
        exec(monitor_to_python(self.monitor, class_name="Generated"),
             namespace)
        self.generated_class = namespace["Generated"]
        synthesizer = StimulusSynthesizer(self.monitor)
        self.directed = [synthesizer.accepting_trace(),
                         synthesizer.violating_trace()]
        edges = sorted(
            synthesizer.reachable_transitions(),
            key=lambda t: (t.source, t.target, repr(t.guard)),
        )[:MAX_EDGES_PER_FAMILY]
        self.directed.extend(
            synthesizer.trace_through(transition) for transition in edges
        )
        self.directed = [d for d in self.directed if d is not None]


_CACHE = {}


def _family(name) -> _Family:
    if name not in _CACHE:
        _CACHE[name] = _Family(name)
    return _CACHE[name]


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_directed_corpus_is_nonempty_and_mixed(name):
    family = _family(name)
    kinds = {d.kind for d in family.directed}
    assert "accepting" in kinds
    assert "transition" in kinds


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_five_paths_agree_with_predictions(name):
    family = _family(name)
    for directed in family.directed:
        predicted = list(directed.predicted_detections)
        trace = directed.trace

        interpreted = run_monitor(family.monitor, trace)
        assert interpreted.detections == predicted, directed.label

        compiled = run_compiled(family.compiled, trace)
        assert compiled.detections == predicted, directed.label
        assert compiled.ticks == interpreted.ticks

        stream = StreamingChecker(
            family.compiled, stop_on_detection=False
        ).feed(trace)
        assert stream.detections == predicted, directed.label

        generated = family.generated_class().feed(
            [valuation.true for valuation in trace]
        )
        assert generated.detections == predicted, directed.label


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_batch_path_agrees_on_the_directed_batch(name, diff_harness):
    family = _family(name)
    traces = [d.trace for d in family.directed]
    results = diff_harness.planned_batch(family.compiled, traces)
    for directed, result in zip(family.directed, results):
        assert (list(result.detections)
                == list(directed.predicted_detections)), directed.label


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_violating_traces_stay_undetected_on_every_path(name):
    """The acceptance bar's sharp edge: a trace the generator labels
    violating must be flagged (no detection) at the predicted tick by
    the reference engine and the batch backend alike."""
    family = _family(name)
    for directed in family.directed:
        if directed.kind != "violating":
            continue
        assert directed.predicted_detections == ()
        assert run_monitor(family.monitor, directed.trace).detections == []
        assert run_compiled(family.compiled, directed.trace).detections == []

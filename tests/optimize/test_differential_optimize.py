"""Differential lockdown of the optimization pipeline: five paths.

Every directed witness trace (accepting, violating, and one per
reachable edge) of every fixture family is executed through the five
execution paths —

1. the interpreted engine on the *optimized* automaton,
2. the compiled table engine on the pruned + hardened table,
3. the streaming checker over the optimized table,
4. the sharded parallel runner (real worker processes, so optimized
   tables must survive pickling),
5. the generated standalone Python checker from the optimized
   automaton —

and each must report detections at exactly the ticks the unoptimized
reference monitor produces.  Families mirror the directed differential
suite (AMBA, both OCP charts, random CESC charts) plus a widened
variant whose declared alphabet carries junk symbols, so the pruning
pass provably engages and stays tick-identical.
"""

import random

import pytest

from repro import (
    StreamingChecker,
    run_monitor,
    run_sharded,
    run_compiled,
    tr,
)
from repro.campaign.directed import StimulusSynthesizer
from repro.cesc.builder import ev, scesc
from repro.codegen.python_gen import monitor_to_python
from repro.monitor.automaton import Monitor
from repro.optimize import optimize_monitor
from repro.protocols.amba.charts import ahb_transaction_chart
from repro.protocols.ocp import ocp_burst_read_chart, ocp_simple_read_chart
from repro.synthesis.symbolic import symbolic_monitor

MAX_EDGES_PER_FAMILY = 24


def _random_chart(seed: int):
    rng = random.Random(seed)
    n_ticks = rng.randint(2, 4)
    builder = scesc(f"ofuzz_{seed}").instances("A", "B")
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
    return symbolic_monitor(tr(chart), name=tr(chart).name)


def _widened(monitor: Monitor) -> Monitor:
    """The same monitor declared over two extra never-consulted symbols
    — the alphabet-pruning motivating case."""
    return Monitor(
        monitor.name,
        n_states=monitor.n_states,
        initial=monitor.initial,
        final=monitor.final,
        transitions=monitor.transitions,
        alphabet=monitor.alphabet | {"zz_noise_a", "zz_noise_b"},
        props=monitor.props,
    )


FAMILIES = {
    "ocp_simple": lambda: tr(ocp_simple_read_chart()),
    "ocp_burst": lambda: _symbolic(ocp_burst_read_chart()),
    "amba_ahb": lambda: _symbolic(ahb_transaction_chart()),
    "ocp_simple_widened": lambda: _widened(tr(ocp_simple_read_chart())),
    "random_a": lambda: tr(_random_chart(11)),
    "random_b": lambda: tr(_random_chart(57)),
    "random_c": lambda: tr(_random_chart(303)),
}


class _Family:
    def __init__(self, name):
        self.monitor = FAMILIES[name]()
        self.result = optimize_monitor(self.monitor)
        namespace = {}
        exec(monitor_to_python(self.result.monitor, class_name="Generated"),
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
def test_optimized_tables_shrink(name):
    family = _family(name)
    stats = family.result.stats
    assert stats["optimized_cells"] <= stats["baseline_cells"]
    # Cells halve per pruned symbol, so the widened variant (two junk
    # symbols) must shrink at least 2x; the fixtures consult every
    # symbol they declare and only shrink if minimisation merges states.
    if name.endswith("_widened"):
        assert family.result.cell_reduction >= 2.0, stats


def test_pruning_engages_on_widened_alphabet():
    family = _family("ocp_simple_widened")
    assert "zz_noise_a" not in family.result.compiled.alphabet
    assert "zz_noise_b" not in family.result.compiled.alphabet
    baseline = _family("ocp_simple").result.compiled
    assert family.result.compiled.codec.size == baseline.codec.size


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_five_paths_match_the_unoptimized_reference(name):
    family = _family(name)
    optimized = family.result
    for directed in family.directed:
        trace = directed.trace
        reference = run_monitor(family.monitor, trace).detections
        assert reference == list(directed.predicted_detections), directed.label

        interpreted = run_monitor(optimized.monitor, trace)
        assert interpreted.detections == reference, directed.label

        compiled = run_compiled(optimized.compiled, trace)
        assert compiled.detections == reference, directed.label
        assert compiled.ticks == interpreted.ticks

        stream = StreamingChecker(
            optimized.compiled, stop_on_detection=False
        ).feed(trace)
        assert stream.detections == reference, directed.label

        generated = family.generated_class().feed(
            [valuation.true for valuation in trace]
        )
        assert generated.detections == reference, directed.label


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_sharded_path_matches_on_the_directed_batch(name):
    family = _family(name)
    traces = [d.trace for d in family.directed]
    results = run_sharded(family.result.compiled, traces, jobs=2,
                          oversubscribe=True)
    for directed, result in zip(family.directed, results):
        assert (list(result.detections)
                == list(directed.predicted_detections)), directed.label


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_random_traces_agree_across_optimization(name):
    """Noise traces (not just directed witnesses) agree tick-for-tick,
    including the state trajectory lengths."""
    family = _family(name)
    rng = random.Random(hash(name) & 0xFFFF)
    symbols = sorted(family.monitor.alphabet)
    from repro.semantics.run import Trace

    for _ in range(25):
        sets = [
            {s for s in symbols if rng.random() < 0.4}
            for _ in range(rng.randint(1, 14))
        ]
        trace = Trace.from_sets(sets, alphabet=symbols)
        reference = run_monitor(family.monitor, trace).detections
        assert run_monitor(family.result.monitor, trace).detections \
            == reference
        assert run_compiled(family.result.compiled, trace).detections \
            == reference

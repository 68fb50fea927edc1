"""Differential fuzzing: every execution path agrees, tick for tick.

Randomized traces (satisfying windows in noise, near-miss violations,
pure noise, and fault-injected mutations) over the AMBA/OCP/read-
protocol charts plus randomly generated CESC charts are pushed through
all five execution paths:

1. the interpreted engine (``run_monitor`` — the reference semantics),
2. the compiled table engine (``run_compiled``),
3. the streaming checker (``StreamingChecker.feed``),
4. the batch runners (``run_many``, and the planned batch runner:
   native with a C compiler),
5. the generated standalone Python checker (``monitor_to_python``),
6. the native C table-stepper (``run_many_native``, when the host has
   a C compiler).

Each must report the identical detection ticks.  Case volume is
controlled by ``REPRO_FUZZ_CASES`` (default 210, the acceptance bar is
>= 200); CI's smoke job runs a bounded-seed subset.

A second differential pins the implication-checking paths (batch
``AssertionChecker`` x {interpreted, compiled} vs the streaming
checker) to identical verdicts and violation ticks.
"""

import math
import os
import random
import zlib

import pytest

from repro import (
    AssertionChecker,
    StreamingChecker,
    Trace,
    TraceGenerator,
    run_monitor,
    run_compiled,
    tr,
    tr_compiled,
)
from repro.cesc.builder import ev, scesc
from repro.cesc.charts import Implication
from repro.codegen.python_gen import monitor_to_python
from repro.protocols.amba.charts import ahb_transaction_chart
from repro.protocols.faults import FaultCampaign
from repro.protocols.ocp import ocp_burst_read_chart, ocp_simple_read_chart
from repro.protocols.readproto import read_protocol_chart
from repro.runtime.compiled import run_many


def _random_chart(seed: int):
    """A random (valid) SCESC: fresh events per tick, causal arrows."""
    rng = random.Random(seed)
    n_ticks = rng.randint(2, 4)
    builder = scesc(f"fuzz_{seed}").instances("A", "B")
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


FAMILIES = {
    "ocp_simple": ocp_simple_read_chart,
    "ocp_burst": ocp_burst_read_chart,
    "amba_ahb": ahb_transaction_chart,
    "read_protocol": read_protocol_chart,
    "random_a": lambda: _random_chart(101),
    "random_b": lambda: _random_chart(202),
    "random_c": lambda: _random_chart(303),
}

CASES_TOTAL = int(os.environ.get("REPRO_FUZZ_CASES", "210"))
PER_FAMILY = max(1, math.ceil(CASES_TOTAL / len(FAMILIES)))


def _fuzz_traces(chart, count: int, seed: int):
    """Seeded mix of satisfying / violating / noise / mutated traces."""
    traces = []
    base = TraceGenerator(chart, seed=seed).satisfying_trace(
        prefix=1, suffix=1
    )
    campaign = FaultCampaign(
        base, sorted(chart.alphabet()), seed=seed
    )
    mutations = campaign.mutations(count)
    for index in range(count):
        generator = TraceGenerator(chart, seed=seed + 1000 + index)
        kind = index % 4
        if kind == 0:
            traces.append(generator.satisfying_trace(
                prefix=index % 3, suffix=(index // 4) % 3
            ))
        elif kind == 1:
            traces.append(generator.violating_window())
        elif kind == 2:
            traces.append(generator.random_trace(4 + index % 6))
        else:
            traces.append(mutations[index])
    return traces


class _Family:
    def __init__(self, name):
        chart = FAMILIES[name]()
        self.chart = chart
        self.monitor = tr(chart)
        self.compiled = tr_compiled(chart)
        namespace = {}
        exec(monitor_to_python(self.monitor, class_name="Generated"),
             namespace)
        self.generated_class = namespace["Generated"]
        self.traces = _fuzz_traces(
            chart, PER_FAMILY, seed=zlib.crc32(name.encode()) % 10_000
        )
        #: reference verdicts, computed once per family
        self.reference = [
            run_monitor(self.monitor, trace) for trace in self.traces
        ]


_CACHE = {}


def _family(name) -> _Family:
    if name not in _CACHE:
        _CACHE[name] = _Family(name)
    return _CACHE[name]


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_volume_meets_acceptance_bar(name):
    assert PER_FAMILY * len(FAMILIES) >= CASES_TOTAL


@pytest.mark.parametrize(
    "name,index",
    [(name, index) for name in sorted(FAMILIES) for index in range(PER_FAMILY)],
)
def test_differential_case(name, index):
    """Paths 1/2/3/5 agree on one randomized trace."""
    family = _family(name)
    trace = family.traces[index]
    reference = family.reference[index]

    compiled = run_compiled(family.compiled, trace)
    assert compiled.detections == reference.detections
    assert compiled.ticks == reference.ticks

    stream = StreamingChecker(family.compiled).feed(trace)
    assert stream.detections == reference.detections
    assert stream.ticks == reference.ticks

    generated = family.generated_class().feed(
        [valuation.true for valuation in trace]
    )
    assert generated.detections == reference.detections
    assert generated.accepted == reference.accepted


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_differential_batch_family(name, diff_harness):
    """Path 4: the batch runners agree on the whole family batch."""
    family = _family(name)
    planned = diff_harness.planned_batch(family.compiled, family.traces)
    lockstep = run_many(family.compiled, family.traces)
    assert len(planned) == len(family.traces)
    for planned_result, lock_result, reference in zip(
        planned, lockstep, family.reference
    ):
        assert planned_result.detections == reference.detections
        assert planned_result.ticks == reference.ticks
        assert lock_result.detections == reference.detections


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_differential_native_family(name):
    """Path 6: the native C kernel agrees on the whole family batch."""
    from repro.runtime.native import run_many_native, unavailable_reason

    reason = unavailable_reason()
    if reason is not None:
        pytest.skip(f"native backend unavailable: {reason}")
    family = _family(name)
    native = run_many_native(family.compiled, family.traces)
    assert len(native) == len(family.traces)
    for result, reference in zip(native, family.reference):
        assert result.detections == reference.detections
        assert result.ticks == reference.ticks
        assert result.states == reference.states


# ------------------------------------------------- implication verdicts ----
def _implication_families():
    antecedent = (
        scesc("ante").instances("M", "S")
        .tick(ev("req")).tick(ev("grant"))
        .arrow("granted", cause="req", effect="grant")
        .build()
    )
    consequent = (
        scesc("cons").instances("M", "S")
        .tick(ev("ack")).tick(ev("done"))
        .build()
    )
    return Implication(antecedent, consequent, name="fuzz_implication")


@pytest.mark.parametrize("seed", range(24))
def test_differential_implication_verdicts(seed):
    """Batch (both engines) and streaming agree on every obligation."""
    implication = _implication_families()
    alphabet = sorted(implication.alphabet())
    rng = random.Random(seed)
    sets = []
    for _ in range(rng.randint(3, 10)):
        sets.append({s for s in alphabet if rng.random() < 0.4})
    trace = Trace.from_sets(sets, alphabet)

    interpreted = AssertionChecker(implication, engine="interpreted")
    compiled = AssertionChecker(implication, engine="compiled")
    report_i = interpreted.check(trace)
    report_c = compiled.check(trace)
    stream = StreamingChecker(
        implication, stop_on_violation=False
    ).feed(trace)

    def verdict_tuple(report):
        return (
            [(o.start_tick, o.decided_tick) for o in report.violations],
            len(report.passes),
            len(report.pending),
            report.antecedent_detections,
        )

    assert verdict_tuple(report_i) == verdict_tuple(report_c)
    assert stream.violations == verdict_tuple(report_i)[0]
    assert stream.n_passes == len(report_i.passes)
    assert stream.n_pending == len(report_i.pending)
    assert stream.detections == report_i.antecedent_detections

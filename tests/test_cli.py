"""Tests for the command-line front end."""

import io
import json

import pytest

from repro.cli import main

SPEC = """
chart handshake {
  instances M, S;
  tick: M -> S : req;
  tick: S -> M : ack;
  arrow done: req -> ack;
}
chart broken {
  instances M;
  props mode;
  tick: M -> env : x when mode & !mode;
}
compose both = seq(handshake, handshake);
"""


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "spec.cesc"
    path.write_text(SPEC)
    return str(path)


def _run(argv):
    out = io.StringIO()
    status = main(argv, out=out)
    return status, out.getvalue()


def test_validate_reports_charts_and_errors(spec_file):
    status, text = _run(["validate", spec_file])
    assert status == 2  # 'broken' has an unsatisfiable guard
    assert "handshake: 2 grid lines, 1 arrows" in text
    assert "unsatisfiable" in text
    assert "both: composite (Seq)" in text


def test_validate_clean_spec(tmp_path):
    path = tmp_path / "ok.cesc"
    path.write_text("chart ok { instances A; tick: x; tick: y; }")
    status, text = _run(["validate", str(path)])
    assert status == 0
    assert "0 error(s)" in text


def test_render(spec_file):
    status, text = _run(["render", spec_file, "handshake"])
    assert status == 0
    assert "SCESC handshake" in text
    assert "req ->" in text


def test_synthesize_table(spec_file):
    status, text = _run(["synthesize", spec_file, "handshake"])
    assert status == 0
    assert "3 states" in text
    assert "Add_evt(req)" in text


def test_synthesize_formats(spec_file):
    for fmt, marker in (
        ("dot", "digraph"),
        ("verilog", "endmodule"),
        ("sva", "cover property"),
        ("psl", "vunit"),
        ("python", "class Monitor"),
    ):
        status, text = _run(["synthesize", spec_file, "handshake",
                             "--format", fmt])
        assert status == 0, fmt
        assert marker in text, fmt


def test_synthesize_dense_has_more_edges(spec_file):
    _, compact = _run(["synthesize", spec_file, "handshake"])
    _, dense = _run(["synthesize", spec_file, "handshake", "--dense"])
    assert dense.count("->") > compact.count("->")


def test_check_accepting_and_rejecting(spec_file, tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "signal": [
            {"name": "req", "wave": "010"},
            {"name": "ack", "wave": "001"},
        ]
    }))
    status, text = _run(["check", spec_file, "handshake", str(good)])
    assert status == 0
    assert "detections at [2]" in text

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "signal": [
            {"name": "req", "wave": "010"},
            {"name": "ack", "wave": "000"},
        ]
    }))
    status, text = _run(["check", spec_file, "handshake", str(bad)])
    assert status == 3


def test_unknown_chart_is_reported(spec_file):
    status, text = _run(["render", spec_file, "nope"])
    assert status == 2
    assert "no SCESC named 'nope'" in text


def test_missing_file_is_reported():
    status, text = _run(["validate", "/does/not/exist.cesc"])
    assert status == 2
    assert "error:" in text


#: Unreadable or malformed input files: the file's bytes (``None``
#: for a directory) and the argv naming it as ``{path}``.
_BAD_INPUTS = {
    "wave-not-string": (b'{"signal": [{"name": "req", "wave": true}]}',
                        ["check", "{spec}", "handshake", "{path}"]),
    "top-level-list": (b'[{"name": "req", "wave": "01"}]',
                       ["check", "{spec}", "handshake", "{path}"]),
    "truncated-json": (b'{"signal": [{"name": "req", "wave": "01"',
                       ["check", "{spec}", "handshake", "{path}"]),
    "name-not-string": (b'{"signal": [{"name": 5, "wave": "01"}]}',
                        ["check", "{spec}", "handshake", "{path}"]),
    "trace-not-utf8": (b'{"signal": [{"name": "req", "wave": "0\xff"}]}',
                       ["check", "{spec}", "handshake", "{path}"]),
    "spec-not-utf8": (b"chart handshake { instances M; tick: \xe9; }",
                      ["validate", "{path}"]),
    "spec-is-directory": (None, ["validate", "{path}"]),
    "check-spec-is-directory": (None, ["check", "{path}", "handshake",
                                       "--vcd", "{path}", "--clock", "clk"]),
    "trace-is-directory": (None, ["check", "{spec}", "handshake", "{path}"]),
    "vcd-is-directory": (None, ["check", "{spec}", "handshake", "--vcd",
                                "{path}", "--clock", "clk"]),
    "ingest-vcd-is-directory": (None, ["ingest", "{spec}", "handshake",
                                       "--vcd", "{path}", "--clock", "clk",
                                       "--out", "{path}.rtrc"]),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_bad_input_files_are_typed_errors(case, spec_file, tmp_path, capsys):
    """Each exits 2 with one ``error:`` line naming the file."""
    contents, argv = _BAD_INPUTS[case]
    path = tmp_path / "input"
    if contents is None:
        path.mkdir()
    else:
        path.write_bytes(contents)
    status, text = _run([arg.format(spec=spec_file, path=path)
                         for arg in argv])
    errors = [line for line in text.splitlines()
              if line.startswith("error:")]
    assert status == 2, text
    assert len(errors) == 1 and str(path) in errors[0], text
    assert "Traceback" not in text + capsys.readouterr().err


# ------------------------------------------------------------ VCD check ----
@pytest.fixture()
def amba_setup(tmp_path):
    from repro.cesc.serialize import scesc_to_dsl
    from repro.protocols.amba.charts import ahb_transaction_chart
    from repro.protocols.fixtures import amba_vcd, write_vcd_fixture

    spec = tmp_path / "amba.cesc"
    spec.write_text(scesc_to_dsl(ahb_transaction_chart()))
    dumps = []
    for seed in range(3):
        path = tmp_path / f"amba{seed}.vcd"
        write_vcd_fixture(path, amba_vcd(seed=seed))
        dumps.append(str(path))
    return str(spec), dumps


def test_check_vcd_single_dump(amba_setup):
    spec, dumps = amba_setup
    status, text = _run(["check", spec, "ahb_transaction",
                         "--vcd", dumps[0], "--clock", "clk"])
    assert status == 0
    assert "detections at [4]" in text


def test_check_vcd_many_dumps(amba_setup):
    spec, dumps = amba_setup
    argv = ["check", spec, "ahb_transaction", "--clock", "clk"]
    for dump in dumps:
        argv += ["--vcd", dump]
    status, text = _run(argv)
    assert status == 0
    assert text.count("detections at") == len(dumps)


def test_check_vcd_faulty_dump_rejected(tmp_path):
    from repro.cesc.serialize import scesc_to_dsl
    from repro.protocols.ocp import ocp_simple_read_chart

    spec = tmp_path / "ocp.cesc"
    spec.write_text(scesc_to_dsl(ocp_simple_read_chart()))
    # drop-everything mutation may still accept; use an empty-noise dump
    dump = tmp_path / "noise.vcd"
    from repro.semantics.run import Trace
    from repro.trace import trace_to_vcd
    noise = Trace.from_sets([set()] * 6, {"MCmd_rd"})
    dump.write_text(trace_to_vcd(noise, clock="clk"))
    status, text = _run(["check", str(spec), "ocp_simple_read",
                         "--vcd", str(dump), "--clock", "clk"])
    assert status == 3


@pytest.mark.parametrize("engine", ["native", "vector", "compiled",
                                    "interpreted"])
def test_check_vcd_engines_print_the_same_report(amba_setup, engine):
    """Every engine checks an uncached dump, batch-only native too."""
    from repro.runtime.engines import backend

    if backend(engine).unavailable_reason() is not None:
        pytest.skip(backend(engine).unavailable_reason())
    spec, dumps = amba_setup
    argv = ["check", spec, "ahb_transaction", "--clock", "clk"]
    for dump in dumps:
        argv += ["--vcd", dump]
    reference = _run(argv)
    assert reference[0] == 0
    assert _run(argv + ["--engine", engine]) == reference


def test_check_and_ingest_read_non_utf8_dumps_alike(tmp_path):
    """Stray Latin-1 bytes in a $comment decode as replacement
    characters on every path (regression: check crashed with a bare
    UnicodeDecodeError while ingest read the dump)."""
    from repro.cesc.serialize import scesc_to_dsl
    from repro.protocols.fixtures import ocp_simple_vcd
    from repro.protocols.ocp import ocp_simple_read_chart

    spec = tmp_path / "ocp.cesc"
    spec.write_text(scesc_to_dsl(ocp_simple_read_chart()))
    text = ocp_simple_vcd(seed=1, repeats=2)
    marker = "$enddefinitions $end\n"
    head, body = text.split(marker)
    dump = tmp_path / "latin1.vcd"
    dump.write_bytes(head.encode() + marker.encode()
                     + b"$comment \xff\xfe caf\xe9 $end\n" + body.encode())
    status, checked = _run(["check", str(spec), "ocp_simple_read",
                            "--vcd", str(dump), "--clock", "clk"])
    assert status in (0, 3), checked
    status, ingested = _run(["ingest", str(spec), "ocp_simple_read",
                             "--vcd", str(dump), "--clock", "clk",
                             "--out", str(tmp_path / "latin1.rtrc")])
    assert status == 0, ingested
    ticks = checked.split(": ", 1)[1].split(" ticks", 1)[0]
    assert f"{dump}: {ticks} ticks over" in ingested


def test_check_requires_exactly_one_trace_source(amba_setup, spec_file):
    spec, dumps = amba_setup
    status, text = _run(["check", spec, "ahb_transaction"])
    assert status == 2
    assert "exactly one trace source" in text
    status, text = _run(["check", spec, "ahb_transaction", "trace.json",
                         "--vcd", dumps[0]])
    assert status == 2


def test_check_vcd_requires_sampling_discipline(amba_setup):
    spec, dumps = amba_setup
    status, text = _run(["check", spec, "ahb_transaction",
                         "--vcd", dumps[0]])
    assert status == 2
    assert "sampling discipline" in text
    # --period is the other accepted discipline (clocked fixture dumps
    # put each tick at 2*i, so period=2 recovers the grid).
    status, text = _run(["check", spec, "ahb_transaction",
                         "--vcd", dumps[0], "--period", "2"])
    assert status == 0


def test_check_wavedrom_rejects_vcd_only_flags(spec_file, tmp_path):
    trace = tmp_path / "t.json"
    trace.write_text(json.dumps({
        "signal": [{"name": "req", "wave": "010"},
                   {"name": "ack", "wave": "001"}]
    }))
    for extra in (["--clock", "clk"], ["--period", "1"],
                  ["--bind", "a=b"]):
        status, text = _run(
            ["check", spec_file, "handshake", str(trace)] + extra)
        assert status == 2
        assert "apply to --vcd dumps only" in text


@pytest.mark.parametrize("verb", ["check", "campaign", "serve"])
def test_jobs_is_not_an_option(verb, amba_setup, capsys):
    """Everything runs in one process: ``--jobs`` is a usage error."""
    spec, dumps = amba_setup
    argv = [verb, spec, "ahb_transaction", "--jobs", "2"]
    if verb == "check":
        argv += ["--vcd", dumps[0], "--clock", "clk"]
    with pytest.raises(SystemExit) as exit_:
        main(argv, out=io.StringIO())
    assert exit_.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["check", "ingest", "campaign", "serve"])
def test_optimize_is_not_an_option(verb, amba_setup, capsys):
    """The optimization pipeline is gone: ``--optimize`` is a usage
    error."""
    spec, dumps = amba_setup
    argv = [verb, spec, "ahb_transaction", "--optimize"]
    if verb in ("check", "ingest"):
        argv += ["--vcd", dumps[0], "--clock", "clk"]
    with pytest.raises(SystemExit) as exit_:
        main(argv, out=io.StringIO())
    assert exit_.value.code == 2
    assert "unrecognized arguments: --optimize" in capsys.readouterr().err


def test_ingest_still_accepts_jobs(amba_setup, tmp_path):
    """``ingest --jobs 1`` parses and has no effect."""
    spec, dumps = amba_setup
    out = str(tmp_path / "amba.rtrc")
    status, text = _run(["ingest", spec, "ahb_transaction", "--vcd",
                         dumps[0], "--clock", "clk", "--out", out,
                         "--jobs", "1"])
    assert status == 0
    assert f"-> {out} (parsed)" in text


def test_check_vcd_with_binding(tmp_path):
    from repro.cesc.serialize import scesc_to_dsl
    from repro.semantics.run import Trace
    from repro.trace import trace_to_vcd

    spec = tmp_path / "spec.cesc"
    spec.write_text(SPEC)
    renamed = Trace.from_sets(
        [{"REQ_N"}, {"ACK_N"}], {"REQ_N", "ACK_N"}
    )
    dump = tmp_path / "renamed.vcd"
    dump.write_text(trace_to_vcd(renamed, clock="clk"))
    status, text = _run([
        "check", str(spec), "handshake", "--vcd", str(dump),
        "--clock", "clk", "--bind", "REQ_N=req", "--bind", "ACK_N=ack",
    ])
    assert status == 0
    assert "detections at [1]" in text


def test_check_vcd_partial_binding_keeps_other_nets(tmp_path):
    """Renaming one net must not drop the identically-named ones."""
    from repro.semantics.run import Trace
    from repro.trace import trace_to_vcd

    spec = tmp_path / "spec.cesc"
    spec.write_text(SPEC)
    renamed = Trace.from_sets([{"HREQ"}, {"ack"}], {"HREQ", "ack"})
    dump = tmp_path / "partial.vcd"
    dump.write_text(trace_to_vcd(renamed, clock="clk"))
    status, text = _run([
        "check", str(spec), "handshake", "--vcd", str(dump),
        "--clock", "clk", "--bind", "HREQ=req",
    ])
    assert status == 0
    assert "detections at [1]" in text


# ---------------------------------------------------------------- campaign ----
def test_campaign_reaches_closure_and_exits_zero(spec_file):
    status, text = _run(["campaign", spec_file, "handshake"])
    assert status == 0
    assert "closure reached" in text
    assert "100.0% states" in text
    assert "100.0% transitions" in text


def test_campaign_json_report(spec_file):
    import json as json_module

    status, text = _run([
        "campaign", spec_file, "handshake", "--json", "--budget", "64",
        "--faults", "4",
    ])
    assert status == 0
    document = json_module.loads(text)
    assert document["reached"] is True
    assert document["monitor"] == "handshake"
    assert document["faults"]["mismatches"] == []
    assert document["faults"]["trials"] >= 2


def test_campaign_exports_vcd_corpus(spec_file, tmp_path):
    corpus_dir = tmp_path / "corpus"
    status, text = _run([
        "campaign", spec_file, "handshake",
        "--export-vcd", str(corpus_dir), "--seed-traces", "2",
    ])
    assert status == 0
    dumps = sorted(corpus_dir.glob("*.vcd"))
    assert dumps
    assert "exported" in text


def test_campaign_budget_exhaustion_exits_three(spec_file):
    status, text = _run([
        "campaign", spec_file, "handshake", "--budget", "1",
        "--seed-traces", "1",
    ])
    assert status == 3
    assert "closure NOT reached" in text


def test_campaign_interpreted_engine_covers_the_dense_automaton(spec_file):
    status, text = _run([
        "campaign", spec_file, "handshake", "--engine", "interpreted",
        "--budget", "128",
    ])
    assert status == 0
    assert "closure reached" in text


def test_campaign_rejects_bad_arguments(spec_file):
    status, text = _run([
        "campaign", spec_file, "handshake", "--target-coverage", "1.5",
    ])
    assert status == 2
    assert "target-coverage" in text
    status, text = _run([
        "campaign", spec_file, "handshake", "--budget", "0",
    ])
    assert status == 2
    assert "budget" in text


# ------------------------------------------------- ingest / corpus cache ----
def test_ingest_cold_then_cached(amba_setup, tmp_path):
    spec, dumps = amba_setup
    cache = str(tmp_path / "cache")
    argv = ["ingest", spec, "ahb_transaction", "--vcd", dumps[0],
            "--clock", "clk", "--cache", cache]
    status, text = _run(argv)
    assert status == 0
    assert "fingerprint" in text
    assert "(parsed)" in text
    status, text = _run(argv)
    assert status == 0
    assert "(cached)" in text


def test_ingest_to_file_loads_back(amba_setup, tmp_path):
    from repro.trace.columnar import ColumnarTraceSet

    spec, dumps = amba_setup
    dest = tmp_path / "corpus.rtrc"
    status, text = _run(["ingest", spec, "ahb_transaction",
                         "--vcd", dumps[0], "--clock", "clk",
                         "--out", str(dest)])
    assert status == 0
    columns = ColumnarTraceSet.load(dest)
    assert columns.n_traces == 1
    assert columns.total_ticks > 0
    assert "clk" not in columns.symbols


def test_ingest_rejects_bad_arguments(amba_setup, tmp_path):
    spec, dumps = amba_setup
    status, text = _run(["ingest", spec, "ahb_transaction",
                         "--vcd", dumps[0], "--clock", "clk"])
    assert status == 2
    assert "destination" in text
    status, text = _run(["ingest", spec, "ahb_transaction",
                         "--vcd", dumps[0],
                         "--cache", str(tmp_path / "c")])
    assert status == 2
    assert "sampling discipline" in text
    status, text = _run(["ingest", spec, "ahb_transaction",
                         "--vcd", dumps[0], "--vcd", dumps[1],
                         "--clock", "clk",
                         "--out", str(tmp_path / "one.rtrc")])
    assert status == 2
    assert "exactly one" in text


def test_check_vcd_with_cache_matches_uncached(amba_setup, tmp_path):
    spec, dumps = amba_setup
    cache = str(tmp_path / "cache")
    base = ["check", spec, "ahb_transaction", "--clock", "clk",
            "--engine", "vector"]
    for dump in dumps:
        base += ["--vcd", dump]
    status, plain = _run(base)
    assert status == 0
    status, cold = _run(base + ["--cache", cache])
    assert status == 0
    status, warm = _run(base + ["--cache", cache])
    assert status == 0
    assert plain == cold == warm


def test_check_cache_requires_compiled_engine(amba_setup, tmp_path):
    spec, dumps = amba_setup
    status, text = _run(["check", spec, "ahb_transaction",
                         "--vcd", dumps[0], "--clock", "clk",
                         "--engine", "interpreted",
                         "--cache", str(tmp_path / "c")])
    assert status == 2
    assert "--cache" in text


def test_campaign_exports_columnar_corpus(spec_file, tmp_path):
    from repro.trace.columnar import ColumnarTraceSet

    dest = tmp_path / "corpus.rtrc"
    status, text = _run([
        "campaign", spec_file, "handshake",
        "--export-columnar", str(dest), "--seed-traces", "2",
    ])
    assert status == 0
    assert "exported columnar corpus" in text
    columns = ColumnarTraceSet.load(dest)
    assert columns.n_traces > 0
    assert columns.meta["campaign"] == "handshake"
    assert len(columns.meta["labels"]) == columns.n_traces

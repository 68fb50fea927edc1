"""Seeded structural VCD fuzzer: three readers, one outcome.

Every case builds a dump from VCD's own constructs — a header of
scalar, vector and aliased nets, timestamps, scalar/vector/real
changes, ``$dumpvars``/``$dumpoff``/``$comment`` sections — then
damages it the ways real dumps are damaged: truncation at a random
offset, undeclared and malformed identifiers, non-ASCII bytes and
U+FFFD, the ASCII characters ``str.split()`` treats as whitespace,
``+``/``_``/non-ASCII digits in timestamps, real values, x/z and
malformed vectors, directive bodies holding ``#`` lines.  Each case is
read at a random ``chunk_size`` under a random sampling discipline and
window, and must give the same masks — or the same
:class:`~repro.errors.TraceError` text — three ways:

* the front-end with the C block parser loaded (when a compiler is);
* the front-end under ``REPRO_NO_CC=1`` (the Python parser alone);
* the frozen per-change sampler in ``vcd_oracle.py``;

and each read must finish within a time bound.  Nothing else is
allowed.  ``REPRO_FUZZ_CASES`` sets the case count (default 210).
"""

import os
import random
import signal

import pytest

import repro.trace.vcd_python as vcd_python
from repro.errors import TraceError
from repro.logic.codec import AlphabetCodec
from repro.trace import vcd_native
from repro.trace.vcd_reader import VcdReader
from vcd_oracle import oracle_masks, oracle_valuations

CASES = int(os.environ.get("REPRO_FUZZ_CASES", "210"))

#: Seconds one read may take before the case fails as a hang.
TIME_BOUND_S = 10.0

#: Mostly newlines, as dumps are; every other ASCII separator
#: ``str.split()`` honours, too.
SEPARATORS = ["\n"] * 14 + [" ", "\t", "\r\n", "\v", "\f", "\x1c",
                            "\x1d", "\x1e", "\x1f"]

#: Identifier-code characters: printable ASCII without ``$``.
CODE_CHARS = [chr(c) for c in range(33, 127) if chr(c) != "$"]

CHUNK_SIZES = (1, 2, 3, 5, 7, 16, 64, 200, 1024, 4096, 1 << 16)

#: ``int()`` takes signs, underscores and non-ASCII digits (Arabic-
#: Indic three, fullwidth one) that the C grammar leaves to Python.
ODD_TIMESTAMPS = ("#+{t}", "#{t}_0", "#\u0663", "#", "#-{t}", "#0x{t}",
                  "#{t}.0", "#0{t}", "#\uff11{t}")

ODD_VECTORS = ("b", "b12", "b0b11", "b1_0", "B101", "b1x0", "bZZ", "b-1",
               "b\u0661")

REALS = ("r1.5", "R0", "r0.0", "r1e3", "rnan", "r-2", "rabc", "r")

#: Letters, U+FFFD, a non-ASCII digit, and two characters
#: ``str.split()`` splits on: NO-BREAK SPACE and NEXT LINE.
NON_ASCII = ("\u00e9", "\ufffd", "\u20ac", "\u0663", "\u00a0", "\u0085")


class _Case:
    """One generated dump plus how to read it."""

    def __init__(self, seed: int):
        rng = self.rng = random.Random(seed)
        self.seed = seed
        self.faults = []
        self._header()
        self._sampling()
        self._body()
        self.chunk_size = (rng.choice(CHUNK_SIZES) if rng.random() < 0.7
                           else rng.randint(1, 300))
        self._damage()

    # -- generation ----------------------------------------------------
    def _code(self, taken) -> str:
        rng = self.rng
        while True:
            code = "".join(rng.choice(CODE_CHARS)
                           for _ in range(rng.choice((1, 1, 1, 2, 3))))
            if code not in taken:
                taken.add(code)
                return code

    def _header(self):
        rng = self.rng
        taken = set()
        self.clock_code = self._code(taken)
        lines = ["$date fuzz $end", "$timescale 1ns $end",
                 "$scope module top $end",
                 f"$var wire 1 {self.clock_code} clk $end"]
        self.scalars = []
        self.vectors = []
        for index in range(rng.randint(1, 5)):
            code = self._code(taken)
            name = f"s{index}"
            if rng.random() < 0.25:
                width = rng.randint(2, 8)
                self.vectors.append(code)
                lines.append(f"$var wire {width} {code} {name} "
                             f"[{width - 1}:0] $end")
            else:
                self.scalars.append(code)
                lines.append(f"$var wire 1 {code} {name} $end")
        if self.scalars and rng.random() < 0.3:
            # An alias: a second net on an existing code.
            lines.append(f"$scope module sub $end")
            lines.append(f"$var wire 1 {rng.choice(self.scalars)} "
                         f"s{rng.randint(0, 4)} $end")
            lines.append("$upscope $end")
        lines += ["$upscope $end", "$enddefinitions $end", ""]
        self.header = "\n".join(lines)
        self.undeclared = [self._code(set(taken)) for _ in range(2)]
        self.symbols = [f"s{index}" for index in range(5)]

    def _sampling(self):
        rng = self.rng
        kind = rng.random()
        if kind < 0.5:
            self.sampling = {"clock": "clk"}
        elif kind < 0.8:
            self.sampling = {"period": rng.randint(1, 4)}
        else:
            self.sampling = {}
        if rng.random() < 0.3:
            self.sampling["offset"] = rng.randint(-4, 6)
        if rng.random() < 0.3:
            self.sampling["until"] = rng.randint(-1, 30)

    def _change(self) -> str:
        rng = self.rng
        if self.vectors and rng.random() < 0.25:
            width = rng.randint(1, 8)
            bits = "".join(rng.choice("0011xz") for _ in range(width))
            return f"b{bits}{rng.choice(SEPARATORS)}{rng.choice(self.vectors)}"
        code = rng.choice(self.scalars + [self.clock_code]) \
            if self.scalars else self.clock_code
        return rng.choice("0011xz") + code

    def _directive(self) -> str:
        rng = self.rng
        sep = rng.choice(SEPARATORS)
        choice = rng.random()
        if choice < 0.3:
            body = sep.join(self._change() for _ in range(rng.randint(0, 3)))
            return f"$dumpvars{sep}{body}{sep}$end"
        if choice < 0.55:
            body = sep.join("x" + code for code in self.scalars)
            return f"$dumpoff{sep}{body}{sep}$end"
        if choice < 0.8:
            return (f"$comment{sep}#{rng.randint(0, 40)} is not a time"
                    f"{sep}b1 q{sep}$end")
        return rng.choice(("$dumpon", "$dumpall", "$end"))

    def _body(self):
        rng = self.rng
        tokens = []
        time_now = 0
        level = 0
        # The oracle walks a period grid point by point, so a 10**30
        # gap would never finish there; test_vcd_blocks pins the
        # front-end's arithmetic skip over such gaps instead.
        huge_ok = "period" not in self.sampling
        if rng.random() < 0.3:
            # Initial values before the first timestamp, as some tools
            # write them: they belong to an instant at time 0.
            changes = [self._change() for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.5:
                changes = ["$dumpvars", *changes, "$end"]
            tokens += changes
        for _ in range(rng.randint(0, 40)):
            step = rng.random()
            if step < 0.08:
                pass  # a repeated timestamp: the same instant continues
            elif step < 0.12 and time_now > 2:
                time_now -= rng.randint(1, 2)  # time runs backwards
            else:
                time_now += rng.randint(1, 3)
            tokens.append(f"#{time_now}")
            if rng.random() < 0.7:
                level ^= 1
                tokens.append(f"{level}{self.clock_code}")
            for _ in range(rng.randint(0, 3)):
                tokens.append(self._change())
            if rng.random() < 0.1:
                tokens.append(self._directive())
        if huge_ok and rng.random() < 0.05:
            tokens.append(f"#{rng.choice((2 ** 63, 2 ** 64 + 5, 10 ** 30))}")
            tokens.append(f"1{self.clock_code}")
        self.tokens = tokens

    def _damage(self):
        """Zero to three faults; half of the cases stay well formed."""
        rng = self.rng
        tokens = self.tokens
        for _ in range(rng.choice((0, 0, 0, 1, 1, 2, 3))):
            fault = rng.randrange(9)
            at = rng.randint(0, len(tokens))
            t = rng.randint(0, 40)
            if fault == 0:
                self.faults.append("undeclared id")
                code = rng.choice(self.undeclared)
                tokens.insert(at, rng.choice(
                    (f"1{code}", f"x{code}", f"b101 {code}")))
            elif fault == 1:
                self.faults.append("malformed id")
                tokens.insert(at, rng.choice(("1", "x", "Z", "qq", "#")))
            elif fault == 2:
                self.faults.append("odd timestamp")
                tokens.insert(at, rng.choice(ODD_TIMESTAMPS).format(t=t))
            elif fault == 3:
                self.faults.append("real value")
                code = rng.choice(self.scalars + self.undeclared)
                tokens.insert(at, f"{rng.choice(REALS)} {code}")
            elif fault == 4:
                self.faults.append("odd vector")
                code = rng.choice(self.vectors + self.undeclared)
                tokens.insert(at, f"{rng.choice(ODD_VECTORS)} {code}")
            elif fault == 5:
                self.faults.append("non-ascii")
                char = rng.choice(NON_ASCII)
                tokens.insert(at, rng.choice(
                    (char, f"$comment {char} $end", f"1{char}",
                     f"#{t}{char}")))
            elif fault == 6:
                self.faults.append("unterminated directive")
                tokens.insert(at, rng.choice(("$comment", "$dumpoff")))
            elif fault == 7:
                self.faults.append("vector without id")
                tokens.append("b10")
            else:
                self.faults.append("directive across seams")
                tokens.insert(at, "$comment\n#7\n#8 x\n$end")
        text = self.header + "".join(
            token + rng.choice(SEPARATORS) for token in tokens)
        if rng.random() < 0.2:
            self.faults.append("truncated")
            text = text[:rng.randrange(len(text) + 1)]
        self.data = text.encode("utf-8")
        if rng.random() < 0.1:
            # Raw bytes that are not UTF-8: read back as U+FFFD.
            self.faults.append("invalid utf-8")
            at = rng.randint(min(len(self.header), len(self.data)),
                             len(self.data))
            self.data = self.data[:at] + rng.choice(
                (b"\xff", b"\xc3", b"\x80\x80")) + self.data[at:]
        self.text = self.data.decode("utf-8", "replace")

    def codec(self, clock):
        try:
            return AlphabetCodec(VcdReader.from_text(self.text)
                                 .alphabet(clock))
        except TraceError:
            return AlphabetCodec(self.symbols)

    def __repr__(self):
        return (f"case {self.seed}: faults={self.faults} "
                f"sampling={self.sampling} chunk_size={self.chunk_size}")


class _Hang(Exception):
    pass


def _bounded(read):
    """``read()``'s masks, or its TraceError text; a read running past
    ``TIME_BOUND_S`` fails the case (where the platform has timers)."""
    def alarm(signum, frame):
        raise _Hang()

    armed = hasattr(signal, "setitimer")
    if armed:
        previous = signal.signal(signal.SIGALRM, alarm)
        signal.setitimer(signal.ITIMER_REAL, TIME_BOUND_S)
    try:
        return read()
    except TraceError as error:
        return ("TraceError", str(error))
    except _Hang:
        pytest.fail(f"a read ran past {TIME_BOUND_S} s")
    finally:
        if armed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def _front_end(case, tmp_path, codec, valuations=False):
    def read():
        if case.seed % 4 == 0:
            path = tmp_path / f"case{case.seed}.vcd"
            path.write_bytes(case.data)
            reader = VcdReader(path, chunk_size=case.chunk_size)
        else:
            reader = VcdReader.from_text(case.text,
                                         chunk_size=case.chunk_size)
        with reader:
            if valuations:
                return list(reader.valuations(**case.sampling))
            return list(reader.masks(codec, **case.sampling))
    return _bounded(read)


@pytest.mark.parametrize("batch", range(10))
def test_c_parser_python_parser_and_oracle_agree(batch, tmp_path,
                                                 monkeypatch):
    counts = {"python": 0, "native": 0}
    parse_chunk = vcd_python.parse_chunk
    native_call = vcd_native.NativeBlocks.__call__

    def python_block(*args, **kwargs):
        counts["python"] += 1
        return parse_chunk(*args, **kwargs)

    def native_block(self, text, final):
        masks = native_call(self, text, final)
        counts["native"] += masks is not vcd_native.FALLBACK
        return masks

    monkeypatch.setattr(vcd_python, "parse_chunk", python_block)
    monkeypatch.setattr(vcd_native.NativeBlocks, "__call__", native_block)
    seeds = range(batch, CASES, 10)
    for seed in seeds:
        case = _Case(seed)
        codec = case.codec(case.sampling.get("clock"))
        native = _front_end(case, tmp_path, codec)
        oracle = _bounded(lambda: oracle_masks(case.text, codec,
                                               **case.sampling))
        with monkeypatch.context() as no_cc:
            no_cc.setenv("REPRO_NO_CC", "1")
            python = _front_end(case, tmp_path, codec)
        assert native == python == oracle, case
        if seed % 3 == 0:
            native = _front_end(case, tmp_path, codec, valuations=True)
            oracle = _bounded(lambda: oracle_valuations(case.text,
                                                        **case.sampling))
            assert native == oracle, case
    if vcd_native.available() and len(seeds) >= 5:
        # Both sides took blocks (a handful of cases may, by chance,
        # not): the comparison is not Python with itself, and the
        # fallback ran.
        assert counts["native"] > 0 and counts["python"] > 0, counts

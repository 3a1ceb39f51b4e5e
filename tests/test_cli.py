import argparse
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from planmark import RunConfig, cli, load_kb, parse_path
from planmark.cli import build_parser
from planmark.pipeline import SynthParams, parse_stream

from conftest import FIG31_TEXT, FIXTURE_KB_TEXT, package_env, planmark
from oracles import posterior_by_fractions, sc_by_fractions

SPREAD_FLAGS = ["--threshold", "0.1", "--full-threshold", "1.0"]


@pytest.fixture(scope="module")
def kb_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("kb") / "fixture.kb"
    path.write_text(FIXTURE_KB_TEXT)
    return str(path)


def test_check_ok(kb_file):
    result = planmark("check", "--kb", kb_file)
    assert result.returncode == 0
    assert result.stdout == "ok: 5 schemas, 2 role links, eq-prior 0.001\n"


def test_check_rejects_isa_cycle(tmp_path):
    bad = tmp_path / "bad.kb"
    bad.write_text("(eq-prior 0.1)(schema a :isa b :prior 0.2)(schema b :isa a :prior 0.2)")
    result = planmark("check", "--kb", str(bad))
    assert result.returncode == 1
    assert "cycle" in result.stderr


def test_check_names_the_line_of_an_overfull_parent(tmp_path):
    bad = tmp_path / "bad.kb"
    bad.write_text("(eq-prior 0.01)\n(schema p :prior 0.1)\n"
                   "(schema c1 :isa p :prior 0.06)\n(schema c2 :isa p :prior 0.06)\n")
    result = planmark("check", "--kb", str(bad))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == ("error: line 2: children of 'p' have priors summing "
                             "to 0.12, above the parent prior 0.1\n")


def test_score_prints_sixteen_point_two(kb_file):
    result = planmark("score", "--kb", kb_file, "--path", FIG31_TEXT,
                      "--beliefs", "0.9,0.9")
    assert result.returncode == 0
    assert result.stdout == "16.2\n"


def test_translate_lists_both_statement_sets(kb_file):
    result = planmark("translate", "--kb", kb_file, "--path", FIG31_TEXT)
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    s_at = lines.index("S(P):")
    rs_at = lines.index("RS(P):")
    assert rs_at - s_at - 1 == 6
    assert len(lines) - rs_at - 1 == 5
    assert "  (inst gen-1 shopping)" in lines[s_at + 1:rs_at]
    assert "  (inst gen-1 shopping)" not in lines[rs_at + 1:]


@pytest.mark.parametrize("command", ["translate", "network"])
def test_beliefs_is_a_usage_error_where_no_output_reads_it(kb_file, command):
    # Neither output depends on the end beliefs, so neither takes the flag.
    result = planmark(command, "--kb", kb_file, "--path", FIG31_TEXT, "--beliefs", "0.9,0.9")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "unrecognized arguments: --beliefs 0.9,0.9" in result.stderr


def test_network_dump(kb_file):
    result = planmark("network", "--kb", kb_file, "--path", FIG31_TEXT)
    assert result.returncode == 0
    assert "node gen-1 kind=inst type=supermarket-shopping prior=0.02" in result.stdout
    assert "edge eq2 EI" in result.stdout


def test_eval_reports_factorization(kb_file):
    result = planmark("eval", "--kb", kb_file, "--path", FIG31_TEXT,
                      "--beliefs", "0.9,0.9", "--gamma1", "0.9", "--gamma0", "1e-7")
    assert result.returncode == 0
    fields = dict(line.split(" ", 1) for line in result.stdout.splitlines())
    assert float(fields["sc"]) == pytest.approx(16.2, rel=1e-12)
    assert float(fields["posterior"]) == pytest.approx(
        float(fields["sc"]) * float(fields["residual"]), rel=1e-9)


def test_run_from_stdin_and_counters(kb_file):
    stream = ("(inst supermarket2 supermarket :belief 0.9)\n"
              "(inst go1 go :belief 0.9)\n"
              "(corroborate supermarket-shopping store-of)\n"
              "(corroborate supermarket-shopping go-step)\n")
    result = planmark("run", "--kb", kb_file, *SPREAD_FLAGS, stdin=stream)
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[-1] == "counters reported=1 evaluated=1 approved=0"
    assert [line for line in lines if line.startswith("#")] == ["# planmark run report"]
    assert f"path {FIG31_TEXT}" in lines


BOM_STREAM = ("(inst supermarket2 supermarket :belief 0.9)\n(inst go1 go :belief 0.9)\n"
              "(corroborate supermarket-shopping store-of)\n")


def write_with_bom(path, text, bom):
    path.write_text("\ufeff" * bom + text, encoding="utf-8")
    return str(path)


# Some editors start a UTF-8 file with a byte-order mark; the file means
# the same with it as without it.
def test_check_reads_a_kb_file_with_a_byte_order_mark(tmp_path):
    plain = planmark("check", "--kb", write_with_bom(tmp_path / "plain.kb", FIXTURE_KB_TEXT, False))
    marked = planmark("check", "--kb", write_with_bom(tmp_path / "bom.kb", FIXTURE_KB_TEXT, True))
    assert plain.returncode == 0
    assert (marked.returncode, marked.stdout, marked.stderr) == (0, plain.stdout, "")


@pytest.mark.parametrize("kb_bom,input_bom", [(True, False), (False, True), (True, True)],
                         ids=["kb", "input", "both"])
def test_run_reads_files_with_a_byte_order_mark(tmp_path, kb_bom, input_bom):
    def run_on(name, kb_bom, input_bom):
        return planmark("run", *SPREAD_FLAGS,
                        "--kb", write_with_bom(tmp_path / f"{name}.kb", FIXTURE_KB_TEXT, kb_bom),
                        "--input", write_with_bom(tmp_path / f"{name}.stream", BOM_STREAM,
                                                  input_bom))

    plain, marked = run_on("plain", False, False), run_on("bom", kb_bom, input_bom)
    assert plain.returncode == 0 and "counters reported=1" in plain.stdout
    assert (marked.returncode, marked.stdout, marked.stderr) == (0, plain.stdout, "")


@pytest.mark.parametrize("io_encoding", [None, "latin-1"], ids=["default", "latin-1"])
def test_run_reads_stdin_with_a_byte_order_mark(kb_file, io_encoding):
    # stdin is read as UTF-8, whatever the interpreter's stream encoding.
    env = package_env()
    if io_encoding is not None:
        env["PYTHONIOENCODING"] = io_encoding

    def run_on(data):
        return subprocess.run([sys.executable, "-m", "planmark", "run", "--kb", kb_file,
                               *SPREAD_FLAGS], input=data, capture_output=True, env=env)

    plain = run_on(BOM_STREAM.encode())
    marked = run_on(b"\xef\xbb\xbf" + BOM_STREAM.encode())
    assert plain.returncode == 0 and b"counters reported=1" in plain.stdout
    assert (marked.returncode, marked.stdout, marked.stderr) == (0, plain.stdout, b"")


@pytest.mark.skipif(sys.platform == "win32", reason="closes fd 0 before exec")
def test_run_with_stdin_closed_fails_cleanly(kb_file):
    # A child started with fd 0 closed has sys.stdin None.
    result = subprocess.run([sys.executable, "-m", "planmark", "run", "--kb", kb_file],
                            capture_output=True, text=True, env=package_env(),
                            preexec_fn=lambda: os.close(0))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "error: standard input is closed\n"


def test_run_scores_a_path_through_a_tiny_prior(tmp_path):
    # Two halves that each carry p(plan) = 1e-160 multiply to 5e-320, a
    # subnormal, so the cleave score divides by p(plan) before it multiplies.
    kb = tmp_path / "tiny.kb"
    kb.write_text("(eq-prior 0.01)\n(schema plan :prior 1e-160)\n"
                  "(schema a :prior 0.5)\n(schema b :prior 0.4)\n"
                  "(role plan a-of a)\n(role plan b-of b)\n")
    stream = ("(inst a1 a)\n(inst b1 b)\n"
              "(corroborate plan a-of)\n(corroborate plan b-of)\n")
    result = planmark("run", "--kb", str(kb), "--threshold", "0",
                      "--full-threshold", "0", stdin=stream)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[1:3] == ["path (inst a1 a)(role plan a-of a)(role- plan b-of b)(inst b1 b)",
                          "sc 5e-160"]
    assert lines[-1] == "counters reported=1 evaluated=1 approved=1"


def test_run_rejects_a_subnormal_belief(tmp_path):
    # A half score seeded from a subnormal belief has no 1e-9 relative
    # precision left for the cleave check, so the record is an input error.
    kb = tmp_path / "plan.kb"
    kb.write_text("(eq-prior 0.001)(schema plan :prior 0.01)(schema a :prior 0.5)"
                  "(schema b :prior 0.4)(role plan a-of a)(role plan b-of b)\n")
    stream = ("(inst a1 a :belief 1e-320)\n(inst b1 b)\n"
              "(corroborate plan a-of)\n(corroborate plan b-of)\n")
    result = planmark("run", "--kb", str(kb), "--threshold", "0",
                      "--full-threshold", "0", stdin=stream)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: line 1: belief of 'a1' is subnormal")
    assert "Traceback" not in result.stderr


UNDERFLOW_KB = ("(eq-prior 1e-300)(schema a :prior 1.0)(schema b :prior 1.0)"
                "(schema p1 :prior {p1})(schema c1 :isa p1 :prior {c1})"
                "(schema p2 :prior {p2})"
                "(role p1 s1 a)(role p2 s2 p1)(role p2 s3 b)\n")


@pytest.mark.parametrize("priors,stream,path,sc", [
    # From b1, the walk up to p2 and down through p1 to c1 carries a half
    # score of 1e-340, which underflows to 0 before it meets c9's seed.
    ({"p1": "1e-150", "c1": "1e-290", "p2": "1e-200"}, "(inst c9 c1)\n(inst b1 b)\n",
     "(inst c9 c1)(isa c1 p1)(role p2 s2 p1)(role- p2 s3 b)(inst b1 b)", "1e-50"),
    # The detour down to c1 and back scores a subnormal 1e-322.
    ({"p1": "1e-200", "c1": "1e-300", "p2": "1e-222"}, "(inst a1 a)\n(inst b1 b)\n",
     "(inst a1 a)(role p1 s1 a)(role p2 s2 p1)(role- p2 s3 b)(inst b1 b)", "1e-222"),
], ids=["half-underflows-to-zero", "subnormal-detour"])
def test_run_prunes_scores_below_the_normal_range(tmp_path, priors, stream, path, sc):
    kb = tmp_path / "deep.kb"
    kb.write_text(UNDERFLOW_KB.format(**priors))
    result = planmark("run", "--kb", str(kb), "--threshold", "0",
                      "--full-threshold", "0", stdin=stream)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[1:3] == [f"path {path}", f"sc {sc}"]
    assert lines[-1] == "counters reported=1 evaluated=0 approved=0"


TWO_SLOT_KB = ("(eq-prior {eq})(schema plan :prior 1e-3)(schema a :prior {a})"
               "(schema b :prior {b})(role plan a-of a)(role plan b-of b)\n")
HALF_BELIEF_STREAM = ("(inst a1 a :belief 0.5)\n(inst b1 b :belief 0.5)\n"
                      "(corroborate plan a-of)\n(corroborate plan b-of)\n")


# Bases the loader accepts whose scores or masses leave the float range.
# Either the run rejects the input, naming its line, or every posterior it
# reports is the closed form's exact value.  The first case is in range
# and shows the check can pass; each of the others breaks it today.
OUT_OF_RANGE = pytest.mark.xfail(strict=True,
                                 reason="no numeric range is enforced on accepted bases")


@pytest.mark.parametrize("kb_text,stream,flags", [
    pytest.param(TWO_SLOT_KB.format(eq="1e-6", a="1e-5", b="1e-5"), HALF_BELIEF_STREAM, [],
                 id="in-range"),
    # s0 = Z1*Z2 underflows to 0, and so does s1: ZeroDivisionError.
    pytest.param(TWO_SLOT_KB.format(eq="1e-200", a="1e-160", b="1e-160"),
                 HALF_BELIEF_STREAM, [], id="masses-underflow", marks=OUT_OF_RANGE),
    # Reports sc 2.5e+256 and posterior 0.0; the exact value is 2.25e-137.
    pytest.param(TWO_SLOT_KB.format(eq="1e-200", a="1e-160", b="1e-100"),
                 HALF_BELIEF_STREAM, [], id="score-overflows", marks=OUT_OF_RANGE),
    # The direct fold underflows to 0 before the end's terminal factor, and
    # the cleave check fails on a combined score of 1e-140.
    pytest.param(UNDERFLOW_KB.format(p1="1e-150", c1="1e-290", p2="1e-200"),
                 "(inst a1 a)\n(inst x1 p2)\n", ["--threshold", "0", "--full-threshold", "0"],
                 id="direct-fold-underflows", marks=OUT_OF_RANGE),
    # The direct fold passes through a subnormal 1e-320 before the end's
    # terminal factor, keeps about 11 bits, and the cleave check fails:
    # combined 9.999999999999999e-31 vs direct 9.999888671826829e-31.
    pytest.param("(eq-prior 1e-300)(schema a :prior 1.0)(schema g1 :prior 1.0)"
                 "(schema o1 :isa g1 :prior 1e-160)(schema o2 :prior 1e-160)"
                 "(schema b :prior 1e-290)(role o1 s1 a)(role o2 s2 g1)(role o2 s3 b)",
                 "(inst a1 a)\n(inst b1 b)\n", ["--threshold", "0", "--full-threshold", "0"],
                 id="direct-fold-subnormal", marks=OUT_OF_RANGE),
])
def test_run_outside_the_float_range_fails_cleanly_or_is_exact(tmp_path, kb_text,
                                                               stream, flags):
    kb = tmp_path / "range.kb"
    kb.write_text(kb_text)
    result = planmark("run", "--kb", str(kb), *flags, stdin=stream)
    assert "Traceback" not in result.stderr
    if result.returncode == 1:
        assert re.match(r"error: line [0-9]+: ", result.stderr), result.stderr
        return
    assert result.returncode == 0, result.stderr
    base = load_kb(kb_text)
    beliefs = {obs.instance: obs.belief
               for head, obs, _ in parse_stream(stream) if head == "inst"}
    config = RunConfig()
    records = re.findall(r"^path (.*)\n(?:.*\n){3}posterior (.*)$", result.stdout, re.MULTILINE)
    assert records
    for text, posterior in records:
        assert posterior != "-"
        ends = re.findall(r"\(inst (\S+) ", text)
        path = parse_path(base, text, beliefs=(beliefs[ends[0]], beliefs[ends[-1]]))
        exact = float(posterior_by_fractions(base, path, config.gamma1, config.gamma0))
        assert math.isclose(float(posterior), exact, rel_tol=1e-9), (posterior, exact)


# With no corroboration no record has a posterior, so only sc is checked:
# either the run rejects the input, naming its line, or every sc it
# reports is finite and the exact product of the path's floats.
@pytest.mark.parametrize("kb_text", [
    pytest.param(TWO_SLOT_KB.format(eq="1e-6", a="1e-5", b="1e-5"), id="in-range"),
    # Exits 0 and reports sc inf.
    pytest.param(TWO_SLOT_KB.format(eq="1e-250", a="1e-200", b="1e-200"),
                 id="score-overflows-to-inf", marks=OUT_OF_RANGE),
])
def test_uncorroborated_run_outside_the_float_range_fails_cleanly_or_is_exact(tmp_path,
                                                                             kb_text):
    kb = tmp_path / "range.kb"
    kb.write_text(kb_text)
    stream = "(inst a1 a :belief 0.5)\n(inst b1 b :belief 0.5)\n"
    result = planmark("run", "--kb", str(kb), stdin=stream)
    assert "Traceback" not in result.stderr
    if result.returncode == 1:
        assert re.match(r"error: line [0-9]+: ", result.stderr), result.stderr
        return
    assert result.returncode == 0, result.stderr
    base = load_kb(kb_text)
    records = re.findall(r"^path (.*)\nsc (.*)$", result.stdout, re.MULTILINE)
    assert records
    for text, sc in records:
        assert math.isfinite(float(sc)), sc
        exact = sc_by_fractions(base, parse_path(base, text, beliefs=(0.5, 0.5)))
        assert abs(Fraction(float(sc)) - exact) <= exact * Fraction(1e-12), (sc, float(exact))


def test_run_rejects_a_reserved_fresh_name(kb_file, tmp_path):
    stream_file = tmp_path / "story.stream"
    stream_file.write_text("(inst go1 go :belief 0.9)\n"
                           "(inst p1-gen-1 supermarket :belief 0.9)\n")
    result = planmark("run", "--kb", kb_file, "--input", str(stream_file),
                      *SPREAD_FLAGS)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: line 2: instance ID 'p1-gen-1' is reserved")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("record", [
    "(inst b ghost)", "(corroborate ghost store-of)", "(inst a go)"])
def test_run_record_errors_name_their_line(kb_file, record):
    result = planmark("run", "--kb", kb_file, *SPREAD_FLAGS,
                      stdin=f"(inst a supermarket)\n{record}\n")
    assert result.returncode == 1
    assert result.stderr.startswith("error: line 2: ")
    assert "Traceback" not in result.stderr


def test_run_rejects_a_corroboration_of_an_undeclared_slot(kb_file):
    result = planmark("run", "--kb", kb_file, "--threshold", "1",
                      stdin="(inst supermarket2 supermarket :belief 0.9)\n"
                            "(inst go1 go :belief 0.9)\n"
                            "(corroborate supermarket-shopping store-off)\n"
                            "(corroborate supermarket-shopping go-step)\n")
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: line 3: slot 'store-off' is declared")
    assert "Traceback" not in result.stderr


def test_translate_rejects_a_reserved_fresh_name(kb_file):
    # Path literals share the default fresh prefix gen- with RS(P).
    path = FIG31_TEXT.replace("supermarket2", "gen-1")
    result = planmark("translate", "--kb", kb_file, "--path", path)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == ("error: instance ID 'gen-1' is reserved: gen-<j> names "
                             "the fresh instances of a path (at position 0)\n")


def test_a_walk_error_names_the_end_form(kb_file):
    path = ("(inst a supermarket)(role supermarket-shopping store-of supermarket)"
            "(inst b shopping)")
    result = planmark("score", "--kb", kb_file, "--path", path)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == ("error: path ends at 'supermarket-shopping' but the end "
                             "observation is typed 'shopping' (at position 68)\n")


def test_run_is_byte_identical(kb_file, tmp_path):
    stream_file = tmp_path / "story.stream"
    stream_file.write_text("(inst supermarket2 supermarket)\n(inst go1 go)\n")
    args = ("run", "--kb", kb_file, "--input", str(stream_file), *SPREAD_FLAGS)
    assert planmark(*args).stdout == planmark(*args).stdout


@pytest.mark.parametrize("flag,value,message", [
    ("--threshold", "nan", "thresholds must be nonnegative"),
    ("--full-threshold", "nan", "thresholds must be nonnegative"),
    ("--approval-ratio", "nan", "approval ratio must be nonnegative"),
    ("--approval-ratio", "-5", "approval ratio must be nonnegative"),
], ids=["threshold-nan", "full-threshold-nan", "approval-ratio-nan", "approval-ratio-negative"])
def test_run_rejects_an_invalid_setting(kb_file, flag, value, message):
    result = planmark("run", "--kb", kb_file, flag, value,
                      stdin="(inst supermarket2 supermarket)\n(inst go1 go)\n")
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"


@pytest.mark.parametrize("command", ["check", "run", "score", "translate", "network",
                                     "eval", "synth"])
def test_output_flag_writes_file(kb_file, tmp_path, command):
    # Each command's text goes to --output, or to stdout without it, byte
    # for byte.
    stream = tmp_path / "story.stream"
    stream.write_text("(inst supermarket2 supermarket :belief 0.9)\n(inst go1 go :belief 0.9)\n"
                      "(corroborate supermarket-shopping store-of)\n")
    path = ["--kb", kb_file, "--path", FIG31_TEXT]
    argv = {
        "check": ["--kb", kb_file],
        "run": ["--kb", kb_file, "--input", str(stream), *SPREAD_FLAGS],
        "score": [*path, "--beliefs", "0.9,0.9"], "translate": path, "network": path,
        "eval": [*path, "--beliefs", "0.9,0.9"],
        "synth": ["--seed", "1", "--plans", "2", "--stories", "2"],
    }[command]

    def planmark_bytes(*args):
        return subprocess.run([sys.executable, "-m", "planmark", command, *argv, *args],
                              capture_output=True, env=package_env())

    printed = planmark_bytes()
    assert printed.returncode == 0 and printed.stdout
    out = tmp_path / "out.txt"
    result = planmark_bytes("--output", str(out))
    assert (result.returncode, result.stdout, result.stderr) == (0, b"", b"")
    assert out.read_bytes() == printed.stdout


def test_a_failing_command_leaves_its_output_file_alone(tmp_path):
    bad, out = tmp_path / "bad.kb", tmp_path / "out.txt"
    bad.write_text("(eq-prior 0.1)(schema a :isa b :prior 0.2)(schema b :isa a :prior 0.2)")
    out.write_text("earlier output\n")
    result = planmark("check", "--kb", str(bad), "--output", str(out))
    assert result.returncode == 1
    assert out.read_text() == "earlier output\n"


def test_run_may_write_its_report_over_its_input(kb_file, tmp_path):
    stream = tmp_path / "story.stream"
    stream.write_text("(inst supermarket2 supermarket)\n(inst go1 go)\n")
    expected = planmark("run", "--kb", kb_file, "--input", str(stream), *SPREAD_FLAGS)
    assert "counters reported=1 " in expected.stdout
    result = planmark("run", "--kb", kb_file, "--input", str(stream),
                      "--output", str(stream), *SPREAD_FLAGS)
    assert result.returncode == 0
    assert stream.read_text() == expected.stdout


def test_run_help_names_the_class_defaults():
    result = planmark("run", "--help")
    assert result.returncode == 0
    assert "(default 30.0)" in " ".join(result.stdout.split())


def test_synth_help_names_the_class_defaults():
    result = planmark("synth", "--help")
    assert result.returncode == 0
    text = " ".join(result.stdout.split())
    for flag, default in (("--stories", SynthParams.n_stories),
                          ("--plans", SynthParams.n_plans),
                          ("--density", SynthParams.corroboration_density)):
        assert re.search(rf"{flag} [A-Z]+ [^()]*\(default {default!r}\)", text), flag


def test_synth_writes_files(tmp_path):
    prefix = str(tmp_path / "story-")
    result = planmark("synth", "--seed", "7", "--stories", "3",
                      "--out-kb", str(tmp_path / "synth.kb"),
                      "--out-streams", prefix)
    assert result.returncode == 0
    assert (tmp_path / "synth.kb").exists()
    streams = sorted(tmp_path.glob("story-*.stream"))
    assert len(streams) == 3
    # The temporary siblings the files were written to are gone.
    assert sorted(tmp_path.iterdir()) == sorted([tmp_path / "synth.kb", *streams])
    again = planmark("synth", "--seed", "7", "--stories", "3")
    assert again.returncode == 0
    assert "(eq-prior" in again.stdout


def test_a_failing_synth_leaves_its_files_alone(tmp_path):
    # Each file is written to a temporary sibling, and the siblings replace
    # their files only once all are written.  A stream prefix in a missing
    # directory used to leave the new base in --out-kb.
    kb_file = tmp_path / "kb.txt"
    kb_file.write_bytes(b"old\n")
    result = planmark("synth", "--seed", "1", "--out-kb", str(kb_file),
                      "--out-streams", str(tmp_path / "nodir" / "s"))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: [Errno 2] No such file or directory: ")
    assert str(tmp_path / "nodir" / "s000.stream.") in result.stderr
    assert kb_file.read_bytes() == b"old\n"
    assert list(tmp_path.iterdir()) == [kb_file]


def test_a_synth_onto_a_directory_replaces_nothing(tmp_path, monkeypatch):
    # A directory fails its replace, and it used to fail only after the
    # files before it were replaced: here kb.txt and s000.stream.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kb.txt").write_bytes(b"old\n")
    (tmp_path / "s001.stream").mkdir()
    listing = sorted(tmp_path.iterdir())
    result = subprocess.run([sys.executable, "-m", "planmark", "synth", "--seed", "1",
                             "--stories", "3", "--out-kb", "kb.txt", "--out-streams", "s"],
                            capture_output=True, text=True, env=package_env())
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "error: [Errno 21] Is a directory: 's001.stream'\n"
    assert (tmp_path / "kb.txt").read_bytes() == b"old\n"
    assert sorted(tmp_path.iterdir()) == listing
    assert list(tmp_path.glob("*.tmp")) == []


@pytest.mark.parametrize("flag, value", [("--plans", "0"), ("--stories", "-3")])
def test_synth_count_below_one_is_a_usage_error(flag, value):
    result = planmark("synth", "--seed", "1", "--stories", "2", flag, value)
    assert result.returncode == 2
    assert result.stdout == ""
    assert flag in result.stderr


def test_synth_takes_no_kb():
    result = planmark("synth", "--seed", "1", "--kb", "x", "--plans", "1", "--stories", "1")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "--kb" in result.stderr


@pytest.mark.parametrize("flag", ["--out-kb", "--out-streams"])
def test_synth_output_with_a_file_flag_is_a_usage_error_leaving_output_alone(tmp_path, flag):
    # The corpus goes either to --output or to the files the other flags
    # name; with both, --output used to be emptied.
    output = tmp_path / "corpus.txt"
    output.write_text("kept\n")
    result = planmark("synth", "--seed", "1", "--output", str(output),
                      flag, str(tmp_path / "synth"))
    assert result.returncode == 2
    assert result.stdout == ""
    assert f"argument --output: not allowed with argument {flag}" in result.stderr
    assert output.read_text() == "kept\n"
    assert list(tmp_path.iterdir()) == [output]


@pytest.mark.parametrize("density", ["nan", "5"])
def test_synth_density_outside_unit_interval_exits_one(density):
    result = planmark("synth", "--seed", "1", "--stories", "2", "--density", density)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "error: corroboration density must be in [0,1]\n"


def test_domain_error_exits_one(kb_file):
    result = planmark("score", "--kb", kb_file, "--path", "(inst a ghost)(isa x y)(inst b y)")
    assert result.returncode == 1
    assert result.stderr.startswith("error:")


def test_missing_kb_file_exits_one():
    result = planmark("check", "--kb", "/nonexistent/kb")
    assert result.returncode == 1


def test_usage_error_exits_two(kb_file):
    assert planmark("frobnicate").returncode == 2
    assert planmark("score").returncode == 2
    unknown = planmark("paths", "--kb", kb_file, "--start", "(inst a supermarket)",
                       "--end", "(inst b go)")
    assert unknown.returncode == 2
    assert "invalid choice" in unknown.stderr


@pytest.mark.parametrize("command,flag,value", [
    ("run", "--max-depth", "x"),
    ("synth", "--stories", "2.5"),
    ("synth", "--plans", "0"),
    ("score", "--beliefs", "1.0"),
    ("score", "--beliefs", "a,b"),
], ids=["max-depth-x", "stories-2.5", "plans-0", "beliefs-one", "beliefs-not-numbers"])
def test_a_malformed_option_value_is_a_usage_error_naming_the_flag(kb_file, command, flag,
                                                                    value):
    source = ["--seed", "1"] if command == "synth" else ["--kb", kb_file]
    if command == "score":
        source += ["--path", FIG31_TEXT]
    result = planmark(command, *source, flag, value, stdin="")
    assert result.returncode == 2
    assert result.stdout == ""
    assert f"argument {flag}: " in result.stderr, result.stderr
    assert "Traceback" not in result.stderr
    assert "_beliefs" not in result.stderr


@pytest.mark.parametrize("command", [
    ("run",),
])
def test_max_depth_below_one_is_a_usage_error(kb_file, command):
    result = planmark(*command, "--kb", kb_file, "--max-depth", "0", stdin="")
    assert result.returncode == 2
    assert "--max-depth" in result.stderr


def test_readme_cli_block_names_every_subcommand():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    documented = [line.split()[1] for line in block.splitlines()
                  if line.startswith("planmark ")]
    (subcommands,) = [action.choices for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    assert sorted(documented) == sorted(subcommands)


def test_every_option_is_read(kb_file, tmp_path, monkeypatch, capsys):
    # A flag that no code path reads is accepted and ignored.  Run each
    # subcommand in process on a minimal argv, record which attributes of
    # the parsed namespace it reads, and require every option it takes.
    stream = tmp_path / "story.stream"
    stream.write_text("(inst supermarket2 supermarket)\n(inst go1 go)\n")
    path = ["--kb", kb_file, "--path", FIG31_TEXT]
    argvs = {
        "check": ["--kb", kb_file],
        "run": ["--kb", kb_file, "--input", str(stream)],
        "score": path, "translate": path, "network": path, "eval": path,
        "synth": ["--seed", "1", "--plans", "1", "--stories", "1"],
    }
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    def recording_parser(build=cli.build_parser):
        parser = build()
        parse_args = parser.parse_args

        def parse_then_record(argv):
            args = parse_args(argv, namespace=Recording())
            reads.clear()  # argparse reads the namespace while it fills it
            return args

        parser.parse_args = parse_then_record
        return parser

    (subcommands,) = [action.choices for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    monkeypatch.setattr(cli, "build_parser", recording_parser)
    unread = {}
    for command, subparser in subcommands.items():
        assert cli.main([command, *argvs[command]]) == 0
        options = {action.dest for action in subparser._actions
                   if not isinstance(action, argparse._HelpAction)}
        if options - reads:
            unread[command] = options - reads
    capsys.readouterr()
    assert unread == {}

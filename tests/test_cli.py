import pytest

from conftest import FIG31_TEXT, FIXTURE_KB_TEXT, planmark

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
    assert "counters reported=1 asserted=1 evaluated=1 approved=0" in result.stdout
    assert f"path {FIG31_TEXT}" in result.stdout


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


def test_run_is_byte_identical(kb_file, tmp_path):
    stream_file = tmp_path / "story.stream"
    stream_file.write_text("(inst supermarket2 supermarket)\n(inst go1 go)\n")
    args = ("run", "--kb", kb_file, "--input", str(stream_file), *SPREAD_FLAGS)
    assert planmark(*args).stdout == planmark(*args).stdout


def test_paths_command(kb_file):
    result = planmark("paths", "--kb", kb_file,
                      "--start", "(inst supermarket2 supermarket)",
                      "--end", "(inst go1 go)", "--max-depth", "6")
    assert result.returncode == 0
    assert result.stdout == FIG31_TEXT + "\n"


def test_paths_command_checks_its_observations(kb_file):
    result = planmark("paths", "--kb", kb_file,
                      "--start", "(inst supermarket2 supermarket :belief 5)",
                      "--end", "(inst go1 go)")
    assert result.returncode == 1
    assert result.stderr == "error: belief must be in (0,1], got 5.0\n"


def test_output_flag_writes_file(kb_file, tmp_path):
    out = tmp_path / "score.txt"
    result = planmark("score", "--kb", kb_file, "--path", FIG31_TEXT,
                      "--beliefs", "0.9,0.9", "--output", str(out))
    assert result.returncode == 0
    assert result.stdout == ""
    assert out.read_text() == "16.2\n"


def test_synth_writes_files(tmp_path):
    prefix = str(tmp_path / "story-")
    result = planmark("synth", "--seed", "7", "--stories", "3",
                      "--out-kb", str(tmp_path / "synth.kb"),
                      "--out-streams", prefix)
    assert result.returncode == 0
    assert (tmp_path / "synth.kb").exists()
    streams = sorted(tmp_path.glob("story-*.stream"))
    assert len(streams) == 3
    again = planmark("synth", "--seed", "7", "--stories", "3")
    assert again.returncode == 0
    assert "(eq-prior" in again.stdout


def test_domain_error_exits_one(kb_file):
    result = planmark("score", "--kb", kb_file, "--path", "(inst a ghost)(isa x y)(inst b y)")
    assert result.returncode == 1
    assert result.stderr.startswith("error:")


def test_missing_kb_file_exits_one():
    result = planmark("check", "--kb", "/nonexistent/kb")
    assert result.returncode == 1


def test_usage_error_exits_two():
    assert planmark("frobnicate").returncode == 2
    assert planmark("score").returncode == 2


@pytest.mark.parametrize("command", [
    ("run",),
    ("paths", "--start", "(inst a supermarket)", "--end", "(inst b go)"),
])
def test_max_depth_below_one_is_a_usage_error(kb_file, command):
    result = planmark(*command, "--kb", kb_file, "--max-depth", "0", stdin="")
    assert result.returncode == 2
    assert "--max-depth" in result.stderr

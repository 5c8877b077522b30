import contextlib
import hashlib
import io
import re
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wardcart import cli
from wardcart.arena import default_map
from wardcart.cli import ScenarioError, _apply_overrides, build_parser, load_scenario, main
from wardcart.simcore import CONFIG_KEYS, SimConfig, run_scenario
from wardcart.vision import pipeline
from wardcart.vision.pipeline import detect_in_binary, detect_placards

from test_simcore import scalar_deviation

REPO = Path(__file__).resolve().parent.parent

# ward 3 on a single edge from the pharmacy: no ward 2, and no edge before
# ward 3's junction for a follower to pause on
WARD3_MAP = """\
node p 0 0
node w 0 1
edge e1 p w
ward 3 w
pharmacy p
width 0.30
"""

# a node and the corridor width that float() parses but no raster can hold
NAN_MAP = """\
node p 0 0
node a nan 1
edge e p a
ward 1 a
pharmacy p
width nan
"""

# a node that float() parses but that lies far outside any arena
FAR_MAP = """\
node p 0 0
node a 1e308 0
edge e p a
ward 1 a
pharmacy p
"""

WARD2 = """\
map = builtin:default
carts = 1
ward = 2
seed = 0
max_ticks = 9000
expected = delivered_and_returned
"""


@pytest.fixture()
def ward2_scn(tmp_path):
    p = tmp_path / "ward2.scn"
    p.write_text(WARD2)
    return p


def test_run_writes_trace_and_exits_zero(tmp_path, ward2_scn, capsys):
    trace = tmp_path / "out.csv"
    code = main(["run", str(ward2_scn), "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0
    assert trace.exists()
    assert "delivered_and_returned" in out


@pytest.mark.parametrize("deviation,shown", [
    (0.0, "0.000"), (0.0194, "0.019"), (999_999.25, "999999.250"), (1e6, "1.000e+06"),
    (2.5e300, "2.500e+300"), (float("inf"), "inf")])
def test_the_summary_prints_a_line_deviation_of_any_size_short(deviation, shown):
    report = run_scenario(default_map(), SimConfig(max_ticks=1))
    summary = cli._report_summary(replace(report, line_deviations=(deviation,)))
    assert f"  max_line_deviation={shown}m" in summary


def test_a_run_that_leaves_the_map_prints_a_short_summary(tmp_path, capsys):
    # the cart leaves the map in its first moving tick, and its line
    # deviation is about 2.4e297 m
    scn = tmp_path / "huge_dt.scn"
    scn.write_text("map = builtin:default\nward = 2\ndt = 1e300\nmax_ticks = 200\n")
    assert main(["run", str(scn)]) == 0
    summary = capsys.readouterr().out.splitlines()[0]
    assert re.fullmatch(r"cart0: \w+ .* max_line_deviation=\d\.\d{3}e\+\d{3}m", summary)
    assert len(summary) < 100


def test_missing_scenario_exits_two(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.scn")])
    assert code == 2
    assert "scenario not found" in capsys.readouterr().err


def test_same_seed_gives_identical_trace_files(tmp_path, ward2_scn):
    t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", str(ward2_scn), "--trace", str(t1), "--seed", "7"]) == 0
    assert main(["run", str(ward2_scn), "--trace", str(t2), "--seed", "7"]) == 0
    assert t1.read_bytes() == t2.read_bytes()


def test_suite_passes_on_good_scenarios(capsys, monkeypatch):
    # every shipped scenario; each run's line deviations must also equal the
    # per-sample reference by value and type
    runs = []

    def run(track, config):
        report = run_scenario(track, config)
        runs.append((track, report))
        return report

    monkeypatch.setattr(cli, "run_scenario", run)
    code = main(["suite", str(REPO / "scenarios")])
    out = capsys.readouterr().out
    shipped = len(list((REPO / "scenarios").glob("*.scn")))
    assert code == 0
    assert f"{shipped}/{shipped} scenarios passed" in out
    assert "ward  recognized  delivered  outcome" in out  # no tier column
    assert len(runs) == shipped
    for track, report in runs:
        want = tuple(scalar_deviation(track, report.samples, cart)
                     for cart in range(len(report.outcomes)))
        assert report.line_deviations == want
        assert all(type(d) is float for d in report.line_deviations)


def test_suite_empty_directory_is_ok(tmp_path, capsys):
    code = main(["suite", str(tmp_path)])
    assert code == 0
    assert "0/0 scenarios passed" in capsys.readouterr().out


def test_suite_flags_failed_coordination(tmp_path, capsys):
    (tmp_path / "dead_link.scn").write_text("""\
map = builtin:default
carts = 2
ward = 3
seed = 0
max_ticks = 1200
link.drop = 1.0
expected = delivered_and_returned
""")
    code = main(["suite", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL]" in out


def test_scenario_parser_rejects_bad_input(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("ward: 2\n")
    with pytest.raises(ScenarioError, match="key = value"):
        load_scenario(bad)
    bad.write_text("wardx = 2\n")
    with pytest.raises(ScenarioError, match="unknown keys"):
        load_scenario(bad)
    bad.write_text("expected = flies_home\n")
    with pytest.raises(ScenarioError, match="unknown expected"):
        load_scenario(bad)


def test_scenario_overrides_noise_flags(tmp_path, ward2_scn, capsys):
    code = main(["run", str(ward2_scn), "--noise", "8", "--k1", "0.05",
                 "--max-ticks", "9000"])
    assert code == 0


def test_vision_corpus_clean_subset_is_perfect(tmp_path, capsys):
    out = tmp_path / "corpus.csv"
    code = main(["vision-corpus", str(out), "--k1", "0", "--brightness", "0",
                 "--noise", "0"])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "accuracy=1.0000" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "label,predicted,score,k1,brightness,noise"
    assert len(lines) == 1 + 8 * 5 * 3  # digits x shifts_x x shifts_y


def test_corpus_lines_are_unchanged():
    # every brightness and sigma of one card scene in a row: the exposures
    # that share the scene's ink. The sha256 of the lines was computed before
    # render reused that ink, so a change to any line fails here
    lines = []
    counts = cli.run_corpus([0.0, 0.05], [-30.0, 30.0], [0.0, 8.0], out_lines=lines)
    assert counts == (960, 955, 0, 0, 5, 0)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "37a4077db1cd4101a9a49cb6d45e868e4fbcec5dd2fd3cb922d6ca11f2cacfc8"


def test_default_corpus_lines_are_unchanged():
    # the grid of `wardcart vision-corpus` with its default lists, every frame
    # in order and with its seed; the sha256 was computed before each card
    # was placed once for all its exposures
    lines = []
    counts = cli.run_corpus([0.0, 0.05, 0.1], [-30.0, 0.0, 30.0], [0.0, 8.0], out_lines=lines)
    assert counts == (2160, 2150, 120, 120, 10, 0)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "03906d827bb06a251e53cc4f685ef1cd46077b5c0e70feb5352b1c69495a5b7b"


def test_corpus_reads_each_clean_scene_once(monkeypatch):
    # a scene's three unclipped exposures binarize to the same ink, so the
    # detection memo reads the bits of 120 scenes for 360 frames
    reads = []

    def spy(*args):
        reads.append(args)
        return detect_in_binary(*args)

    pipeline._read_default.cache_clear()
    monkeypatch.setattr(pipeline, "detect_in_binary", spy)
    counts = cli.run_corpus([0.0], [-30.0, 0.0, 30.0], [0.0])
    assert counts.total == 360 and counts.misread == 0
    assert len(reads) == 120


def test_vision_corpus_reports_unread_and_misread(tmp_path, capsys, monkeypatch):
    # one shift and one condition, 8 clean cards; the 3 also yields an 8 that
    # scores lower, which is a misread though the best detection is right,
    # and the 5 yields nothing
    def doctored(frame, cam, templates):
        dets = detect_placards(frame, cam, templates)
        if dets and dets[0].digit == 3:
            return dets + (replace(dets[0], digit=8, score=0.5),)
        if dets and dets[0].digit == 5:
            return ()
        return dets

    monkeypatch.setattr(cli, "CORPUS_SHIFTS_X", (0,))
    monkeypatch.setattr(cli, "CORPUS_SHIFTS_Y", (0,))
    monkeypatch.setattr(cli, "detect_placards", doctored)
    out = tmp_path / "corpus.csv"
    code = main(["vision-corpus", str(out), "--k1", "0", "--brightness", "0",
                 "--noise", "0"])
    assert code == 0
    assert "samples=8 accuracy=0.8750 unread=1 misread=1\n" in capsys.readouterr().out
    assert out.read_text().splitlines()[3].startswith("3,3,")


def test_vision_corpus_runs_a_huge_k1(tmp_path, capsys):
    # a card seen through k1 = 1e300 is blank, and the run goes on
    code = main(["vision-corpus", str(tmp_path / "k1.csv"), "--k1", "0,1e300",
                 "--brightness", "0", "--noise", "0"])
    assert code == 0
    assert "accuracy=0.5000" in capsys.readouterr().out


def test_vision_corpus_rejects_empty_grid(tmp_path, capsys):
    code = main(["vision-corpus", str(tmp_path / "x.csv"), "--k1", ""])
    assert code == 2
    assert "empty" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, argv", [
    ("carts = 3\n", ["run", "{scn}"]),
    ("ward = 9\n", ["run", "{scn}"]),
    ("noise.sigma = -1\n", ["run", "{scn}"]),
    ("", ["run", "{scn}", "--dt", "0"]),
    ("", ["run", "{scn}", "--k1", "-0.5"]),
    ("", ["vision-corpus", "{out}", "--noise", "-1"]),
    ("link.drop = 2\n", ["run", "{scn}"]),
    ("", ["run", "{scn}", "--latency", "-1"]),
    ("max_ticks = inf\n", ["run", "{scn}"]),
    ("noise.sigma = nan\n", ["run", "{scn}"]),
    ("carts = 1.7\n", ["run", "{scn}"]),
    ("ward = 2.9\n", ["run", "{scn}"]),
    ("", ["run", "{scn}", "--seed", "1.5"]),
    ("map = ward3.map\nward = 2\n", ["run", "{scn}"]),
    ("map = ward3.map\ncarts = 2\nward = 3\n", ["run", "{scn}"]),
    ("noise.brightness = nan\n", ["run", "{scn}"]),
    ("", ["vision-corpus", "{out}", "--brightness", "nan"]),
    ("seed = 18446744073709551617\n", ["run", "{scn}"]),
    ("seed = -1\n", ["run", "{scn}"]),
    ("", ["vision-corpus", "{out}", "--seed", "-1"]),
    ("", ["vision-corpus", "{out}", "--seed", "18446744073709551616"]),
    ("map = nan.map\nward = 1\n", ["run", "{scn}"]),
    ("map = far.map\nward = 1\n", ["run", "{scn}"]),
    ("map = width2.map\nward = 3\n", ["run", "{scn}"]),
    ("ward = 1\nward = 3\n", ["run", "{scn}"]),
    ("dt = 5e-324\n", ["run", "{scn}"]),
    ("dt = 1e308\n", ["run", "{scn}"]),
    ("pid.kp = 0.5\n", ["run", "{scn}"]),
], ids=["carts3", "ward9", "sigma_neg", "dt0", "k1_neg", "corpus_sigma_neg",
        "drop2", "latency_neg", "max_ticks_inf", "sigma_nan",
        "carts_fraction", "ward_fraction", "seed_fraction", "ward_not_in_map",
        "follower_one_edge_route", "brightness_nan", "corpus_brightness_nan",
        "seed_2_64_plus_1", "seed_neg", "corpus_seed_neg",
        "corpus_seed_2_64", "map_nan", "map_far", "map_width_twice", "key_twice",
        "dt_subnormal", "dt_huge", "folded_key"])
def test_bad_input_exits_two(tmp_path, capsys, scenario, argv):
    (tmp_path / "ward3.map").write_text(WARD3_MAP)
    (tmp_path / "nan.map").write_text(NAN_MAP)
    (tmp_path / "far.map").write_text(FAR_MAP)
    (tmp_path / "width2.map").write_text(WARD3_MAP + "width 0.10\n")
    scn = tmp_path / "bad.scn"
    scn.write_text(scenario)
    argv = [a.format(scn=scn, out=tmp_path / "out.csv") for a in argv]
    if argv[0] == "run":
        argv += ["--trace", str(tmp_path / "out.csv")]
    code = main(argv)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out.csv").exists()


# the cart's tuning values are module constants, and setting one is an error
@pytest.mark.parametrize("key", ["link.retry_interval", "pid.kp", "pid.ki", "pid.kd",
                                 "pid.integral_limit", "pid.output_limit", "drive.base_duty"])
def test_a_fixed_tuning_value_is_not_a_key(tmp_path, capsys, key):
    scn = tmp_path / "tuned.scn"
    scn.write_text(f"ward = 2\n{key} = 0.5\n")
    assert main(["run", str(scn), "--max-ticks", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"unknown keys ['{key}']" in err


# a Latin-1 byte in a comment: the files are read as UTF-8
NOT_UTF8 = b"# caf\xe9\n"


@pytest.mark.parametrize("argv", [
    ["run", "{dir}/latin1.scn"],
    ["run", "{dir}/latin1_map.scn"],
    ["suite", "{dir}"],
    ["render-map", "--map", "{dir}/latin1.map", "{dir}/out.svg"],
], ids=["scenario", "scenario_map", "suite", "render_map"])
def test_a_file_that_is_not_utf8_exits_two(tmp_path, capsys, argv):
    (tmp_path / "latin1.scn").write_bytes(b"ward = 2\n" + NOT_UTF8)
    (tmp_path / "latin1_map.scn").write_bytes(b"map = latin1.map\nward = 3\n")
    (tmp_path / "latin1.map").write_bytes(WARD3_MAP.encode() + NOT_UTF8)
    code = main([a.format(dir=tmp_path) for a in argv])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad ") and "latin1." in err and "utf-8" in err


@pytest.mark.parametrize("argv", [
    ["run", "{scn}", "--max-ticks", "5", "--trace", "{out}"],
    ["run", "{scn}", "--max-ticks", "5", "--svg", "{out}"],
    ["vision-corpus", "{out}", "--k1", "0", "--brightness", "0", "--noise", "0"],
    ["render-map", "{out}"],
], ids=["trace", "svg", "corpus", "render_map"])
def test_unwritable_output_path_exits_two(tmp_path, ward2_scn, capsys, argv):
    out = tmp_path / "no" / "such" / "dir" / "out.txt"
    code = main([a.format(scn=ward2_scn, out=out) for a in argv])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["run", "{scn}", "--trace", "{out}"],
    ["run", "{scn}", "--trace", "{ok}", "--svg", "{out}"],
    ["vision-corpus", "{out}"],
], ids=["trace", "svg", "corpus"])
def test_unwritable_output_path_fails_before_the_work(tmp_path, ward2_scn, capsys,
                                                     monkeypatch, argv):
    def never(*args, **kwargs):
        raise AssertionError("the work ran before its output was opened")

    monkeypatch.setattr(cli, "run_scenario", never)
    monkeypatch.setattr(cli, "run_corpus", never)
    out = tmp_path / "no" / "such" / "dir" / "out.txt"
    code = main([a.format(scn=ward2_scn, out=out, ok=tmp_path / "ok.csv") for a in argv])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


def test_trace_and_svg_on_one_path_leave_the_svg(tmp_path, ward2_scn):
    out = tmp_path / "both.txt"
    assert main(["run", str(ward2_scn), "--max-ticks", "300",
                 "--trace", str(out), "--svg", str(out)]) == 1
    svg = out.read_text()
    assert svg.startswith("<svg") and svg.endswith("</svg>\n")


def test_render_map_writes_svg(tmp_path):
    out = tmp_path / "map.svg"
    assert main(["render-map", str(out)]) == 0
    assert out.read_text().startswith("<svg")


def test_render_map_missing_file(tmp_path, capsys):
    assert main(["render-map", "--map", str(tmp_path / "no.map"),
                 str(tmp_path / "x.svg")]) == 2


@pytest.mark.parametrize("flag, value, key", [
    ("--seed", "7", "seed"),
    ("--dt", "0.01", "dt"),
    ("--max-ticks", "500", "max_ticks"),
    ("--noise", "4", "noise.sigma"),
    ("--k1", "0.05", "noise.k1"),
    ("--drop", "0.3", "link.drop"),
    ("--latency", "5", "link.latency"),
])
def test_run_flag_equals_its_scenario_key(tmp_path, ward2_scn, flag, value, key):
    args = build_parser().parse_args(["run", str(ward2_scn), flag, value])
    overridden = _apply_overrides(load_scenario(ward2_scn), args).config
    in_file = tmp_path / "in_file.scn"
    # a key may appear once, so the file's own line gives way to the new one
    kept = [line for line in WARD2.splitlines(keepends=True)
            if line.partition("=")[0].strip() != key]
    in_file.write_text("".join(kept) + f"{key} = {value}\n")
    assert overridden == load_scenario(in_file).config
    assert overridden != load_scenario(ward2_scn).config


@pytest.mark.parametrize("path", sorted((REPO / "scenarios").glob("*.scn")),
                         ids=lambda p: p.stem)
def test_shipped_scenario_loads(path):
    scn = load_scenario(path)
    assert scn.expected is not None
    assert len(scn.config.wards) == scn.config.carts


def test_readme_lists_every_scenario_key():
    # exactly the keys, so a folded key cannot linger in the documented block
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Scenario files", 1)[1].split("```")[1]
    listed = [line.split("=")[0].strip() for line in block.splitlines() if "=" in line]
    assert sorted(listed) == sorted({key for key, _ in CONFIG_KEYS} | {"map", "expected"})


def test_one_cart_run_ignores_ward2(tmp_path, capsys):
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    (tmp_path / "readme.scn").write_text(readme.split("### Scenario files", 1)[1].split("```")[1])
    assert load_scenario(tmp_path / "readme.scn").config.wards == (4,)
    scn = tmp_path / "ward2_key.scn"
    scn.write_text("carts = 1\nward = 4\nward2 = 5\n")
    assert main(["run", str(scn), "--max-ticks", "50"]) == 0
    assert "cart1" not in capsys.readouterr().out


# ------------------------------------------- generated scenarios and flags

# values a key takes, and odd spellings that float() or int() may take:
# underscores, hex, huge and tiny magnitudes, signed zero, a Unicode digit,
# non-finite values and nothing
PLAIN_VALUES = ["0", "1", "2", "3", "4", "8", "0.05", "0.5", "30", "incomplete",
                "builtin:default"]
ODD_VALUES = ["9", "-1", "-0", "1_0", "0x10", "nan", "inf", "-inf", "1e18", "1e300",
              "1e308", "1e-320", "-0.34", str(2 ** 64), str(10 ** 40), "\u0663", "",
              "missing.map", "fault"]
plain = st.sampled_from(PLAIN_VALUES)
# plain values weigh three times, so about a fifth of the cases run the engine
value_text = st.one_of(plain, plain, plain, st.sampled_from(ODD_VALUES),
                       st.integers(-(2 ** 70), 2 ** 70).map(str),
                       st.floats(allow_nan=True, allow_infinity=True).map(repr))
scenario_line = st.tuples(
    st.sampled_from([key for key, _ in CONFIG_KEYS] + ["map", "expected", "pid.kp"]),
    st.sampled_from(["=", " = ", "\t=  "]), value_text)
RUN_FLAGS = ["--seed", "--dt", "--noise", "--k1", "--drop", "--latency"]


@given(lines=st.lists(scenario_line, max_size=4, unique_by=lambda line: line[0]),
       flags=st.lists(st.tuples(st.sampled_from(RUN_FLAGS), value_text), max_size=2),
       max_ticks=st.integers(0, 30), crlf=st.booleans())
@example(lines=[("noise.k1", " = ", "1e300")], flags=[], max_ticks=3, crlf=False)
@example(lines=[("carts", "=", "2")], flags=[("--k1", "1e18")], max_ticks=3, crlf=True)
@settings(max_examples=300, deadline=None)
def test_any_scenario_and_run_flags_exit_cleanly(lines, flags, max_ticks, crlf):
    # on the default map only: a generated map may ask for a raster of gigabytes
    text = ("\r\n" if crlf else "\n").join(f"{k}{sep}{v}" for k, sep, v in lines)
    # --flag=value, so argparse takes a value such as -inf as the flag's
    argv = [f"{flag}={value}" for flag, value in flags] + [f"--max-ticks={max_ticks}"]
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error", RuntimeWarning)
        scn = Path(tmp) / "gen.scn"
        scn.write_text(text, encoding="utf-8")
        assert main(["run", str(scn), *argv]) in (0, 1, 2)


# values each list takes, and odd entries; repeats come from drawing a value
# twice. Plain values weigh three times, so about a quarter of the cases run a grid
CORPUS_ODD = ["-1", "-0.34", "nan", "inf", "-inf", "1e300", "-1e300", "", " ", "x"]


def corpus_list(*plain):
    value = st.one_of(*[st.sampled_from(plain)] * 3, st.sampled_from(CORPUS_ODD))
    return st.lists(value, min_size=1, max_size=2).map(",".join)


@given(k1s=corpus_list("0", "0.05", "0.1"), brightnesses=corpus_list("-30", "0", "30"),
       sigmas=corpus_list("0", "8"))
@example(k1s="0,0", brightnesses="1e300,", sigmas="8,8")
@example(k1s="1e300", brightnesses="-30", sigmas="-1")
@settings(max_examples=200, deadline=None)
def test_any_vision_corpus_lists_exit_cleanly(k1s, brightnesses, sigmas):
    # one shift, so a grid is at most 8 digits x 2 x 2 x 2 frames
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp, \
            warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error", RuntimeWarning)
        mp.setattr(cli, "CORPUS_SHIFTS_X", (0,))
        mp.setattr(cli, "CORPUS_SHIFTS_Y", (0,))
        argv = ["vision-corpus", str(Path(tmp) / "c.csv"), f"--k1={k1s}",
                f"--brightness={brightnesses}", f"--noise={sigmas}"]
        assert main(argv) in (0, 1, 2)

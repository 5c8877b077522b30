import pytest

from wardcart.cli import main, load_scenario, ScenarioError

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


def test_missing_scenario_exits_two(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.scn")])
    assert code == 2
    assert "scenario not found" in capsys.readouterr().err


def test_same_seed_gives_identical_trace_files(tmp_path, ward2_scn):
    t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", str(ward2_scn), "--trace", str(t1), "--seed", "7"]) == 0
    assert main(["run", str(ward2_scn), "--trace", str(t2), "--seed", "7"]) == 0
    assert t1.read_bytes() == t2.read_bytes()


def test_suite_passes_on_good_scenarios(tmp_path, capsys):
    for w in (1, 2):
        (tmp_path / f"ward{w}.scn").write_text(WARD2.replace("ward = 2", f"ward = {w}"))
    code = main(["suite", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "2/2 scenarios passed" in out
    assert "near" in out


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
link.retry_interval = 0
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
], ids=["carts3", "ward9", "sigma_neg", "dt0", "k1_neg", "corpus_sigma_neg"])
def test_bad_input_exits_two(tmp_path, capsys, scenario, argv):
    scn = tmp_path / "bad.scn"
    scn.write_text(scenario)
    code = main([a.format(scn=scn, out=tmp_path / "out.csv") for a in argv])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out.csv").exists()


def test_render_map_writes_svg(tmp_path):
    out = tmp_path / "map.svg"
    assert main(["render-map", str(out)]) == 0
    assert out.read_text().startswith("<svg")


def test_render_map_missing_file(tmp_path, capsys):
    assert main(["render-map", "--map", str(tmp_path / "no.map"),
                 str(tmp_path / "x.svg")]) == 2

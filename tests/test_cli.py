import json
import os
import subprocess
import sys

import pytest

import holonorm
from holonorm import __version__
from holonorm.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNormCommand:
    def test_zero_sup(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, err = run_cli(
            ["norm", "--expr", "0*x1", "--dim", "1", "--box", "0,1", "--res", "64",
             "--kind", "sup", "--out", str(out_path)], capsys)
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["report"]["value"] == 0.0
        assert payload["version"] == __version__
        assert payload["config"]["expr"] == "0*x1"

    def test_holder_seminorm_of_identity(self, capsys):
        code, out, _ = run_cli(
            ["norm", "--expr", "x1", "--dim", "1", "--box", "0,1", "--res", "64",
             "--kind", "holder", "--l", "0.5"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["value"] == 1.0

    def test_parabolic_norm_via_cli(self, capsys):
        code, out, _ = run_cli(
            ["norm", "--expr", "x1*t", "--dim", "1", "--box", "0,1", "--T", "1",
             "--res", "8", "--kind", "parabolic", "--l", "0.5"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["kind"] == "parabolic"

    def test_malformed_csv_exit_2_with_row(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,u\n0.0,1\nnope,2\n1.0,3\n")
        code, _, err = run_cli(["norm", "--csv", str(bad), "--kind", "sup"], capsys)
        assert code == 2
        assert "row 3" in err

    def test_expression_domain_error_exit_2(self, capsys):
        for args in (["norm", "--kind", "sup"],
                     ["check", "--variant", "2.3.1", "--l2", "1.5", "--p", "2"]):
            code, out, err = run_cli(args + ["--expr", "log(x1-2)", "--dim", "1", "--T", "1",
                                             "--res", "4"], capsys)
            assert code == 2, args
            assert out == ""
            assert err == "error: domain error in 'log(x1-2.0)': log of a negative value\n"

    def test_overflowing_difference_exit_2(self, capsys):
        # the default order at l = 2.5 is 3, and fl(3 * 1e308) overflows
        code, out, err = run_cli(["norm", "--kind", "dq", "--l", "2.5", "--expr", "1e308",
                                  "--dim", "1", "--T", "1", "--res", "8"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: joint differences of order 3 overflow: a slab's largest is nan\n"

    def test_missing_input_exit_2(self, capsys):
        code, _, err = run_cli(["norm", "--kind", "sup"], capsys)
        assert code == 2
        assert "error:" in err

    def test_missing_p_named(self, capsys):
        code, _, err = run_cli(
            ["norm", "--expr", "x1", "--dim", "1", "--res", "8", "--kind", "lp"], capsys)
        assert code == 2
        assert "--p is required" in err

    def test_infinite_p_exit_2(self, capsys):
        for args in (["norm", "--kind", "lp"], ["norm", "--kind", "sup-t-lp"],
                     ["check", "--variant", "2.3.1", "--l2", "0.5"]):
            code, out, err = run_cli(args + ["--p", "inf", "--expr", "3*sin(2*pi*x1)", "--dim",
                                             "1", "--T", "1", "--res", "8"], capsys)
            assert code == 2, args
            assert "finite" in err and out == ""

    def test_dq_lt_without_k_is_honoured(self, capsys):
        code, out, _ = run_cli(
            ["norm", "--expr", "x1*t", "--T", "1", "--res", "8", "--kind", "dq",
             "--form", "split", "--l", "1.5", "--lt", "3"], capsys)
        assert code == 0
        assert json.loads(out)["report"]["params"]["l_t"] == 3

    def test_missing_l2_named(self, capsys):
        code, _, err = run_cli(
            ["check", "--variant", "2.3.1", "--dim", "1", "--p", "2",
             "--expr", "x1*t", "--T", "1", "--res", "8"], capsys)
        assert code == 2
        assert "--l2 is required" in err

    def test_res_per_axis(self, capsys):
        # 32 x 16 steps: the sup of x1*x2 sits at the last node of each axis,
        # and every one of the 33 * 17 nodes is examined
        code, out, _ = run_cli(["norm", "--expr", "x1*x2", "--dim", "2", "--res", "32,16",
                                "--kind", "sup"], capsys)
        assert code == 0
        report = json.loads(out)["report"]
        assert report["witness"]["node"] == [32, 16, 0]
        assert report["pairs_examined"] == 33 * 17

    def test_res_with_too_many_axes_exit_2(self, capsys):
        code, out, err = run_cli(["norm", "--expr", "x1", "--dim", "2", "--res", "8,8,8",
                                  "--kind", "sup"], capsys)
        assert (code, out) == (2, "")
        assert "error: --res needs 1 or 2 integers, got '8,8,8'" in err

    def test_one_box_group_applies_to_every_axis(self, capsys):
        code, out, _ = run_cli(["norm", "--expr", "x1*x2", "--dim", "2", "--box", "0,2",
                                "--res", "4", "--kind", "sup"], capsys)
        assert code == 0
        report = json.loads(out)["report"]
        assert report["value"] == 4.0
        assert report["witness"]["x"] == [2.0, 2.0]

    def test_malformed_box_group_exit_2(self, capsys):
        code, out, err = run_cli(["norm", "--expr", "x1", "--box", "0,1,2", "--res", "4",
                                  "--kind", "sup"], capsys)
        assert (code, out) == (2, "")
        assert "error: --box group '0,1,2' must be 'lo,hi'" in err

    def test_elliptic_norm_on_a_spatial_grid(self, capsys):
        # sup |x1| = 1 plus the 0.5-Hoelder seminorm of x1 on [0, 1], also 1
        code, out, _ = run_cli(["norm", "--expr", "x1", "--res", "8", "--kind", "elliptic",
                                "--l", "0.5"], capsys)
        assert code == 0
        report = json.loads(out)["report"]
        assert (report["kind"], report["value"]) == ("elliptic", 2.0)
        assert sorted(report["breakdown"].values()) == [1.0, 1.0]

    def test_norm_records_its_default_lattice(self, capsys):
        # the box [0, 1] and T = 0 are defaults that no flag names
        code, out, _ = run_cli(["norm", "--expr", "x1", "--kind", "sup", "--res", "8"], capsys)
        assert code == 0
        assert json.loads(out)["resolution"] == {
            "N": 1, "spatial_steps": [8], "time_steps": 0, "box": [[0.0, 1.0]], "T": 0.0}

    def test_norm_records_the_lattice_of_a_csv(self, capsys, tmp_path):
        grid = tmp_path / "grid.csv"
        grid.write_text("x1,t,u\n" + "".join(f"{x},{t},{x * t}\n" for t in (0.0, 0.25)
                                              for x in (1.0, 1.5, 2.0)))
        code, out, _ = run_cli(["norm", "--csv", str(grid), "--kind", "sup"], capsys)
        assert code == 0
        assert json.loads(out)["resolution"] == {
            "N": 1, "spatial_steps": [2], "time_steps": 1, "box": [[1.0, 2.0]], "T": 0.25}

    def test_overflowing_literal_exit_2(self, capsys):
        code, out, err = run_cli(["norm", "--expr", "max(1e400, x1)", "--res", "4",
                                  "--kind", "sup"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: number '1e400' at offset 4 overflows\n"

    @pytest.mark.parametrize("kind, flag", [("holder", "alpha"), ("holder-time", "exponent")])
    def test_holder_without_its_exponent_exit_2(self, capsys, kind, flag):
        code, out, err = run_cli(["norm", "--expr", "x1*t", "--T", "1", "--res", "4",
                                  "--kind", kind], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --{flag} (or --l) is required for --kind {kind}\n"


class TestCheckCommand:
    def test_trivial_zero_function(self, capsys):
        code, out, _ = run_cli(
            ["check", "--variant", "2.3.1", "--dim", "1", "--l2", "1.5", "--p", "2",
             "--expr", "0*x1", "--T", "1", "--res", "8"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["reports"][0]["status"] == "trivial"

    def test_csv_grid_with_dim(self, capsys, tmp_path):
        # --dim sets the spec's N beside a CSV grid, so it is read, not rejected
        grid = tmp_path / "grid.csv"
        grid.write_text("x1,u\n0.0,0.5\n0.5,1.0\n1.0,0.25\n")
        code, out, _ = run_cli(["check", "--variant", "2.11", "--l2", "1.5", "--p", "2",
                                "--csv", str(grid), "--dim", "1"], capsys)
        assert code == 0
        assert json.loads(out)["reports"][0]["resolution"]["spatial_steps"] == [2]

    @pytest.mark.parametrize("csv_name", ["series.csv", None], ids=["csv-out", "beside-out"])
    def test_sweep_reports_and_csv(self, capsys, tmp_path, csv_name):
        # without --csv-out the series goes beside --out, as check.csv
        out_path = tmp_path / "check.json"
        csv_path = tmp_path / (csv_name or "check.csv")
        code, _, err = run_cli(
            ["check", "--variant", "2.3.1", "--dim", "1", "--l2", "1.5", "--p", "2",
             "--expr", "sin(2*pi*x1)*exp(-t)", "--T", "1",
             "--sweep", "16,32,64", "--out", str(out_path)]
            + ["--csv-out", str(csv_path)] * (csv_name is not None), capsys)
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert len(payload["reports"]) == 3
        ratios = payload["sweep"]["ratios"]
        assert abs(ratios[1] / ratios[0] - 1) < 0.2
        assert abs(ratios[2] / ratios[1] - 1) < 0.2
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "resolution,ratio"
        assert len(lines) == 4
        assert csv_path.read_bytes().startswith(b"resolution,ratio\r\n16,")

    def test_failed_csv_write_leaves_no_temp_file(self, capsys, tmp_path):
        # an existing directory cannot be replaced by the CSV file
        csv_dir = tmp_path / "taken"
        csv_dir.mkdir()
        code, _, err = run_cli(
            ["check", "--variant", "2.3.1", "--dim", "1", "--l2", "1.5", "--p", "2",
             "--expr", "sin(2*pi*x1)*exp(-t)", "--T", "1", "--sweep", "8,16",
             "--csv-out", str(csv_dir)], capsys)
        assert code == 2
        assert "error:" in err
        assert list(tmp_path.glob(".holonorm-*")) == []
        assert list(csv_dir.iterdir()) == []

    def test_output_files_get_the_mode_open_gives(self, capsys, tmp_path):
        # new files follow the umask, as open() would create them; a file
        # that exists keeps its mode
        out_json, out_csv = tmp_path / "o.json", tmp_path / "o.csv"
        out_csv.write_text("")
        out_csv.chmod(0o640)
        old = os.umask(0o022)
        try:
            code, _, _ = run_cli(
                ["check", "--variant", "2.3.1", "--dim", "1", "--l2", "1.5", "--p", "2",
                 "--expr", "sin(2*pi*x1)*exp(-t)", "--T", "1", "--sweep", "8,16",
                 "--out", str(out_json), "--csv-out", str(out_csv)], capsys)
        finally:
            os.umask(old)
        assert code == 0
        assert out_json.stat().st_mode & 0o777 == 0o644
        assert out_csv.stat().st_mode & 0o777 == 0o640
        assert out_csv.read_text().startswith("resolution,ratio")

    def test_invalid_parameters_exit_2(self, capsys):
        code, _, err = run_cli(
            ["check", "--variant", "2.11", "--dim", "1", "--l1", "1", "--l2", "0.5",
             "--p", "2", "--expr", "x1", "--res", "8"], capsys)
        assert code == 2
        assert "l1 < l2" in err

    def test_unknown_variant_exit_2(self, capsys):
        code, _, err = run_cli(
            ["check", "--variant", "9.9", "--dim", "1", "--l2", "1.5", "--p", "2",
             "--expr", "x1", "--res", "8"], capsys)
        assert code == 2
        assert ("variant must be one of 2.1, 2.2, 2.3.1, 2.3.3, 2.10, 2.10.1, 2.11, "
                "got '9.9'") in err

    def test_violation_exit_code_mapping(self):
        # a violation report must map to exit code 1; the status itself is
        # unreachable with genuine grid data, so fabricate the report
        from unittest import mock
        import holonorm.cli as cli_mod

        real_check = cli_mod.check

        def fake_check(spec, u):
            rep = real_check(spec, u)
            rep.status = "violation"
            return rep

        with mock.patch.object(cli_mod, "check", fake_check):
            code = cli_mod.main(
                ["check", "--variant", "2.3.1", "--dim", "1", "--l2", "1.5",
                 "--p", "2", "--expr", "sin(x1)*exp(-t)", "--T", "1", "--res", "8"])
        assert code == 1


ZERO_FLAGS = {
    "norm-dim": ["norm", "--expr", "x1", "--dim", "0", "--res", "8", "--kind", "sup"],
    "check-dim": ["check", "--variant", "2.3.1", "--dim", "0", "--l2", "1.5", "--p", "2",
                  "--expr", "x1*exp(-t)", "--T", "1", "--res", "8"],
    "norm-tres": ["norm", "--expr", "x1*t", "--T", "1", "--res", "8", "--tres", "0",
                  "--kind", "sup"],
    "search-budget": ["search", "--variant", "2.11", "--dim", "1", "--l2", "1.5", "--p", "2",
                      "--budget", "0", "--res", "8"],
    "norm-lt": ["norm", "--expr", "x1*t", "--T", "1", "--res", "8", "--kind", "dq",
                "--form", "split", "--k", "2", "--l", "1.5", "--lt", "0"],
}


@pytest.mark.parametrize("args", list(ZERO_FLAGS.values()), ids=list(ZERO_FLAGS))
def test_flag_set_to_zero_is_validated_not_dropped(args, capsys):
    # a 0 is a value: it reaches the validation and fails there, rather
    # than being replaced by the default while the echoed config shows 0
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert "error:" in err


# (flag named in the error, arguments): each flag would be echoed under
# config while the grids it was meant to shape ignore it
EFFECTLESS_FLAGS = {
    "search-res-per-axis": ("--res", ["search", "--variant", "2.11", "--dim", "2", "--l2", "1.5",
                                      "--p", "2", "--budget", "1", "--res", "12,6"]),
    "check-sweep-res": ("--res", ["check", "--variant", "2.3.1", "--l2", "1.5", "--p", "2",
                                  "--expr", "x1*exp(-t)", "--T", "1", "--sweep", "8,16",
                                  "--res", "16", "--tres", "4"]),
    "check-tres-without-T": ("--tres", ["check", "--variant", "2.11", "--l2", "1.5", "--p", "2",
                                        "--expr", "x1", "--T", "0", "--tres", "5"]),
    "search-tres-elliptic-2.11": ("--tres", ["search", "--variant", "2.11", "--dim", "1",
                                             "--l2", "1.5", "--p", "2", "--budget", "1",
                                             "--res", "8", "--tres", "5"]),
    "search-tres-elliptic-2.1": ("--tres", ["search", "--variant", "2.1", "--l", "0.75",
                                            "--l2", "1.5", "--budget", "1", "--res", "8",
                                            "--tres", "5"]),
    "norm-sup-five-flags": ("--p", ["norm", "--expr", "x1", "--res", "8", "--kind", "sup",
                                       "--beta", "1", "--alpha", "0.3", "--p", "3", "--k", "2",
                                       "--form", "split"]),
    "norm-lp-alpha": ("--alpha", ["norm", "--expr", "x1", "--res", "8", "--kind", "lp",
                                  "--p", "2", "--alpha", "0.3"]),
    "norm-holder-l-beside-alpha": ("--l", ["norm", "--expr", "x1", "--res", "8",
                                           "--kind", "holder", "--alpha", "0.3", "--l", "0.5"]),
    "norm-dq-exponent": ("--exponent", ["norm", "--expr", "x1", "--res", "8", "--kind", "dq",
                                        "--l", "0.5", "--exponent", "0.5"]),
    # the joint form takes k-th differences along space-time shifts; only the
    # split form reads the time-difference order
    "norm-dq-lt-joint": ("--lt", ["norm", "--expr", "x1*t", "--T", "1", "--res", "8",
                                  "--kind", "dq", "--l", "0.5", "--lt", "3"]),
    # the CSV series is written only for a sweep
    "check-csv-out-without-sweep": ("--csv-out", ["check", "--variant", "2.3.1", "--l2", "1.5",
                                                  "--p", "2", "--expr", "x1*exp(-t)", "--T", "1",
                                                  "--res", "8", "--csv-out", "{csv}"]),
    "check-sweep-with-csv": ("--sweep", ["check", "--csv", "{csv}", "--sweep", "8,16",
                                         "--variant", "2.11", "--l2", "1.5", "--p", "2"]),
    "search-step-scale-without-refine": ("--step-scale", ["search", "--variant", "2.11",
                                                          "--l2", "1.5", "--p", "2",
                                                          "--budget", "1", "--res", "8",
                                                          "--step-scale", "0.5"]),
    # InterpSpec names the field that its variant does not read
    "check-l-on-2.3.1": ("l", ["check", "--variant", "2.3.1", "--l2", "1.5", "--p", "2",
                               "--l", "0.7", "--expr", "x1*exp(-t)", "--T", "1", "--res", "8"]),
    "check-p-on-2.2": ("p", ["check", "--variant", "2.2", "--l", "0.7", "--l2", "1.5",
                             "--p", "2", "--expr", "x1*exp(-t)", "--T", "1", "--res", "8"]),
    "search-l-on-2.11": ("l", ["search", "--variant", "2.11", "--l", "0.7", "--l2", "1.5",
                               "--p", "2", "--budget", "1", "--res", "8"]),
}
# with --csv the file fixes the grid; check still reads --dim for the spec's N
for _cmd, _extra in (("norm", ["--kind", "sup"]),
                     ("check", ["--variant", "2.11", "--l2", "1.5", "--p", "2"])):
    for _flag, _value in (("--expr", "sin(x1)"), ("--box", "0,2"), ("--T", "1"), ("--res", "64"),
                          ("--tres", "4")) + ((("--dim", "1"),) if _cmd == "norm" else ()):
        EFFECTLESS_FLAGS[f"{_cmd}-csv{_flag}"] = (
            _flag, [_cmd, "--csv", "{csv}", _flag, _value] + _extra)


@pytest.mark.parametrize("flag, args", list(EFFECTLESS_FLAGS.values()),
                         ids=list(EFFECTLESS_FLAGS))
def test_flag_without_effect_is_rejected(flag, args, capsys, tmp_path):
    grid = tmp_path / "grid.csv"
    grid.write_text("x1,u\n0.0,0.5\n0.5,1.0\n1.0,0.25\n")
    args = [str(grid) if a == "{csv}" else a for a in args]
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert f"error: {flag} " in err
    assert out == ""


@pytest.mark.parametrize("command", ["norm", "check"])
def test_seed_flag_is_for_search_only(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--expr", "x1", "--res", "8", "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


class TestSearchCommand:
    def _args(self, tmp_path, tag):
        return ["search", "--variant", "2.11", "--dim", "1", "--l2", "1.5",
                "--p", "2", "--family", "trig", "--budget", "10", "--seed", "5",
                "--res", "16", "--out", str(tmp_path / f"{tag}.json"),
                "--history-csv", str(tmp_path / f"{tag}.csv")]

    def test_deterministic_modulo_timestamp(self, capsys, tmp_path):
        assert run_cli(self._args(tmp_path, "a"), capsys)[0] == 0
        assert run_cli(self._args(tmp_path, "b"), capsys)[0] == 0
        a = json.loads((tmp_path / "a.json").read_text())
        b = json.loads((tmp_path / "b.json").read_text())
        a.pop("generated_at"), b.pop("generated_at")
        a["config"].pop("out"), b["config"].pop("out")
        a["config"].pop("history-csv"), b["config"].pop("history-csv")
        assert a == b
        assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()

    def test_constant_probe_reported(self, capsys, tmp_path):
        run_cli(self._args(tmp_path, "probe"), capsys)
        payload = json.loads((tmp_path / "probe.json").read_text())
        assert payload["constant_probe"]["ratio"] == pytest.approx(1.0, rel=1e-12)
        assert payload["result"]["best_ratio"] >= 0

    def test_history_csv_shape(self, capsys, tmp_path):
        run_cli(self._args(tmp_path, "hist"), capsys)
        lines = (tmp_path / "hist.csv").read_text().strip().splitlines()
        assert lines[0] == "iteration,best_ratio"
        assert len(lines) == 11

    def test_budget_one(self, capsys, tmp_path):
        code, _, _ = run_cli(
            ["search", "--variant", "2.11", "--dim", "1", "--l2", "1.5", "--p", "2",
             "--family", "trig", "--budget", "1", "--seed", "3", "--res", "12",
             "--out", str(tmp_path / "one.json")], capsys)
        assert code == 0
        payload = json.loads((tmp_path / "one.json").read_text())
        assert len(payload["result"]["history"]) == 1
        assert payload["result"]["history"][0] == payload["result"]["best_ratio"]


class TestConfigFile:
    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "expr": "x1", "dim": 1, "box": "0,1", "res": "16", "kind": "sup"}))
        code, out, _ = run_cli(
            ["norm", "--config", str(cfg), "--expr", "2*x1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["expr"] == "2*x1"  # flag wins
        assert payload["report"]["value"] == 2.0

    def test_config_only(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "expr": "x1", "dim": 1, "box": "0,1", "res": "16", "kind": "sup"}))
        code, out, _ = run_cli(["norm", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["report"]["value"] == 1.0

    def test_bad_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _, err = run_cli(["norm", "--config", str(cfg), "--kind", "sup"], capsys)
        assert code == 2

    @pytest.mark.parametrize("key", ["seed", "budjet"])
    def test_key_the_command_does_not_read_exit_2(self, key, capsys, tmp_path):
        # a stale "seed" (check no longer takes one) or a misspelt key would
        # otherwise be echoed under "config" as if it had been applied
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "variant": "2.3.1", "expr": "sin(x1)*exp(-t)", "dim": 1, "box": "0,1",
            "T": 1.0, "res": "16", "l2": 0.5, "p": 2.0, key: 7}))
        code, out, err = run_cli(["check", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert repr(key) in err
        # the same file without the key runs
        cfg.write_text(json.dumps({k: v for k, v in json.loads(cfg.read_text()).items()
                                   if k != key}))
        code, out, _ = run_cli(["check", "--config", str(cfg)], capsys)
        assert code == 0
        assert key not in json.loads(out)["config"]


def exit_and_error(args, capsys):
    """The exit code of ``main`` and its stderr, whether it returns the code
    or argparse raises it."""
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


class TestConfigTyping:
    # (config key, value, command): each value fails exactly as its flag does
    BAD = [("k", 2.7, ["norm", "--expr", "x1", "--res", "8", "--kind", "dq", "--l", "0.5"]),
           ("budget", 2.9, ["search", "--variant", "2.11", "--l2", "1.5", "--p", "2",
                            "--res", "8"]),
           ("kind", "sups", ["norm", "--expr", "x1", "--res", "8"])]

    @pytest.mark.parametrize("key, value, args", BAD, ids=[b[0] for b in BAD])
    def test_value_fails_as_its_flag_does(self, key, value, args, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        from_flag = exit_and_error(args + [f"--{key}", str(value)], capsys)
        from_config = exit_and_error(args + ["--config", str(cfg)], capsys)
        assert from_flag[0] == from_config[0] == 2
        assert f"argument --{key}: invalid" in from_flag[1]
        assert from_config[1] == from_flag[1]

    @pytest.mark.parametrize("value", [True, [1], None, {"n": 1}],
                             ids=["true", "list", "null", "object"])
    def test_value_that_is_no_number_or_string_exits_2(self, value, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dim": value}))
        code, err = exit_and_error(["norm", "--expr", "x1", "--res", "8", "--config",
                                    str(cfg)], capsys)
        assert code == 2
        assert "config key 'dim'" in err

    def test_value_is_echoed_with_its_flags_type(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"expr": "-x1*t", "T": 1, "res": 8, "kind": "sup"}))
        code, out, _ = run_cli(["norm", "--config", str(cfg)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["config"] == {"expr": "-x1*t", "T": 1.0, "res": "8", "kind": "sup"}
        assert isinstance(payload["config"]["T"], float)
        assert payload["report"]["value"] == 1.0


class TestEntryPoint:
    def test_module_invocation(self):
        # The child imports the package under test, wherever pytest found it.
        src = os.path.dirname(os.path.dirname(holonorm.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "holonorm.cli", "--version"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert __version__ in proc.stdout

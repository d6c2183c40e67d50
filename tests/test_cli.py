import argparse
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from oracleid import qsim
from oracleid.bitstrings import ConceptClass
from oracleid.cli import build_parser, main


def run_cli(*argv):
    return main(list(argv))


class TestGen:
    def test_weight_one_class(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert run_cli("gen", "--kind", "hamming1", "--n", "3", "-o", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload == {"n": 3, "members": ["001", "010", "100"]}

    def test_cube(self, tmp_path):
        out = tmp_path / "c.json"
        run_cli("gen", "--kind", "cube", "--n", "2", "-o", str(out))
        assert json.loads(out.read_text())["members"] == ["00", "01", "10", "11"]

    def test_random_is_byte_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["gen", "--kind", "random", "--n", "8", "--m", "20", "--seed", "7"]
        run_cli(*args, "-o", str(a))
        run_cli(*args, "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_seed_comes_from_the_flag_alone(self, tmp_path, monkeypatch):
        # --seed defaults to 0 whatever the environment holds
        monkeypatch.setenv("ORACLEID_SEED", "5")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "--kind", "random", "--n", "8", "--m", "3"]
        run_cli(*args, "-o", str(a))
        run_cli(*args, "--seed", "0", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestRun:
    @pytest.fixture()
    def class_file(self, tmp_path):
        out = tmp_path / "c.json"
        run_cli("gen", "--kind", "hamming1", "--n", "3", "-o", str(out))
        return str(out)

    def test_all_members_identified(self, class_file, tmp_path):
        out = tmp_path / "rows.jsonl"
        assert run_cli("run", "--class-file", class_file, "--all", "-o", str(out)) == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        rows, summary = lines[:-1], lines[-1]
        assert len(rows) == 3
        assert all(row["success"] for row in rows)
        assert all(row["identified"] == row["x"] for row in rows)
        assert summary["summary"] and summary["success_rate"] == 1.0
        assert summary["config"]["engine"] == "ideal"
        assert summary["search_config"] == asdict(qsim.DEFAULT_CONFIG)
        assert summary["search_config"]["cutoff_coeff"] == 9.0
        assert all("search_config" not in row for row in rows)

    def test_class_is_read_as_a_prefix_of_class_file(self, class_file, tmp_path):
        # argparse takes an unambiguous prefix for the whole flag
        out = tmp_path / "rows.jsonl"
        assert run_cli("run", "--class", class_file, "--all", "-o", str(out)) == 0
        assert run_cli("verify", "--suite", "sdp", "--class", class_file) == 0

    def test_summary_config_is_the_run_settings(self, class_file, tmp_path):
        out = tmp_path / "rows.jsonl"
        run_cli("run", "--class-file", class_file, "--x", "100", "--seed", "4", "-o", str(out))
        config = json.loads(out.read_text().splitlines()[-1])["config"]
        assert config == {
            "seed": 4, "engine": "ideal", "trials": 1, "output": str(out),
            "class_source": class_file, "algorithm": "final", "jobs": 1,
        }

    def test_single_member_trace_schema(self, class_file, tmp_path):
        out = tmp_path / "rows.jsonl"
        run_cli("run", "--class-file", class_file, "--x", "100", "-o", str(out))
        row = json.loads(out.read_text().splitlines()[0])
        for key in ("x", "positions", "r", "ideal_cost", "raw_queries"):
            assert key in row
        assert row["positions"] == [1]

    def test_singleton_class(self, tmp_path):
        cf = tmp_path / "single.json"
        cf.write_text('{"n": 3, "members": ["010"]}\n')
        out = tmp_path / "rows.jsonl"
        run_cli("run", "--class-file", str(cf), "--all", "-o", str(out))
        row = json.loads(out.read_text().splitlines()[0])
        assert row["r"] == 0 and row["success"]

    def test_quantum_trials(self, tmp_path):
        cf = tmp_path / "cube.json"
        run_cli("gen", "--kind", "cube", "--n", "2", "-o", str(cf))
        out = tmp_path / "rows.jsonl"
        assert run_cli(
            "run", "--class-file", str(cf), "--x", "10", "--engine", "quantum",
            "--trials", "200", "--seed", "11", "-o", str(out),
        ) == 0
        summary = json.loads(out.read_text().splitlines()[-1])
        assert summary["runs"] == 200
        assert summary["success_rate"] >= 0.60

    @pytest.mark.parametrize("x", ["011", "0100"])
    def test_non_member_rejected(self, class_file, tmp_path, capsys, x):
        out = tmp_path / "rows.jsonl"
        assert run_cli("run", "--class-file", class_file, "--x", x, "-o", str(out)) == 2
        err = capsys.readouterr().err
        assert err == f"oracleid: error: --x {x} is not a member of the class\n"
        assert not out.exists()

    def test_trial_rows_deterministic_per_seed(self, class_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.jsonl"
            run_cli("run", "--class-file", class_file, "--all", "--engine", "quantum",
                    "--trials", "5", "--seed", "3", "-o", str(out))
            lines = out.read_text().splitlines()
            summary = json.loads(lines[-1])
            summary["config"].pop("output")  # only the output path may differ
            outs.append((lines[:-1], summary))
        assert outs[0] == outs[1]

    def test_jobs_do_not_change_output(self, class_file, tmp_path):
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        base = ["run", "--class-file", class_file, "--all", "--trials", "3",
                "--seed", "5", "--engine", "quantum"]
        run_cli(*base, "-o", str(serial))
        run_cli(*base, "--jobs", "2", "-o", str(parallel))
        a = [json.loads(l) for l in serial.read_text().splitlines()]
        b = [json.loads(l) for l in parallel.read_text().splitlines()]
        assert a[:-1] == b[:-1]
        for key in ("runs", "success_rate", "mean_raw_queries"):
            assert a[-1][key] == b[-1][key]

    def test_class_is_parsed_once(self, tmp_path, monkeypatch):
        class_file = tmp_path / "c.json"
        run_cli("gen", "--kind", "random", "--n", "8", "--m", "30", "-o", str(class_file))
        calls = []
        parse = ConceptClass.from_json.__func__

        def counted(cls, text):
            calls.append(1)
            return parse(cls, text)

        monkeypatch.setattr(ConceptClass, "from_json", classmethod(counted))
        out = tmp_path / "rows.jsonl"
        argv = ["run", "--class-file", str(class_file), "--all", "--jobs", "1", "-o", str(out)]
        assert run_cli(*argv) == 0
        assert len(out.read_text().splitlines()) == 31
        assert len(calls) == 1


class TestInputErrors:
    @pytest.mark.parametrize("argv", [
        ("gen", "--kind", "hamming", "--n", "4"),
        ("gen", "--kind", "random", "--n", "4"),
        # classes past the member cap are refused before anything is enumerated
        ("gen", "--kind", "prefix", "--n", "40", "--free-bits", "40"),
        ("gen", "--kind", "hamming", "--n", "60", "--k", "30"),
        ("gen", "--kind", "hamming-pair", "--n", "60", "--k", "30"),
        ("gen", "--kind", "random", "--n", "40", "--m", str((1 << 20) + 1)),
        ("gen", "--kind", "cube", "--n", "21"),
        # parameters a kind does not read are refused, not ignored
        ("gen", "--kind", "hamming1", "--n", "4", "--k", "3"),
        ("gen", "--kind", "cube", "--n", "2", "--m", "3", "--free-bits", "1"),
        ("gen", "--kind", "random", "--n", "4", "--m", "3", "--k", "2"),
        ("gen", "--kind", "prefix", "--n", "4", "--free-bits", "2", "--m", "3"),
        ("run", "--class-file", "{cf}", "--all", "--trials", "0"),
        ("run", "--class-file", "{cf}", "--all", "--jobs", "0"),
        ("run", "--class-file", "{cf}", "--all", "--jobs", "-1"),
        ("run", "--class-file", "{missing}", "--all"),
        ("run", "--class-file", "{cf}", "--x", "011"),
        ("run", "--class-file", "{cf}", "--x", "ab"),
        ("run", "--class-file", "{cf}"),
        ("run", "--class-file", "{cf}", "--x", "001", "--all"),
        ("run", "--class-file", "{cf}", "--all", "--seed", "-1"),
        ("gen", "--kind", "random", "--n", "4", "--m", "3", "--seed", "-1"),
        ("gen", "--kind", "hamming1", "--n", "4", "--seed", "-1"),
        ("verify", "--suite", "ordering", "--n", "0"),
        ("verify", "--suite", "all", "--n", "5"),
        ("verify", "--suite", "sdp", "--class-file", "{missing}"),
        # options a suite does not read are refused, not echoed
        ("verify", "--suite", "sdp", "--n", "0", "--m", "1"),
        ("verify", "--suite", "sdp", "--m", "3"),
        ("verify", "--suite", "ordering", "--m", "3"),
        ("verify", "--suite", "lp", "--class-file", "{missing}"),
        ("verify", "--suite", "ordering", "--class-file", "{cf}"),
        ("bounds", "--grid", "N=30;M=64"),
        ("bounds", "--grid", "N=a"),
        ("bounds", "--grid", "N=4;K=4"),
        ("verify", "--suite", "sdp", "--tolerance", "-1"),
        ("verify", "--suite", "ordering", "--tolerance=-1e-12"),
        ("verify", "--suite", "lp", "--tolerance", "nan"),
        # an infinite tolerance would pass every check, whatever its violation
        ("verify", "--suite", "sdp", "--tolerance", "inf"),
        ("verify", "--suite", "all", "--tolerance=-inf"),
        ("bounds", "--grid", "N=4;M=4", "--tolerance", "inf"),
        ("bounds", "--grid", "N=4;M=4", "--jobs", "0"),
        ("bounds", "--grid", "N=4;M=4", "--jobs", "-3"),
        ("bounds", "--grid", "N=4;M=4", "--tolerance", "-1"),
        # grid values below the smallest class: N >= 1 bits, M >= 2 members
        ("bounds", "--grid", "N=0;M=4"),
        ("bounds", "--grid", "N=4;M=1"),
        ("bounds", "--grid", "N=4;M=-3"),
        ("bounds", "--grid", "N=-1;M=4"),
        # an axis given twice, or N past the exhaustive optimum's cap
        ("bounds", "--grid", "N=4;M=4;M=16"),
        ("bounds", "--grid", "N=4;n=5;M=4"),
        ("bounds", "--grid", "N=25"),
        # malformed class files: {bad} is a file holding the row's last entry
        ("run", "--class-file", "{bad}", "--all", "null"),
        ("run", "--class-file", "{bad}", "--all", "[1]"),
        ("run", "--class-file", "{bad}", "--all", '{"members": ["011"]}'),
        ("run", "--class-file", "{bad}", "--all", '{"n": 3}'),
        ("run", "--class-file", "{bad}", "--all", '{"n": 1, "members": [1]}'),
        ("run", "--class-file", "{bad}", "--all", '{"n": 3.5, "members": ["011"]}'),
        ("run", "--class-file", "{bad}", "--all", '{"n": 1, "members": "01"}'),
        ("verify", "--suite", "sdp", "--class-file", "{bad}", '{"n": 3.5, "members": ["011"]}'),
        ("run", "--class-file", "{bad}", "--all", "not json"),
        ("verify", "--suite", "sdp", "--class-file", "{bad}", "not json"),
        ("run", "--class-file", "{bad}", "--all", b"\xff\xfe"),
        ("verify", "--suite", "sdp", "--class-file", "{bad}", b"\xff\xfe"),
    ])
    def test_one_line_and_exit_code_2(self, tmp_path, capsys, argv):
        cf = tmp_path / "c.json"
        run_cli("gen", "--kind", "hamming1", "--n", "3", "-o", str(cf))
        out = tmp_path / "out.txt"
        bad = tmp_path / "bad.json"
        if "{bad}" in argv:
            *argv, payload = argv
            if isinstance(payload, bytes):
                bad.write_bytes(payload)
            else:
                bad.write_text(payload)
        argv = [a.format(cf=cf, missing=tmp_path / "missing.json", bad=bad) for a in argv]
        assert run_cli(*argv, "-o", str(out)) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("oracleid: error: ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag, value", [
        (("run", "--class-file", "{cf}", "--all", "--trials", "0"), "trials", "0"),
        (("run", "--class-file", "{cf}", "--all", "--jobs", "0"), "jobs", "0"),
        (("run", "--class-file", "{cf}", "--all", "--jobs", "-1"), "jobs", "-1"),
        (("bounds", "--grid", "N=4;M=4", "--jobs", "0"), "jobs", "0"),
    ])
    def test_positive_integers_name_their_flag(self, tmp_path, capsys, argv, flag, value):
        cf = tmp_path / "c.json"
        run_cli("gen", "--kind", "hamming1", "--n", "3", "-o", str(cf))
        assert run_cli(*[a.format(cf=cf) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err == f"oracleid: error: --{flag} must be positive, got {value}\n"


    @pytest.mark.parametrize("argv", [
        ("run", "--class-file", "{cf}", "--all", "--seed", "-1"),
        ("gen", "--kind", "random", "--n", "4", "--m", "3", "--seed", "-1"),
        ("gen", "--kind", "hamming1", "--n", "4", "--seed", "-1"),
    ])
    def test_a_negative_seed_names_its_flag(self, tmp_path, capsys, argv):
        cf = tmp_path / "c.json"
        run_cli("gen", "--kind", "hamming1", "--n", "3", "-o", str(cf))
        assert run_cli(*[a.format(cf=cf) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err == "oracleid: error: --seed must be non-negative, got -1\n"

    @pytest.mark.parametrize("argv", [
        ("run", "--class-file", "{bad}", "--all"),
        ("verify", "--suite", "sdp", "--class-file", "{bad}"),
    ])
    def test_a_class_file_that_is_not_json_says_so(self, tmp_path, capsys, argv):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert run_cli(*[a.format(bad=bad) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err == ("oracleid: error: a class file must be JSON: "
                       "Expecting value: line 1 column 1 (char 0)\n")

    @pytest.mark.parametrize("argv", [
        ("run", "--class-file", "{bad}", "--all"),
        ("verify", "--suite", "sdp", "--class-file", "{bad}"),
    ])
    def test_a_class_file_that_is_not_utf8_says_so(self, tmp_path, capsys, argv):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe")
        assert run_cli(*[a.format(bad=bad) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err == ("oracleid: error: a class file must be UTF-8 JSON: 'utf-8' codec can't "
                       "decode byte 0xff in position 0: invalid start byte\n")

    @pytest.mark.parametrize("grid, message", [
        ("N=4;M=4;M=16", "grid axis M is given twice"),
        ("N=4;n=5;M=4", "grid axis N is given twice"),
        ("N=30;M=64", "grid axis N needs values <= 24 (the exhaustive optimum's cap), got 30"),
        ("N=25", "grid axis N needs values <= 24 (the exhaustive optimum's cap), got 25"),
        ("N=4;M=abc", "grid axis M needs integer values, got 'abc'"),
        ("N=4, x ;M=4", "grid axis N needs integer values, got 'x'"),
        ("N=4;K=abc", "unknown grid axis 'K'"),
    ])
    def test_a_malformed_grid_names_its_axis(self, tmp_path, capsys, grid, message):
        out = tmp_path / "grid.csv"
        assert run_cli("bounds", "--grid", grid, "-o", str(out)) == 2
        assert capsys.readouterr().err == f"oracleid: error: {message}\n"
        assert not out.exists()


class TestVerify:
    def test_ordering_suite_passes(self, capsys):
        assert run_cli("verify", "--suite", "ordering", "--n", "4") == 0
        assert "[PASS]" in capsys.readouterr().out

    @pytest.mark.parametrize("n", ["0", "6"])
    def test_ordering_suite_rejects_out_of_range_n(self, capsys, n):
        assert run_cli("verify", "--suite", "ordering", "--n", n) == 2
        captured = capsys.readouterr()
        assert "needs 1 <= --n <= 4" in captured.err
        assert "[PASS]" not in captured.out

    def test_sdp_suite_judges_against_the_given_tolerance(self, capsys):
        # residuals of order 1e-16 pass the default 1e-9 but not 1e-20
        assert run_cli("verify", "--suite", "sdp", "--tolerance", "1e-20") == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_sdp_suite_with_class_file(self, tmp_path, capsys):
        cf = tmp_path / "c.json"
        run_cli("gen", "--kind", "hamming1", "--n", "3", "-o", str(cf))
        assert run_cli("verify", "--suite", "sdp", "--class-file", str(cf)) == 0

    def test_lp_suite(self, capsys):
        assert run_cli("verify", "--suite", "lp", "--n", "8", "--m", "3") == 0
        out = capsys.readouterr().out
        assert "dual certificate" in out

    def test_all_suites_write_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert run_cli("verify", "--suite", "all", "-o", str(report_path)) == 0
        report = json.loads(report_path.read_text())
        assert report["passed"] is True
        assert len(report["checks"]) >= 5


class TestVerifySdpDump:
    """``verify --suite sdp --dump`` must keep its report.

    ``golden_sdp_dump.json`` holds the report on the default hamming1-3
    class and on a random N=6, M=20 class file, recorded while solutions
    were still stored as dense ambient arrays.  The vectors must match
    exactly; residuals and costs, summed in a different order now, to 1e-12.
    """

    GOLDEN = json.loads(Path(__file__).with_name("golden_sdp_dump.json").read_text())

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_report_matches_golden(self, name, tmp_path, capsys):
        case = self.GOLDEN[name]
        argv = ["verify", "--suite", "sdp", "--dump", "-o", str(tmp_path / "r.json")]
        if case["class"] is not None:
            cf = tmp_path / "c.json"
            cf.write_text(json.dumps(case["class"]))
            argv += ["--class-file", str(cf)]
        assert run_cli(*argv) == 0
        got = json.loads((tmp_path / "r.json").read_text())
        want = case["report"]
        got["config"].pop("class_file")  # where the class was written, recorded without it
        assert got["config"] == want["config"] and got["passed"] is want["passed"]
        assert [c["check"] for c in got["checks"]] == [c["check"] for c in want["checks"]]
        for g, w in zip(got["checks"], want["checks"]):
            assert g["passed"] is w["passed"] and g["matrix"] == w["matrix"]
            assert g["max_violation"] == pytest.approx(w["max_violation"], rel=0, abs=1e-12)
            assert ("vectors" in g) == ("vectors" in w)
            if "vectors" in w:
                assert g["vectors"] == w["vectors"]
            if "cost" in w:
                assert g["cost"].keys() == w["cost"].keys()
                for x, c in w["cost"].items():
                    assert g["cost"][x] == pytest.approx(c, rel=1e-12, abs=0)

    def test_one_member_class_file(self, tmp_path, capsys):
        # one block scanning nothing: zero rows of dim 1, cost 0, residual 0
        cf = tmp_path / "c.json"
        cf.write_text(json.dumps({"n": 5, "members": ["01101"]}))
        out = tmp_path / "r.json"
        assert run_cli("verify", "--suite", "sdp", "--dump", "--class-file", str(cf), "-o", str(out)) == 0
        identity, cube = json.loads(out.read_text())["checks"]
        zeros = [[[0.0]] * 5]
        assert identity["vectors"] == {"u": zeros, "v": zeros}
        assert identity["cost"] == {"01101": 0.0} and identity["max_violation"] == 0.0
        # the 6-cube check, proven from its ranks, gives the golden value exactly
        for case in self.GOLDEN.values():
            assert cube == case["report"]["checks"][-1]
        assert cube["max_violation"] == 2.220446049250313e-16


class TestBounds:
    def test_grid_csv(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run_cli("bounds", "--grid", "N=4,8;M=4,16", "-o", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("M,N,brute_force_C,closed_form_C,lp_primal,lp_dual")
        assert len(lines) == 5
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[2]) <= float(cells[4]) + 1e-9 <= float(cells[5]) + 2e-9

    def test_full_cube_rows_match_n(self, tmp_path):
        out = tmp_path / "grid.csv"
        run_cli("bounds", "--grid", "N=4;M=16", "-o", str(out))
        cells = out.read_text().splitlines()[1].split(",")
        assert float(cells[3]) == 4.0

    def test_empty_grid_is_header_only(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run_cli("bounds", "--grid", "", "-o", str(out)) == 0
        assert out.read_text().splitlines() == [
            "M,N,brute_force_C,closed_form_C,lp_primal,lp_dual,k_lower,lower_value"
        ]

    def test_infeasible_cells_skipped(self, tmp_path):
        out = tmp_path / "grid.csv"
        run_cli("bounds", "--grid", "N=2;M=4,16", "-o", str(out))
        assert len(out.read_text().splitlines()) == 2  # only M = 4 fits in 2 bits


class TestOptionInventory:
    """The long options of every subcommand, read off the parser: a new
    setting shows up here as a test change."""

    INVENTORY = {
        "gen": ["--kind", "--n", "--k", "--free-bits", "--m", "--seed", "--output"],
        "run": ["--class-file", "--x", "--all", "--engine", "--algorithm", "--trials",
                "--seed", "--jobs", "--output"],
        "verify": ["--suite", "--n", "--m", "--class-file", "--dump", "--tolerance", "--output"],
        "bounds": ["--grid", "--tolerance", "--jobs", "--output"],
    }

    @staticmethod
    def options(parser):
        # one entry per option, named by its first long flag (short aliases
        # such as -o ride along); --help is argparse's own
        return [
            next(flag for flag in action.option_strings if flag.startswith("--"))
            for action in parser._actions
            if action.option_strings and not isinstance(action, argparse._HelpAction)
        ]

    def test_long_options_per_subcommand(self):
        subcommands = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ).choices
        got = {name: self.options(sub) for name, sub in subcommands.items()}
        assert got == self.INVENTORY
        assert sum(map(len, got.values())) == 27  # gen 7, run 9, verify 7, bounds 4

"""``scripts/bench_search.py`` runs end to end at tiny sizes and writes the
fields its JSON promises."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

from oracleid.bitstrings import generate_class
from oracleid.identify import identify_all

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_search.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_search", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_search = _load()


def test_measure_records_every_field():
    row = bench_search.measure("random", 9, 40, 3, 8, 12)
    assert (row["kind"], row["n"], row["m"], row["seed"]) == ("random", 9, 40, 3)
    # every fifth member of 40, in the two trials that reach 12 runs
    assert (row["members"], row["runs"], row["passes"]) == (8, 16, bench_search.PASSES)
    assert bench_search.PASSES >= 3
    assert 0 < row["run_us_median"] and 0 < row["run_us_mean"]
    assert row["raw_queries_mean"] > 0
    assert row["wrong_runs"] == 0
    # the runs of one member share its ideal cost: the mean over the
    # members run is the mean over runs
    cls = generate_class("random", 9, size=40, seed=3)
    ideal = identify_all(cls)
    want = statistics.fmean(ideal[x].ideal_cost for x in cls.members[::5])
    assert row["ideal_cost_mean"] == pytest.approx(want)
    assert row["ns_per_raw_query"] == pytest.approx(row["run_us_mean"] * 1e3 / row["raw_queries_mean"])


def test_runs_are_seeded_as_the_cli_seeds_them():
    # the same (seed, member, trial) seeds give the same raw queries
    first, again = (bench_search.measure("hamming1", 16, None, 5, 16, 1) for _ in range(2))
    assert first["raw_queries_mean"] == again["raw_queries_mean"]


def test_writes_one_row_per_class(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(
        bench_search, "CLASSES", (("hamming1", 9, None, None), ("random", 5, 1, None), ("hamming", 6, None, 2))
    )
    monkeypatch.setattr(bench_search, "MEMBERS", 4)
    monkeypatch.setattr(bench_search, "RUNS", 1)
    out = tmp_path / "bench.json"
    assert bench_search.main(["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["script"] == "scripts/bench_search.py"
    assert set(report["machine"]) >= {"cpu", "nproc", "python", "numpy", "blas_threads"}
    wide, single, weight2 = report["classes"]
    # every third member of 9
    assert (wide["kind"], wide["n"], wide["m"], wide["seed"], wide["members"]) == ("hamming1", 9, 9, None, 3)
    # one member: identified without a query
    assert (single["m"], single["runs"], single["raw_queries_mean"]) == (1, 1, 0)
    # C(6, 2) members of weight k = 2, every fourth of them
    assert (weight2["kind"], weight2["k"], weight2["m"], weight2["members"]) == ("hamming", 2, 15, 4)
    assert wide["k"] is single["k"] is None
    assert wide["wrong_runs"] == single["wrong_runs"] == weight2["wrong_runs"] == 0
    assert single["ideal_cost_mean"] == 0
    assert single["ns_per_raw_query"] is None
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_timed_passes_alternate_the_classes(monkeypatch):
    timed = []
    time_pass = bench_search.Runs.time_pass

    def record(self):
        timed.append(self.row["n"])
        time_pass(self)

    monkeypatch.setattr(bench_search.Runs, "time_pass", record)
    rows = list(bench_search.measure_all((("hamming1", 5, None, None), ("hamming1", 6, None, None)), 1, 2, 1, 3))
    assert timed == [5, 6] * 3
    assert [row["passes"] for row in rows] == [3, 3]


def test_a_wrong_run_is_counted(monkeypatch):
    # a run that names another member counts, in every pass
    from oracleid import identify

    run_final = identify.run_final

    def wrong_on_odd_trials(cls, x, engine, seed):
        trace = run_final(cls, x, engine, seed=seed)
        other = cls.members[cls.members.index(x) - 1]
        return trace._replace(identified=other) if seed.entropy[2] % 2 else trace

    monkeypatch.setattr(identify, "run_final", wrong_on_odd_trials)
    row = bench_search.measure("hamming1", 8, None, 1, 8, 32)
    # 8 members in 4 trials, of which trials 1 and 3 are wrong
    assert (row["runs"], row["wrong_runs"]) == (32, 16)

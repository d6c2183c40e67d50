"""``scripts/bench_sdp.py`` runs end to end at tiny sizes and writes the
fields its JSON promises."""

import importlib.util
import json
from pathlib import Path


SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_sdp.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_sdp", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_sdp = _load()


def test_measure_records_every_field():
    row = bench_sdp.measure(7, 40, 3, 2)
    assert (row["n"], row["m"], row["seed"]) == (7, 40, 3)
    assert row["stages"] >= 1 and row["max_cost"] > 0
    assert row["worst_stage_residual"] < 1e-12 and row["identity_residual"] < 1e-12
    for key in ("tree_s", "build_s", "cost_s", "stage_checks_s", "identity_after_stages_s", "identity_check_s"):
        assert len(row["runs"][key]) == 2 and row[key] > 0
    assert row["peak_rss_mib"] > 0


def test_writes_one_row_per_class(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench_sdp, "CLASSES", ((7, 40), (5, 1)))
    monkeypatch.setattr(bench_sdp, "REPEATS", 1)
    out = tmp_path / "bench.json"
    assert bench_sdp.main(["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report["machine"]) >= {"cpu", "nproc", "python", "numpy", "blas_threads"}
    big, single = report["classes"]
    assert (big["n"], big["m"], big["seed"]) == (7, 40, bench_sdp.SEED)
    # one member: nothing to learn, nothing to check
    assert single["stages"] == 0 and single["worst_stage_residual"] == 0.0
    assert len(capsys.readouterr().out.splitlines()) == 2

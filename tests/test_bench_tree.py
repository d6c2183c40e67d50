"""``scripts/bench_tree.py`` runs end to end at tiny sizes and writes the
fields its JSON promises."""

import importlib.util
import json
from pathlib import Path


SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_tree.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_tree", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_tree = _load()


def test_measure_records_every_field():
    row = bench_tree.measure("random", 7, 40, 3, 2)
    assert (row["kind"], row["n"], row["m"], row["seed"]) == ("random", 7, 40, 3)
    assert len(row["runs"]) == 2 and row["identify_all_s"] > 0
    assert row["max_iterations"] >= 2
    assert row["pipeline_retained_mib"] > 0


def test_writes_one_row_per_class(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench_tree, "CLASSES", (("hamming1", 9, None), ("random", 5, 1)))
    monkeypatch.setattr(bench_tree, "REPEATS", 1)
    out = tmp_path / "bench.json"
    assert bench_tree.main(["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report["machine"]) >= {"cpu", "nproc", "python", "numpy", "blas_threads"}
    wide, single = report["classes"]
    assert (wide["kind"], wide["n"], wide["m"], wide["seed"]) == ("hamming1", 9, 9, None)
    # hamming1: one root node, whose reference ends every run
    assert wide["max_iterations"] == 1
    assert single["m"] == 1 and single["max_iterations"] == 1
    assert len(capsys.readouterr().out.splitlines()) == 2

"""``scripts/bench_gamma.py`` runs end to end at tiny sizes and writes the
fields its JSON promises."""

import importlib.util
import json
from fractions import Fraction
from pathlib import Path


SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_gamma.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_gamma", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_gamma = _load()


def test_measure_records_every_field():
    row = bench_gamma.measure(7, 6, 3, 2)
    assert (row["n"], row["m"], row["seed"]) == (7, 6, 3)
    assert len(row["runs"]) == 2 and row["gamma_hat_s"] > 0
    assert 0 < Fraction(row["value"]) <= Fraction(1, 2)
    assert 2 <= row["witness_size"] <= 6


def test_writes_one_row_per_class(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench_gamma, "MEMBERS", (2, 5))
    monkeypatch.setattr(bench_gamma, "N", 6)
    monkeypatch.setattr(bench_gamma, "REPEATS", 1)
    out = tmp_path / "bench.json"
    assert bench_gamma.main(["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report["machine"]) >= {"cpu", "nproc", "python", "numpy", "blas_threads"}
    pair, five = report["classes"]
    assert (pair["n"], pair["m"], five["m"]) == (6, 2, 5)
    # two distinct strings: one query always removes one of the two
    assert pair["value"] == "1/2" and pair["witness_size"] == 2
    assert len(capsys.readouterr().out.splitlines()) == 2

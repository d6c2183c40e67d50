"""What the benchmark scripts share: the repository root, the BLAS thread
variables they pin, a description of the machine a run was made on, and
the driver that writes a script's rows as JSON."""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from typing import Callable, Iterable

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def machine() -> dict:
    import numpy as np

    return {
        "platform": platform.platform(),
        "cpu": cpu_model() or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def write_report(script: str, doc: str, rows: Iterable[dict], argv=None) -> int:
    """Parse ``--out`` (default ``BENCH_<name>.json`` at the root for
    ``scripts/bench_<name>.py``), print each row as one JSON line as it is
    measured, and write ``{"script", "machine", "classes"}`` to the file."""
    path = Path(script)
    default = ROOT / f"BENCH_{path.stem.removeprefix('bench_')}.json"
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--out", type=Path, default=default)
    args = parser.parse_args(argv)
    classes = []
    for row in rows:
        print(json.dumps(row), flush=True)
        classes.append(row)
    report = {"script": f"scripts/{path.name}", "machine": machine(), "classes": classes}
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


def run_script(main: Callable[[], int]) -> None:
    """A script's ``__main__``: BLAS on one thread unless the environment
    already says otherwise, ``src`` importable, and ``main``'s exit code."""
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())

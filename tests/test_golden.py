"""Golden trajectories: every benchmark workload instance, and each instance
of the s-mode surgery family below, solved once and compared, bit for bit,
with the record in golden_trajectories.json.

Each record holds the SHA-256 of the solve's TraceRow.csv rows, its status,
counts and message, the cycle and the bytes of f_final. A change that moves
any bit of any step of any of these solves fails this test. Regenerate the
file, after checking that the change is meant to move trajectories, with

    python3 tests/test_golden.py

and list every changed record. Bits depend on the numpy and scipy versions,
the BLAS thread count and the OpenBLAS kernel family, so the file records
them, and under any others the test skips, naming the difference.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_trajectories.json")

if __name__ == "__main__":
    # as under pytest: the thread pin first, then the sources of this checkout
    sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "src")]
    import conftest  # noqa: F401

sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import scipy  # noqa: E402

import harness  # noqa: E402
from dipa.bench import BenchSetting  # noqa: E402
from dipa.outer import dipa_solve  # noqa: E402
from test_threads import openblas_query, openblas_thread_counts  # noqa: E402


def environment() -> dict:
    """What the bits of a solve depend on besides the code: the numpy and
    scipy versions, the BLAS thread count, and the kernel family OpenBLAS
    picked for this CPU."""
    cores = openblas_query("get_corename", ctypes.c_char_p).values()
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": sorted(set(openblas_thread_counts().values())),
        "blas_cores": sorted({c.decode() for c in cores}),
    }


def record(rep) -> dict:
    rows = "\n".join(row.csv() for row in rep.trace)
    return {
        "trace_sha256": hashlib.sha256(rows.encode()).hexdigest(),
        "status": rep.status,
        "iterations": rep.iterations,
        "deflations": rep.deflations,
        "deletions": rep.deletions,
        "message": rep.message,
        "cycle": None if rep.cycle is None else list(rep.cycle.seq),
        "f_final": struct.pack("<d", rep.f_final).hex(),
    }


# s mode with the default surgery thresholds: the benchmark's one s-mode
# workload runs no surgery, so this family pins the s-mode null space on
# deflated maps
S_SURGERY = harness.Workload("s-surgery", BenchSetting(name="s", mode="s"), 20,
                             tuple(range(100, 110)))


def compute() -> dict:
    """workload/seed -> record, over every instance of every workload and of
    S_SURGERY."""
    out = {}
    for wl in (*harness.WORKLOADS.values(), S_SURGERY):
        for seed, g in wl.graphs().items():
            out[f"{wl.name}/{seed}"] = record(dipa_solve(g, wl.params(seed)))
    return out


def changes(old: dict, new: dict) -> list:
    """One line per instance whose record differs: each changed field as
    old -> new."""
    lines = []
    for key in sorted(set(old) | set(new)):
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        if a is None or b is None:
            lines.append(f"{key}: {'absent' if a is None else 'present'} -> "
                         f"{'absent' if b is None else 'present'}")
            continue
        diffs = [f"{f} {a[f]!r} -> {b[f]!r}" for f in a if a[f] != b.get(f)]
        lines.append(f"{key}: " + "; ".join(diffs))
    return lines


def test_trajectories_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text())
    env = environment()
    if golden["environment"] != env:
        pytest.skip(f"golden file recorded under {golden['environment']}, this run has {env}")
    lines = changes(golden["instances"], compute())
    assert not lines, "trajectories moved:\n" + "\n".join(lines)


if __name__ == "__main__":
    instances = compute()
    # one instance a line, so a regenerated file diffs by instance
    body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                      for k, v in sorted(instances.items()))
    GOLDEN.write_text(f'{{"environment": {json.dumps(environment(), sort_keys=True)},\n'
                      f' "instances": {{\n{body}\n }}}}\n')
    print(f"wrote {len(instances)} instances to {GOLDEN}")

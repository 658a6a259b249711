"""The README's quick start runs as written, and its constants are the
code's."""

import re
from pathlib import Path

import dipa.outer

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.DOTALL)
    assert block is not None, "README has no python block"
    namespace: dict = {}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    report = namespace["report"]
    assert report.status == "HC-found"
    assert capsys.readouterr().out.splitlines()[0] == "HC-found"


def test_constants_match_the_code():
    text = " ".join(README.read_text(encoding="utf-8").split())
    para = re.search(r"constants in `dipa.outer`, not `DipaParams` fields: (.*?)\. ", text)
    assert para is not None, "README has no constants paragraph"
    stated = dict(re.findall(r"`([A-Z_]+)` \(([^,)]+)", para.group(1)))
    assert set(stated) == {"MU_MIN", "NEUTRAL_TOL", "MAX_PHASE_ITER", "MAX_OUTER", "X_MIN_FLOOR"}
    for name, value in stated.items():
        assert getattr(dipa.outer, name) == float(value), name

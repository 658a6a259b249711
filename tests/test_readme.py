"""The README's quick start runs as written, and its constants are the
code's."""

import re
from pathlib import Path

import dipa.inner
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
    para = re.search(r"constants, not `DipaParams` fields\. (.*?\.) `MAX_PHASE_ITER` bounds", text)
    assert para is not None, "README has no constants paragraph"
    stated = {
        (module, name): value
        for module, names in re.findall(r"In `dipa\.(\w+)`: (.*?\))\.", para.group(1))
        for name, value in re.findall(r"`([A-Z_]+)` \(([^,)]+)", names)
    }
    assert set(stated) == {
        ("outer", "MU_MIN"), ("outer", "MU_SHRINK"), ("outer", "NEUTRAL_TOL"),
        ("outer", "X_MIN_FLOOR"), ("inner", "MAX_PHASE_ITER"), ("inner", "ALPHA"),
    }
    for (module, name), value in stated.items():
        assert getattr(getattr(dipa, module), name) == float(value), name

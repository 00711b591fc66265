import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(tmp_path, monkeypatch):
    """The README's python block runs as written, next to a small logits file."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    rng = np.random.default_rng(0)
    C = 4
    lines = [f"C={C}"]
    for i in range(40):
        logits = rng.normal(0, 1, C)
        logits[i % C] += 4.0
        lines.append(",".join([f"img{i}", str(i % C)] + [f"{v:.12g}" for v in logits]))
    (tmp_path / "logits.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["report"].query_count == 5
    assert namespace["d_min"] >= namespace["d"]

"""The README's python examples run as documented."""
import contextlib
import io
import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order(tmp_path, monkeypatch):
    text = README.read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S))
    assert len(blocks) == 4
    monkeypatch.chdir(tmp_path)  # the continuation example writes data/
    namespace = {}
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("ignore")
        for block in blocks:
            # padded so that a traceback points at the README's own line
            lead = "\n" * text.count("\n", 0, block.start(1))
            exec(compile(lead + block.group(1), str(README), "exec"), namespace)
    assert namespace["result"].residual_norm <= 1e-10
    assert 1 in namespace["branch"].bif_types and len(namespace["table"]) == 2
    assert namespace["graph"].num_edges == 5

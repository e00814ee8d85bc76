import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_tour_runs():
    # the README's python example must run against the current API
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    resistance = namespace["core"].resistance(0, 0)
    assert abs(resistance - 5.0) < 1e-12
    report = namespace["report"]
    assert np.allclose(report.estimates, namespace["data"], rtol=0, atol=1e-12)
    assert report.high_prob_bounds is not None

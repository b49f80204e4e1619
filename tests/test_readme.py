"""The README's examples run as written."""

import math
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def test_readme_python_tour_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)
    assert len(blocks) == 1  # the five-line tour
    exec(compile(blocks[0], "README.md", "exec"), {})
    # tau, burn-in, final objective and smallest gradient norm
    values = [float(v) for v in capsys.readouterr().out.split()]
    assert len(values) == 4 and all(math.isfinite(v) for v in values)
    assert values[0] > 0 and values[1] >= 0 and values[3] >= 0

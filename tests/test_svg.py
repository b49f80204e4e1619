"""SVG charts: every series, flat or at any magnitude, gets finite coordinates.

Each chart is drawn in a fresh interpreter under a timeout, since a tick
loop that cannot advance never returns.
"""

import glob
import math
import os
import re
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_CONSTANT = ("from tailopt._svg import line_chart; "
             "line_chart('flat.svg', [([1, 2, 3], [4.0, 4.0, 4.0], 'F')], "
             "title='flat', x_label='t', y_label='F')")
# F(w) = eig (1e10)^2 = 1.5e20 on average, moved by steps of 2.5e-6: over 2
# steps F spans one ulp, over 3 it is flat, and 1.0 is below its resolution
_LARGE_FLAT = ["-m", "tailopt.cli", "run", "--problem", "quadratic",
               "--start-value", "1e10", "--s", "2.5e-6", "--noise-scale", "0",
               "--dim", "2", "--plots", "--out", "h"]


def _coordinates(svg: str) -> list[float]:
    values = re.findall(r'\b(?:x|y|x1|x2|y1|y2)="([^"]*)"', svg)
    for points in re.findall(r'points="([^"]*)"', svg):
        values += re.split(r"[ ,]", points)
    return [float(v) for v in values]


@pytest.mark.parametrize("args", [
    pytest.param(["-c", _CONSTANT], id="constant-series"),
    pytest.param([*_LARGE_FLAT, "--T", "2"], id="one-ulp-at-1.5e20"),
    pytest.param([*_LARGE_FLAT, "--T", "3"], id="flat-at-1.5e20"),
])
def test_chart_of_a_flat_series_has_finite_coordinates(tmp_path, args):
    subprocess.run([sys.executable, *args], cwd=tmp_path, check=True,
                   env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                   timeout=60)
    charts = glob.glob(str(tmp_path / "**" / "*.svg"), recursive=True)
    assert charts
    for chart in charts:
        coords = _coordinates(open(chart).read())
        assert coords and all(math.isfinite(c) for c in coords), chart

"""Changes of chart for the coordinate-invariance checks.

Closedness, a local splitting, the contact order m, k and the index alpha are
defined through local decompositions into closed 1-differentials, not
through a chart.  Pulling a product form w = scale * du * dr back by a
biholomorphism that fixes the origin is textual: substitute both variables
in each text.  Shared by ``tools/invariance_sweep.py`` and
``tests/test_chart_invariance.py``; importing it has no side effects.
"""

import re

# three maps fixing the origin with invertible linear part
MAPS = {
    "shear": ("z1+z1*z2/2", "z2+z1^2"),
    "mix": ("z1+z2^2", "z2-z1/3"),
    "lin": ("2*z1+z2", "z1-z2"),
}


def pull_back(w, images):
    """The texts of w in the chart z -> images: both variables replaced at once."""
    def swap(match):
        return f"({images[int(match.group(1)) - 1]})"
    return {key: re.sub(r"\bz([12])\b", swap, text) for key, text in w.items()}

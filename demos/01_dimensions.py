"""Similarity dimension, eta and lattice type for the preset systems."""

import math

from fractal_tiling_lab import dimension_data
from fractal_tiling_lab.ifs import words_up_to_ratio
from fractal_tiling_lab.presets import PRESETS

for name, preset in sorted(PRESETS.items()):
    dd = dimension_data(preset.scene.ifs)
    print(f"{name:12s} D = {dd.D:.6f}   eta = {dd.eta:.6f}   {dd.note}")

# closed forms for comparison
print("\nln8/ln3 =", math.log(8) / math.log(3))
print("ln2/ln3 =", math.log(2) / math.log(3))

# code-space words: the word tree keeps every word whose cylinder ratio exceeds 1/4
ifs = PRESETS["cantor_pair"].scene.ifs
words = words_up_to_ratio(ifs, 0.25).labelled()
print("\nwords with r_sigma > 1/4:", ", ".join(f"{w} ({r:g})" for w, r in words))

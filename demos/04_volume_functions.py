"""The sampled scalar functions of eps behind the generator formulas.

h is the renewal difference of the tiling's tube volume: below
min_i r_i g it coincides with the generator's own tube volume V(G, .),
which is the identity the whole approach rests on.
"""

import numpy as np

from fractal_tiling_lab.pipeline import get_bundle
from fractal_tiling_lab.volumes import phi_function

b = get_bundle("cantor")
h, vg = b.h, b.V_G

print("eps        V(T,eps)-diff h    V(G,eps)   [h = V(G,.) below r g = 1/18]")
sel = np.linspace(0, len(h.eps) - 1, 12).astype(int)
for i in sel:
    flag = "  <- gate region" if h.eps[i] > b.g / 3 else ""
    print(f"{h.eps[i]:.6f}   {h.values[i]: .6f}        {vg.values[i]:.6f}{flag}")

phi = phi_function(b.F_on_O, b.ifs, b.g_tilde, b.grid_rel)
print("\nphi saturates at lambda(O) above g~:", phi.values[-1], "vs lambda(O) =", b.O.area())

rd = b.R_d
small = rd.eps < 1 / 6
print("Gatzouras difference vanishes below the separation radius 1/6:",
      float(np.max(np.abs(rd.values[small]))))

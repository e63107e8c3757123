"""Structural checks: what each formula needs, and how failures look.

O = (-0.6, 1) is feasible and strong for the middle-thirds system, but its
right piece overhangs into the left piece's nearest-point basin, so the
projection condition fails with a defect on an eps-interval -- exactly the
witness shape a genuine failure must produce.
"""

from fractal_tiling_lab.conditions import check_compatibility, check_osc, check_projection, check_strong
from fractal_tiling_lab.grids import IntervalUnion, distance_transform, rasterize
from fractal_tiling_lab.presets import cantor_ifs
from fractal_tiling_lab.tiling import attractor_raster, map_images, relative_inradius

delta = 2.0**-13
ifs = cantor_ifs()
F = attractor_raster(ifs, ([-0.8], [1.2]), delta)
field = distance_transform(F)

for a, b in ((0.0, 1.0), (0.1, 1.0), (-0.6, 1.0)):
    O = rasterize(IntervalUnion(((a, b),)), ([a - 2 * delta], [b + 2 * delta]), delta)
    images = map_images(ifs, O)
    osc = check_osc(ifs, O, images).verdict
    strong = check_strong(O, field).verdict
    gt = relative_inradius(field, O)
    pc = check_projection(ifs, O, images, field, gt)
    print(f"O = ({a:5.2f}, {b:4.2f}):  osc={osc:12s} strong={strong:6s} projection={pc.verdict}")
    if pc.verdict == "fail":
        w = pc.witness
        print(f"    witness: map {w['map']}, eps in {w['eps_interval']}, defect {w['max_defect']:.4f}")

G = rasterize(IntervalUnion(((1 / 3, 2 / 3),)), ([0.3], [0.7]), delta)
print("\ncantor generator compatibility (endpoints 1/3, 2/3 lie on F):",
      check_compatibility(G, field).verdict)

"""The concrete pattern families: equal-time routes, the shift-concavity
block, cube enlargement, and the oriented (overlapping) pattern.

Run:  python3 demos/03_pattern_families.py
"""

import fppkit as fpp

# Two equal-time routes in a 20 x 10 box (bounded-support construction)
pat = fpp.two_route_pattern_bounded(4, 2, [1.0] * 8, [2.0] * 4)
spec = fpp.DistributionSpec(atoms=((1.0, 0.5), (2.0, 0.5)))
f = fpp.sample_conditioned(pat.region, spec, pat.event, 0)
plus, detour = pat.routes
t, _ = fpp.restricted_geodesic_time(pat.u_end, pat.v_end, f, region=pat.region)
print(f"20x10 two-route pattern: optimum {t}, straight route {f.path_time(plus)}, "
      f"detour {f.path_time(detour)} (lengths {len(plus)} vs {len(detour)})")

# The shift-concavity pattern with its delta search
uspec = fpp.DistributionSpec(uniforms=((1.8, 2.2, 0.5), (2.8, 3.2, 0.5)))
block, delta = fpp.shift_concavity_search_delta(2, 1, 2.0, 3.0, uspec, seed=4, delta0=0.2)
sample = fpp.sample_conditioned(block.region, uspec, block.event, 1)
p1, p2 = fpp.shift_concavity_properties(block, sample)
print(f"shift-concavity pattern at delta={delta}: unique straight optimum {p1}, "
      f"inner-block insulation {p2}")

# Cube enlargement for an unbounded law: walls force any inner optimum
# through the embedded pattern
unb = fpp.DistributionSpec(atoms=((1.0, 0.5),), exp_tails=((1.0, 1.0, 0.5),))
base = fpp.heavy_edge_pattern(3.0)
cube = fpp.enlarge_to_cube(base, m_cap=4.0)
print(f"cube enlargement: support half-width {cube.region.radius}, "
      f"endpoints {cube.u_end} -> {cube.v_end}")

# The oriented pattern: poles on opposite faces, derived constants
ospec = fpp.DistributionSpec(atoms=((1.0, 1 / 3), (2.0, 1 / 3)), uniforms=((1.2, 1.8, 1 / 3),))
op = fpp.orient_pattern(fpp.atom_square_pattern(1.0), 0, ospec, nu=2.0, nu0=1.5, delta_p=0.25 / 3)
print(f"oriented pattern: l1 = {op.l1_const}, l0 = {op.l0}, "
      f"guide length {len(op.guide)}, delta'' = {op.delta_pp:.2e}")

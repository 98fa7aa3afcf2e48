"""Scale-N boxes: typicality clauses, M-sequences, and meta-cube animals.

Run:  python3 demos/04_renormalization_boxes.py
"""

from dataclasses import replace

import fppkit as fpp

spec = fpp.DistributionSpec(atoms=((1.0, 0.5), (2.0, 0.5)))
pat = fpp.heavy_edge_pattern(2.0)
cs = fpp.derive_constants("unbounded", spec, pat, delta=0.25, c_mu=1.0, C_mu=1.6)
print("derived-scale radii would be", (cs.r1, cs.r2, cs.r3),
      "- desk boxes override them")

# A desk-scale box with overridden radii, and nu(N) the Chernoff level of
# its B2 edges (their weight sum reaches it with probability at most 1%).
# The profile clause needs a wide gap between the B2 and B3 radii, and the
# no-fast-pair clause only becomes probable once (r2 - r1) N is large,
# which is exactly why the derived radii dwarf desk scale
box = fpp.BoxScale((0, 0), 2, (1, 2, 16), "unbounded")
n_b2 = len(fpp.RegionGraph(box.ball(2)).edges)
nu_N = fpp.nu_level(spec, n_b2)
rates = {1: 0, 2: 0, 3: 0}
for seed in range(40):
    f = fpp.sample_field(box.outer, spec, seed)
    rep = fpp.typicality_unbounded(box, f, cs, r23=4.2, nu_N=nu_N, pair_sample=12)
    for i, c in enumerate(rep.clauses, 1):
        rates[i] += c.passed
print(f"per-clause pass rates over 40 sampled desk boxes: "
      f"{', '.join(f'({i}) {v}/40' for i, v in rates.items())}")
print(fpp.typicality_unbounded(box, fpp.sample_field(box.outer, spec, 1), cs,
                               r23=4.2, nu_N=nu_N, pair_sample=12).to_text())

# The M-sequence of a long geodesic, with a toy typicality oracle
region = fpp.ProductBox((-6, -6), (120, 30))
f = fpp.sample_field(region, spec, 5)
gamma = fpp.first_lex_geodesic((0, 0), (100, 12), f)
seq = fpp.m_sequence(gamma, 2, 14, 2, 4, lambda s: sum(s) % 2 == 0)
print("M-sequence entries (annulus, center, crossing index):", seq.entries)

animal = fpp.meta_cube_animal(gamma, 4)
print(f"meta-cube animal: {animal.size} cells, edge-count inequality holds: "
      f"{animal.inequality_holds}")

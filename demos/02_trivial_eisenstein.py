"""The trivial Eisenstein series: exact rational coefficients two ways.

The closed formula gives exact rationals; the representation-number Dirichlet
series gives floats converging to the same values.  For the lattice [[2]] the
numbers are the classical index-1 Eisenstein coefficients.

Run with:  python demos/02_trivial_eisenstein.py
"""

from fractions import Fraction

from jacobiforms import (
    EisensteinSpec,
    discriminant_group,
    eisenstein_expansion,
    make_lattice,
    trivial_coefficient_exact,
    trivial_coefficient_series,
)

a1 = make_lattice([[2]])
group = discriminant_group(a1)

print("E_4 for the lattice [[2]] (classical weight-4 index-1 Eisenstein series):")
spec = EisensteinSpec(lattice=a1, k=4, r=group.zero)
for idx, val in eisenstein_expansion(spec, 2, "exact").sorted_items():
    print(f"  q-exponent {idx.qexp!s:>4}  class {idx.x.coords}: {val}")

print("\nclosed formula vs truncated Dirichlet series (B = 5000):")
for k in (4, 6, 8):
    exact = trivial_coefficient_exact(a1, k, Fraction(-1), group.zero)
    series = trivial_coefficient_series(a1, k, Fraction(-1), group.zero, 5000)
    print(f"  k={k}: exact {exact!s:>8}  series {series:.6f}")

print("\nodd weights vanish identically:")
print("  k=5, D=-1:", trivial_coefficient_exact(a1, 5, Fraction(-1), group.zero))

# A rank-2 example; coefficients are exact rationals for any even lattice.
a2 = make_lattice([[2, 1], [1, 2]])
g2 = discriminant_group(a2)
print("\nE_4 coefficients for the hexagonal lattice (gram [[2,1],[1,2]]):")
for n in (1, 2):
    val = trivial_coefficient_exact(a2, 4, Fraction(-n), g2.zero)
    print(f"  C(-{n}, 0) = {val}")

# An even unimodular lattice of rank 24: J_{k,E8^3} = M_{k-12} through the theta
# decomposition, so at k = 16 the coefficients are those of E_4.
e8 = [[2, -1, 0, 0, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0, 0, 0], [0, -1, 2, -1, 0, 0, 0, -1],
      [0, 0, -1, 2, -1, 0, 0, 0], [0, 0, 0, -1, 2, -1, 0, 0], [0, 0, 0, 0, -1, 2, -1, 0],
      [0, 0, 0, 0, 0, -1, 2, 0], [0, 0, -1, 0, 0, 0, 0, 2]]
e8x3 = make_lattice([[e8[i % 8][j % 8] if i // 8 == j // 8 else 0 for j in range(24)] for i in range(24)])
print("\nE8^3 (rank 24) at k = 16, where J_{16,E8^3} = M_4: the coefficients of E_4")
spec = EisensteinSpec(lattice=e8x3, k=16, r=discriminant_group(e8x3).zero)
for idx, val in eisenstein_expansion(spec, 3, "exact").sorted_items():
    print(f"  q-exponent {idx.qexp!s:>4}: {val}")

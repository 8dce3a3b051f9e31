"""Splitting an operator into commuting semisimple and nilpotent parts.

The 4x4 matrix below over GF(2) has minimal polynomial (x+1)^3.  Newton's
iteration q <- q - p(q) p'(q)^-1 mod (x+1)^3 on polynomials, from q = x,
gives the certificate q, and S = q(A) is the unique S with A = S + N,
SN = NS, N nilpotent; here q = 1, so S is the identity.
"""

from invlat import Matrix, gf_build, jordan_chevalley, minimal_polynomial, parse_poly
from invlat.decomposition import build_k_structure

F2 = gf_build(2)
A = Matrix(F2, [
    [1, 0, 0, 0],
    [1, 1, 0, 0],
    [0, 1, 1, 0],
    [0, 0, 0, 1],
])

m = minimal_polynomial(A)
print("minimal polynomial:", m, "= (x+1)^3")

dec = jordan_chevalley(A, parse_poly("x+1", F2), 3)
print("\nsemisimple part S:")
for row in dec.S.rows:
    print("  ", [str(e) for e in row])
print("nilpotent part N:")
for row in dec.N.rows:
    print("  ", [str(e) for e in row])
print("certificate q with q(A) = S:", dec.certificate)

ks = build_k_structure(dec.S, dec.N, parse_poly("x+1", F2))
print("\nSegre characteristic of N:", ks.segre)
print("Jordan chains (generator first):")
for chain in ks.chains:  # encoded rows: decoded to field elements for printing
    vectors = (ks.nk.kern.decode(v, ks.k_dim) for v in chain)
    print("  ", " -> ".join(str(list(str(c) for c in v)) for v in vectors), "-> 0")

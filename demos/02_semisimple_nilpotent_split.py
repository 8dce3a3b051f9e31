"""Splitting an operator into commuting semisimple and nilpotent parts.

The 4x4 matrix below over GF(2) has minimal polynomial (x+1)^3.  Newton's
iteration q <- q - p(q) p'(q)^-1 mod (x+1)^3 on polynomials, from q = x,
gives the certificate q, and S = q(A) is the unique S with A = S + N,
SN = NS, N nilpotent; here q = 1, so S is the identity.

The Jordan chains of N over K = F[S] are held as vectors of F^n: K acts
as S, so each chain vector stands for its S-closure (v, S v, ...).  The
companion matrix of (x^2+x+1)^2 shows K = GF(4), where the closure of
each chain vector spans one K-line of F^4.
"""

from invlat import Matrix, companion, gf_build, jordan_chevalley, minimal_polynomial, parse_poly
from invlat.decomposition import build_k_structure
from invlat.kernels import row_kernel

F2 = gf_build(2)
A = Matrix(F2, [
    [1, 0, 0, 0],
    [1, 1, 0, 0],
    [0, 1, 1, 0],
    [0, 0, 0, 1],
])


def text(v):
    return str([str(c) for c in row_kernel(F2).decode(v, 4)])


def print_chains(ks):
    """Each Jordan chain as F-vectors, generator first; when s > 1, each
    vector with its S-closure."""
    for chain in ks.chains:
        steps = [text(block[0]) if ks.s == 1 else "{" + ", ".join(map(text, block)) + "}"
                 for block in chain]
        print("  ", " -> ".join(steps), "-> 0")


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
print_chains(ks)

p = parse_poly("x^2+x+1", F2)
dec = jordan_chevalley(companion(p ** 2), p, 2)
ks = build_k_structure(dec.S, dec.N, p)
print("\n(x^2+x+1)^2: K =", ks.field_k, "and the Segre characteristic over K is", ks.segre)
print("Jordan chains over K, each vector with its S-closure {v, S v}:")
print_chains(ks)

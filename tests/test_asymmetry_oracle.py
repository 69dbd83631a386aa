"""The Chevalley constants of every simply-laced type of rank <= 8 against
the Frenkel-Kac asymmetry function, an oracle that shares nothing with
ConstantTable's extraspecial-pair construction.

For a simply-laced root lattice with simple roots alpha_1..alpha_l, let
eps be the bimultiplicative sign with eps(alpha_i, alpha_j) = -1 when
i = j, or when i < j and a_ij = -1, and +1 otherwise.  Then the e_a with
[e_a, e_b] = eps(a, b) e_(a+b) whenever a + b is a root span a Chevalley
basis (Frenkel and Kac, Invent. Math. 62 (1980); Kac, Infinite-Dimensional
Lie Algebras, 7.8), and any Chevalley basis with the same Cartan part is
E_a = s_a e_a for signs s_a.  So N(a, b) = s_a s_b s_(a+b) eps(a, b) on
every pair whose sum is a root.

The gauge s is solved by height: s = 1 on the simple roots, and each
positive root of height >= 2 reads its sign off one simple root below it.
In the Frenkel-Kac basis [e_a, e_-a] = eps(a, -a) a = -a, so keeping
crlie's [E_a, E_-a] = H_a takes s_-a = -s_a; with that imposed, nothing is
left free, and every constant of the table is checked against the oracle.
"""

import pytest

from crlie.rootsys import build

TYPES = [f"A{r}" for r in range(1, 9)] + [f"D{r}" for r in range(4, 9)] + ["E6", "E7", "E8"]


def asymmetry(system):
    """eps(a, b) for roots i, j as one parity: root i's expansion mod 2
    times the form's matrix, and root j's expansion mod 2, as bit masks."""
    C, r = system.cartan_matrix(), system.rank
    upper = [[i == j or (i < j and C[i][j] == -1) for j in range(r)] for i in range(r)]
    left, right = [], []
    for e in system.expansions:
        odd = [sum(e[i] for i in range(r) if upper[i][j]) & 1 for j in range(r)]
        left.append(sum(1 << j for j in range(r) if odd[j]))
        right.append(sum(1 << j for j in range(r) if e[j] & 1))

    def eps(i, j):
        return -1 if (left[i] & right[j]).bit_count() & 1 else 1

    return eps


def solve_gauge(system, n, eps):
    """The signs s with n(a, b) = s_a s_b s_(a+b) eps(a, b), by height from
    s = 1 on the simple roots, and s_-a = -s_a."""
    simple = {e.index(1): i for i, e in enumerate(system.expansions)
              if system.positive[i] and sum(e) == 1}
    s = [0] * len(system.roots)
    for k in sorted((i for i in range(len(s)) if system.positive[i]), key=system.height):
        if k in simple.values():
            s[k] = 1
        else:
            a = next(a for j, a in simple.items() if system.expansions[k][j]
                     and system.sum_index(k, system.neg_index[a]) is not None)
            b = system.sum_index(k, system.neg_index[a])
            s[k] = n(a, b) * s[a] * s[b] * eps(a, b)
        s[system.neg_index[k]] = -s[k]
    return s


@pytest.mark.parametrize("tag", TYPES)
def test_constants_match_the_asymmetry_function(tag):
    system = build(tag)
    n, eps = system.constants.n, asymmetry(system)
    s = solve_gauge(system, n, eps)
    bad = []
    for i in range(len(s)):
        for j in range(len(s)):
            k = system.sum_index(i, j)
            want = 0 if k is None else s[i] * s[j] * s[k] * eps(i, j)
            if j != system.neg_index[i] and n(i, j) != want:
                bad.append((i, j))
    assert not bad, f"{len(bad)} constants differ from the asymmetry function, first {bad[0]}"

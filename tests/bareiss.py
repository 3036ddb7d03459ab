"""Exact integer determinant by fraction-free (Bareiss) elimination.

The reference the tests hold `decomp.gram_determinant` and the Gram minors
against; the library reads the Gram determinant off the label counts.
"""


def determinant(matrix: list[list[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]

"""Shared fixtures and matrix generators for the test suite."""

import numpy as np
import pytest

from tetrablock.poly3 import _unpack_triple


@pytest.fixture
def rng():
    return np.random.default_rng(20250818)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, n):
    g = random_complex(rng, (n, n))
    return (g + g.conj().T) / 2.0


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, (n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def power_table_eval_operator(p, t):
    # Reference operator evaluation: fresh power tables on every call and
    # every monomial multiplied out, exact zeros included.
    t1, t2, t3 = _unpack_triple(t)
    n = t1.shape[0]
    acc = np.zeros((n, n), dtype=np.complex128)
    if not p.coeffs:
        return acc
    d1 = max(exp[0] for exp in p.coeffs)
    d2 = max(exp[1] for exp in p.coeffs)
    d3 = max(exp[2] for exp in p.coeffs)
    eye = np.eye(n, dtype=np.complex128)

    def powers(m, d):
        out = [eye]
        for _ in range(d):
            out.append(out[-1] @ m)
        return out

    pow1 = powers(t1, d1)
    pow2 = powers(t2, d2)
    pow3 = powers(t3, d3)
    for (m1, m2, m3), c in p.coeffs.items():
        acc += c * (pow1[m1] @ pow2[m2] @ pow3[m3])
    return acc

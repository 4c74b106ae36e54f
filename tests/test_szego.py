import time

import numpy as np
import pytest

from foelner import ops, szego
from foelner.errors import InvalidSpec, NonHermitianCompression, ResourceLimit

TWO_COS = ops.OperatorSpec.toeplitz({1: 1.0, -1: 1.0})
MIXED = ops.OperatorSpec.toeplitz({1: 1.0, -1: 1.0, 2: 0.5, -2: 0.5})


def test_compression_eigenvalues_closed_form():
    ev = np.linalg.eigvalsh(ops.compress(TWO_COS, 5).entries)
    want = np.sort(2 * np.cos(np.arange(1, 6) * np.pi / 6))
    assert np.allclose(ev, want, atol=1e-12)


def test_symbol_from_spec_requires_toeplitz():
    with pytest.raises(InvalidSpec):
        szego.SymbolPolynomial.from_spec(ops.OperatorSpec.hermite_q())


def test_symbol_moments_two_cos():
    s = szego.SymbolPolynomial.from_spec(TWO_COS)
    # moments of 2cos(theta): central binomials on even powers
    assert szego.symbol_moment(s, 0) == 1.0
    assert szego.symbol_moment(s, 1) == 0.0
    assert szego.symbol_moment(s, 2) == 2.0
    assert szego.symbol_moment(s, 3) == 0.0
    assert szego.symbol_moment(s, 4) == 6.0
    assert szego.symbol_moment(s, 6) == 20.0
    # one chain of powers gives every p it passes
    assert szego._symbol_moments(s, [0, 3, 4, 6]) == {0: 1.0, 3: 0.0, 4: 6.0, 6: 20.0}


def test_symbol_moments_mixed():
    s = szego.SymbolPolynomial.from_spec(MIXED)
    assert szego.symbol_moment(s, 1) == 0.0
    # sum |c_d|^2 = 1 + 1 + 0.25 + 0.25
    assert szego.symbol_moment(s, 2) == pytest.approx(2.5, abs=1e-15)
    assert s.is_hermitian()


def test_second_moment_gap_is_exactly_two_over_n():
    # trace of T_n^2 misses exactly the two band entries cut at the corner
    for n in (10, 100, 1000):
        assert abs(szego._trace_moments(TWO_COS, n, [2])[2] - 2.0) == pytest.approx(2 / n, abs=1e-12)


def test_compare_table_and_monotone_trend():
    c = szego.szego_compare(TWO_COS, ns=[50, 100, 200, 400], ps=[1, 2, 4])
    assert len(c.rows) == 12
    assert set(c.monotone) == {1, 2, 4}
    assert c.monotone[2] is True
    by = {(r.n, r.p): r for r in c.rows}
    assert by[(100, 2)].gap == pytest.approx(2 / 100, abs=1e-12)
    assert by[(400, 1)].reference == 0.0


def test_fitted_gap_constant():
    c = szego.szego_compare(TWO_COS, ns=[50, 100, 200, 400, 800], ps=[2])
    C = szego.fitted_gap_constant(c, 2)
    assert C == pytest.approx(2.0, abs=1e-12)
    for row in c.rows:
        assert row.gap <= C / row.n + 1e-15
    with pytest.raises(ValueError):
        szego.fitted_gap_constant(c, 3)


def test_odd_moment_gaps_vanish_exactly():
    # symmetric spectrum: odd traces are sums of zeros, not small numbers
    c = szego.szego_compare(TWO_COS, ns=[17, 64, 300], ps=[1, 3])
    assert all(r.empirical == 0.0 and r.gap == 0.0 for r in c.rows)


def test_compare_rejects_non_hermitian_symbol():
    with pytest.raises(NonHermitianCompression):
        szego.szego_compare(ops.OperatorSpec.toeplitz({1: 1.0}), ns=[8], ps=[2])


def test_compare_refuses_a_diagonal_over_the_dense_budget():
    with pytest.raises(ResourceLimit):
        szego.szego_compare(TWO_COS, ns=[50, ops.DENSE_CELLS + 1], ps=[2])


def test_mixed_symbol_moments_converge():
    c = szego.szego_compare(MIXED, ns=[50, 200, 800], ps=[2, 4])
    by = {(r.n, r.p): r for r in c.rows}
    assert by[(800, 2)].gap < by[(50, 2)].gap
    assert by[(800, 2)].gap < 0.01
    assert by[(800, 4)].gap < 0.1


@pytest.mark.parametrize("bands", [
    {1: 1.0, -1: 1.0},
    {1: 1.0, -1: 1.0, 2: 0.5, -2: 0.5},
    {0: 0.3, 1: 1 - 2j, -1: 1 + 2j, 2: 0.25j, -2: -0.25j},
], ids=["two_cos", "mixed", "complex5"])
def test_trace_moments_match_dense_matrix_powers(bands):
    spec = ops.OperatorSpec.toeplitz(bands)
    ps = [0, 1, 2, 3, 4, 5, 6]
    for n in (1, 2, 5, 17, 64):
        # reference: the dense Toeplitz section, band d = row - column
        T = sum(c * np.eye(n, k=-d) for d, c in bands.items())
        got = szego._trace_moments(spec, n, ps)
        assert sorted(got) == ps
        for p in ps:
            want = np.trace(np.linalg.matrix_power(T, p)).real / n
            assert got[p] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_trace_budget_bounds_the_row_loop():
    # a dense reach-50 symbol at n = 1000 runs (reach 1000 at n = 10^4 is refused in
    # test_cli.py); one band at a power of 10^12 is refused by its steps alone
    dense = ops.OperatorSpec.toeplitz({d: 1.0 for d in range(-50, 51)})
    assert szego._trace_moments(dense, 1000, [2])[2] == 98.45
    with pytest.raises(ResourceLimit, match="n=10 up to power 1000000000000 "):
        szego._trace_moments(ops.OperatorSpec.toeplitz({0: 1.0}), 10, [10 ** 12])


def test_symbol_moment_budget_refuses_before_any_loop(monkeypatch):
    # all ones at reach 10^4: the chain of convolutions up to p = 4 makes about 1.2 10^9
    # products, so the comparison is refused at once; reach 1000 (about 2.4 10^7) is admitted
    wide = ops.OperatorSpec.toeplitz({d: 1.0 for d in range(-10 ** 4, 10 ** 4 + 1)})
    start = time.perf_counter()
    with pytest.raises(ResourceLimit, match="symbol moments up to power 4 "):
        szego.szego_compare(wide, ns=[100], ps=[1, 2, 3, 4])
    assert time.perf_counter() - start < 1
    monkeypatch.setattr(szego, "_symbol_moments", lambda symbol, ps: dict.fromkeys(ps, 0.0))
    reach1000 = ops.OperatorSpec.toeplitz({d: 1.0 for d in range(-1000, 1001)})
    assert len(szego.szego_compare(reach1000, ns=[100], ps=[1, 2, 3, 4]).rows) == 4

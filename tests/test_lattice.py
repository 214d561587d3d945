import math

import numpy as np
import pytest

from goldstone.lattice import MAX_HILBERT_DIM, Lattice, dispersion_symbol
from goldstone.operators import basis_tables, shared_rows


def test_dispersion_symbol_values():
    assert dispersion_symbol((0.0, 0.0)) == pytest.approx(0.0, abs=1e-15)
    assert dispersion_symbol((math.pi, math.pi)) == pytest.approx(4.0)
    assert dispersion_symbol((math.pi / 2, 0.0)) == pytest.approx(1.0)


def test_spec_rejects_odd_extent():
    with pytest.raises(ValueError):
        Lattice((3, 4))


def test_spec_rejects_bad_spin():
    with pytest.raises(ValueError):
        Lattice((2, 2), spin=0.3)
    with pytest.raises(ValueError):
        Lattice((2, 2), spin=0.0)


def test_spec_memory_budget():
    # 2^64 states, far above the budget
    with pytest.raises(ValueError, match=f"budget of {MAX_HILBERT_DIM}"):
        Lattice((4, 4, 4), spin=0.5)


def test_lattices_equal_and_hash_by_extents_and_spin():
    a, b = Lattice([2, 4]), Lattice((2, 4))
    assert a is not b and a == b and hash(a) == hash(b)
    assert Lattice((2, 4), 1.0) != a
    assert Lattice((4, 2)) != a


def test_equal_lattices_share_their_tables():
    """Two equal lattices built apart read one cached entry of each
    per-lattice table."""
    a, b = Lattice((2, 4)), Lattice((2, 4))
    for table in (basis_tables, shared_rows):
        table.cache_clear()
        assert table(a) is table(b)
        assert table.cache_info().currsize == 1


@pytest.mark.parametrize("extents,expected", [
    ((4, 4), 32),    # d*N on a clean torus
    ((2, 4), 12),    # extent-2 axis keeps one wrap bond per pair
    ((2, 2), 4),
    ((4,), 4),
    ((2,), 1),
])
def test_bond_counts(extents, expected):
    lat = Lattice(extents)
    assert len(lat.bonds) == expected
    assert len(set(lat.bonds)) == expected


def test_staggered_sign_flips_across_bonds():
    for extents in ((2, 2), (2, 4), (4, 4), (4,)):
        lat = Lattice(extents)
        for (i, j) in lat.bonds:
            assert lat.staggered_signs[i] * lat.staggered_signs[j] == -1


def test_momentum_grid_contains_zero_and_q():
    for extents in ((2, 2), (2, 4), (4, 4)):
        lat = Lattice(extents)
        zero = tuple(0 for _ in extents)
        assert zero in lat.momenta
        assert lat.q_ordering in lat.momenta
        assert len(lat.momenta) == lat.n_sites


def test_momentum_grid_closed_under_negation():
    lat = Lattice((2, 4))
    grid = set(lat.momenta)
    for n in lat.momenta:
        assert lat.negate(n) in grid
    # pi folds onto itself
    assert lat.negate(lat.q_ordering) == lat.q_ordering


def test_fold_and_shift_arithmetic():
    lat = Lattice((4, 4))
    q = lat.q_ordering
    assert lat.add(q, q) == (0, 0)
    n = (1, 0)
    assert lat.shift_q(lat.shift_q(n)) == n
    assert np.allclose(lat.kvec(q), [math.pi, math.pi])


def test_kvec_and_dispersion_agree():
    lat = Lattice((2, 4))
    for n in lat.momenta:
        assert lat.dispersion(n) == pytest.approx(
            dispersion_symbol(lat.kvec(n)), abs=1e-14)


def test_graph_distance_and_ball():
    lat = Lattice((2, 4))
    assert lat.graph_distance(0, 0) == 0
    dists = sorted({lat.graph_distance(0, j) for j in range(lat.n_sites)})
    assert dists == [0, 1, 2, 3]
    assert lat.diameter == 3
    assert set(lat.ball(0, lat.diameter)) == set(range(lat.n_sites))
    assert len(lat.ball(0, 0)) == 1


def test_site_index_row_major():
    lat = Lattice((2, 4))
    for i, x in enumerate(lat.sites):
        assert lat.site_index(x) == i

"""Domain membership, boundary structure, and sup estimation tests."""

import tracemalloc

import numpy as np
import pytest

from tetrablock import (
    Poly3,
    random_poly,
    classify_point,
    defining_abs_min,
    point_from_json,
    point_to_json,
    sample_distinguished_boundary,
    sup_on_closure,
)
from tetrablock import contractions, geometry
from tetrablock.contractions import varopoulos_polynomial
from tetrablock.poly3 import eval_scalar_many

from conftest import (
    compass_defining_abs_min,
    per_trial_sup_on_closure,
    single_eval_scalar_many,
)

CHUNK = geometry._CHUNK
# Sample counts off the chunk grid: one row, a chunk's neighbours, a
# tail of five rows, and the falsifier's ten-times resample.
OFF_GRID = [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5, 40960]


def structured_point(rng, beta_sum, x3_mod):
    """Point built from an explicit parameter pair with |b1|+|b2| = beta_sum."""
    split = rng.random()
    ph = np.exp(2j * np.pi * rng.random(3))
    b1 = beta_sum * split * ph[0]
    b2 = beta_sum * (1.0 - split) * ph[1]
    x3 = x3_mod * ph[2]
    x1 = b1 + np.conj(b2) * x3
    x2 = b2 + np.conj(b1) * x3
    return complex(x1), complex(x2), complex(x3), (complex(b1), complex(b2))


def test_structured_insiders_classified_in(rng):
    for _ in range(50):
        x1, x2, x3, beta = structured_point(rng, 0.85 * rng.random(), 0.9 * rng.random())
        rep = classify_point(x1, x2, x3)
        assert rep.in_closure
        assert rep.residual <= 1e-10
        # The parameter pair is unique below the |x3| = 1 face.
        assert abs(rep.beta[0] - beta[0]) <= 1e-9
        assert abs(rep.beta[1] - beta[1]) <= 1e-9


def test_structured_outsiders_classified_out(rng):
    for _ in range(50):
        x1, x2, x3, _ = structured_point(rng, 1.1 + rng.random(), 0.9 * rng.random())
        rep = classify_point(x1, x2, x3)
        assert not rep.in_closure
        assert rep.beta_sum > 1.0


def test_large_x3_is_outside():
    rep = classify_point(0.0, 0.0, 1.5)
    assert not rep.in_closure
    assert rep.beta is None


def test_unimodular_x3_branch():
    # Consistent and small: on the distinguished boundary.
    x3 = complex(np.exp(1j * 0.7))
    x2 = complex(0.4 * np.exp(1j * 1.9))
    x1 = complex(np.conj(x2) * x3)
    rep = classify_point(x1, x2, x3)
    assert rep.in_closure
    assert rep.distinguished
    # Consistent but |x2| > 1: outside.
    rep = classify_point(1.2, 1.2, 1.0)
    assert not rep.in_closure
    # Inconsistent: outside no matter how small x2 is.
    rep = classify_point(0.3, 0.5, 1.0)
    assert not rep.in_closure
    assert rep.beta is None and rep.beta_sum is None


def test_distinguished_boundary_identities(rng):
    x1, x2, x3 = sample_distinguished_boundary(300, seed=6)
    assert np.max(np.abs(np.abs(x3) - 1.0)) <= 1e-12
    assert np.max(np.abs(x1 - np.conj(x2) * x3)) <= 1e-12
    assert np.max(np.abs(np.abs(x1) - np.abs(x2))) <= 1e-12
    for i in range(0, 300, 37):
        rep = classify_point(x1[i], x2[i], x3[i])
        assert rep.in_closure and rep.distinguished


def test_interior_point_not_distinguished():
    rep = classify_point(0.1, 0.2, 0.3)
    assert rep.in_closure and not rep.distinguished


def test_boundary_sampler_prefix_property():
    a1, a2, a3 = sample_distinguished_boundary(50, seed=123)
    b1, b2, b3 = sample_distinguished_boundary(200, seed=123)
    assert np.array_equal(a1, b1[:50])
    assert np.array_equal(a2, b2[:50])
    assert np.array_equal(a3, b3[:50])


def test_lambda_slice_in_closure(rng):
    # Points (x, 1, x) for |x| <= 1 always admit the pair (0, 1).
    for k in range(40):
        r = 1.0 if k % 2 == 0 else np.sqrt(rng.random())
        x = r * np.exp(2j * np.pi * rng.random())
        rep = classify_point(x, 1.0, x)
        assert rep.in_closure


def test_defining_abs_min_origin_exact():
    assert defining_abs_min(0.0, 0.0, 0.0) == 1.0


def test_defining_abs_min_positive_inside(rng):
    for _ in range(15):
        x1, x2, x3, _ = structured_point(rng, 0.8 * rng.random(), 0.8 * rng.random())
        assert defining_abs_min(x1, x2, x3) > 1e-4


def test_defining_abs_min_zero_outside(rng):
    assert defining_abs_min(2.0, 0.0, 0.0) == 0.0
    for _ in range(15):
        x1, x2, x3, _ = structured_point(rng, 1.2 + rng.random(), 0.8 * rng.random())
        assert defining_abs_min(x1, x2, x3) == 0.0


def membership_draws(seed, n):
    """Points drawn as in acceptance criterion 8, with their beta sum."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        u = rng.random(5)
        s = 1.5 * rng.random()
        b1 = u[0] * np.exp(2j * np.pi * u[1])
        b2 = u[2] * np.exp(2j * np.pi * u[3])
        tot = abs(b1) + abs(b2)
        b1, b2 = b1 * s / tot, b2 * s / tot
        x3 = 0.9 * np.sqrt(rng.random()) * np.exp(2j * np.pi * u[4])
        out.append((b1 + np.conj(b2) * x3, b2 + np.conj(b1) * x3, x3, s))
    return out


def test_defining_abs_min_matches_compass_oracle(rng):
    points = [p[:3] for p in membership_draws(4242, 150)]
    for beta_sum in (0.97, 0.995, 1.005, 1.03):
        for _ in range(15):
            points.append(structured_point(rng, beta_sum, 0.9 * rng.random())[:3])
    positive = 0
    for x1, x2, x3 in points:
        got = defining_abs_min(x1, x2, x3)
        want = compass_defining_abs_min(x1, x2, x3)
        assert abs(got - want) <= 1e-14
        assert (got > 1e-5) == (want > 1e-5)
        positive += got > 0.0
    assert positive >= 50


def test_defining_abs_min_is_global_minimum():
    # A dense 201 x 2,048 polar scan of the disk never finds a smaller
    # value: the closed form is the global minimum, not a local one.
    radii = np.linspace(0.0, 1.0, 201)
    disk = (radii[:, None] * np.exp(2j * np.pi * np.arange(2048) / 2048)).ravel()
    for x1, x2, x3, _ in membership_draws(515, 120):
        scan = np.abs(1.0 - disk * x1) - np.abs(x2 - disk * x3)
        assert defining_abs_min(x1, x2, x3) <= max(scan.min(), 0.0) + 1e-12


def test_defining_abs_min_degenerate_cases():
    x = 0.5 * np.exp(0.1j)
    lam = 0.3 * np.exp(2.0j)
    # x3 = 0: gap = |1 - z*x| - |x2|, smallest at z = conj(x)/|x|; with
    # x2 = 0 too the degree-6 polynomial vanishes identically.
    assert defining_abs_min(x, 0.0, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert defining_abs_min(x, 0.2, 0.0) == pytest.approx(0.3, abs=1e-15)
    # x2 = lam, x3 = lam*x: B = |lam|^2 A, so the polynomial vanishes
    # identically and gap = (1 - |lam|) |1 - z*x|.
    assert defining_abs_min(x, lam, lam * x) == pytest.approx(0.35, abs=1e-15)
    # |x1| = |x3| with x2 = 1: gap is 0 on the whole circle.
    assert defining_abs_min(x, 1.0, x) == 0.0
    # |x1| = |x3| in general: no interior critical point beats the circle.
    for x2 in (0.3, 0.2 - 0.7j, 1.1j):
        x3 = 0.5 * np.exp(-1.3j)
        got = defining_abs_min(x, x2, x3)
        assert abs(got - compass_defining_abs_min(x, x2, x3)) <= 1e-14
    # |x1| >= 1: the zero z = 1/x1 lies in the closed disk.
    for x1 in (1.0, -1j, 0.6 + 0.8j, 1.5 * np.exp(0.4j)):
        assert defining_abs_min(x1, 0.1, 0.2) == 0.0


def test_point_json_round_trip():
    x = (0.25 - 0.5j, 1.75j, -0.125)
    assert point_from_json(point_to_json(*x)) == x


def test_sup_constant_poly_exact():
    p = Poly3({(0, 0, 0): 3.0 - 4.0j})
    assert sup_on_closure(p, n_samples=64, seed=0) == pytest.approx(5.0, abs=1e-12)


def test_sup_of_x3_is_one():
    p = Poly3({(0, 0, 1): 1.0})
    assert sup_on_closure(p, n_samples=512, seed=0) == pytest.approx(1.0, abs=1e-9)


def test_sup_affine_frozen():
    # sup |1 + 2 x1| = 3, attained at the fixed point (1, 1, 1).
    p = Poly3({(0, 0, 0): 1.0, (1, 0, 0): 2.0})
    assert sup_on_closure(p, n_samples=4096, seed=2) == pytest.approx(3.0, abs=1e-6)


def test_sup_varopoulos_polynomial():
    p = varopoulos_polynomial()
    assert sup_on_closure(p, n_samples=4096, seed=7) == pytest.approx(5.0, abs=1e-6)


def test_sup_sample_max_monotone_in_n(monkeypatch):
    monkeypatch.setattr(geometry, "_REFINE_ITERS", 0)
    p = varopoulos_polynomial()
    vals = [sup_on_closure(p, n_samples=n, seed=31) for n in (256, 1024, 4096)]
    assert vals[0] <= vals[1] <= vals[2]


def assert_matches_per_trial(polys, seeds, n_samples):
    # Each estimate must be the per-trial oracle's, bit for bit.
    for p, s in zip(polys, seeds):
        want = per_trial_sup_on_closure(
            p, seed=s, n_samples=n_samples, refine_iters=geometry._REFINE_ITERS
        )
        got = sup_on_closure(p, seed=s, n_samples=n_samples)
        assert type(got) is float and got == want


@pytest.mark.parametrize(
    "degree, n_samples",
    [(1, 256), (2, 256), (3, 256), (3, 4096)] + [(3, n) for n in OFF_GRID],
    ids=["1", "2", "3", "3-4096"] + [f"3-{n}" for n in OFF_GRID],
)
def test_batched_sup_matches_per_trial(degree, n_samples):
    # 4096 samples are as many as a falsifier certificate draws; the
    # counts off the chunk grid end their draw on a partial chunk.
    count = 6 if n_samples < 4096 else 3
    polys = [random_poly(degree, seed=100 * degree + i) for i in range(count)]
    seeds = [np.random.SeedSequence(i) for i in range(count)]
    assert_matches_per_trial(polys, seeds, n_samples=n_samples)


def test_a_point_alone_gets_the_bits_of_its_row_in_a_longer_pass():
    # A one-point draw, or a one-row last chunk, is scored as in one
    # pass over a longer array: numpy rounds an in-place product of
    # one-element arrays differently, so no product is taken in place.
    for degree in (2, 3, 5):
        p = random_poly(degree, seed=degree)
        points = sample_distinguished_boundary(CHUNK, seed=degree)
        want = eval_scalar_many(p, *points)
        for i in range(0, CHUNK, 7):
            alone = eval_scalar_many(p, *(x[i : i + 1] for x in points))
            assert alone.tobytes() == want[i : i + 1].tobytes()
            assert complex(eval_scalar_many(p, *(x[i] for x in points))) == want[i]


@pytest.mark.parametrize("n", OFF_GRID)
def test_sample_scores_are_the_whole_draw_bit_for_bit(n):
    # Drawn and scored a chunk at a time, the parameters and |p| values
    # are those of one pass over the whole draw, to the last bit.  A
    # multiple of every SIMD width keeps each row in its vector lane.
    assert CHUNK % 64 == 0
    for degree in (2, 3, 5):
        p = random_poly(degree, seed=degree)
        seed = np.random.SeedSequence(n + degree)
        u = np.random.default_rng(seed).random((n, 3))
        want = np.abs(eval_scalar_many(p, *geometry._boundary_points(u)))
        params, vals = geometry._sample_scores(p, n, seed)
        assert params.tobytes() == u.tobytes()
        assert vals.tobytes() == want.tobytes()


def test_sample_max_is_the_max_over_each_prefix_of_the_draw():
    # The falsifier's screen and whole-draw bound read prefixes of the
    # draw its certificate samples: each is the prefix's largest |p|.
    p = random_poly(3, seed=11)
    seed = np.random.SeedSequence(12)
    n = max(OFF_GRID)
    vals = np.abs(
        single_eval_scalar_many(p, *sample_distinguished_boundary(n, seed=seed))
    )
    for m in [2, 256] + OFF_GRID:
        assert contractions._sample_max(p, seed, m) == vals[:m].max()


def test_sup_keeps_bytes_per_sample_not_temporaries():
    # The pass keeps the draw's parameters, values and their sort order
    # (40 bytes a sample) and one chunk's temporaries; a whole-draw pass
    # held about 280 bytes a sample.
    p = random_poly(3, seed=1)
    sup_on_closure(p, n_samples=CHUNK, seed=0)
    n = 65536
    tracemalloc.start()
    try:
        sup_on_closure(p, n_samples=n, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20 + 48 * n


def test_batched_sup_without_refinement(monkeypatch):
    monkeypatch.setattr(geometry, "_REFINE_ITERS", 0)
    polys = [random_poly(3, seed=i) for i in range(4)] + [varopoulos_polynomial()]
    assert_matches_per_trial(polys, list(range(5)), n_samples=512)


def test_batched_sup_fewer_samples_than_starts():
    # Three samples give fewer starts than the five the search keeps.
    polys = [random_poly(2, seed=i) for i in range(3)]
    assert_matches_per_trial(polys, [7, 8, 9], n_samples=3)


def test_batched_sup_freezes_trials_independently():
    # With 64 samples, the first polynomial's search stops at iteration
    # 56, and running it on would raise its estimate in the last bit;
    # the second runs all 60 iterations; the constant stops at 27 and
    # the empty polynomial never moves.
    polys = [
        random_poly(1, seed=12),
        random_poly(1, seed=14),
        Poly3({(0, 0, 0): 2.0 - 1.0j}),
        Poly3({}),
    ]
    assert_matches_per_trial(polys, [12, 14, 3, 4], n_samples=64)


def test_sup_rejects_no_samples():
    # Zero samples have no maximum; 0.0 would read as a sup.
    with pytest.raises(ValueError):
        sup_on_closure(Poly3({(1, 0, 0): 1.0}), n_samples=0, seed=1)


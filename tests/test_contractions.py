"""Triple structure checks, fundamental operators, the obstruction and the falsifier."""

import json
import tracemalloc

import numpy as np
import pytest

from tetrablock import contractions, poly3
from tetrablock import (
    BadSplitError,
    DimensionMismatchError,
    InconsistentEquationError,
    NotIsometricEmbeddingError,
    Poly3,
    ToolConfig,
    Triple,
    build_circulant_model,
    build_hardy_model,
    build_witness,
    check_obstruction_hypotheses,
    check_tetra_unitary,
    commutation_defect,
    dilation_obstruction,
    extract_fundamental,
    falsify_spectral_set,
    op_norm,
    pipeline_report_to_json,
    random_poly,
    random_symbol_pair,
    run_pipeline,
    triple_from_json,
    triple_to_json,
    varopoulos_example,
    violation_certificate,
    witness_symbol,
)

from conftest import (
    dense_built,
    power_table_eval_operator,
    random_complex,
    use_dense_witness,
)

SYMBOLS = random_symbol_pair(2, seed=55)


def test_triple_shape_validation():
    with pytest.raises(DimensionMismatchError):
        Triple(t1=np.eye(2), t2=np.eye(3), t3=np.eye(2))


def test_direct_sum_is_given_its_parts_and_scatters_on_read(rng):
    # Two copies of a 2x2 block and one 1x1 block, interleaved: the
    # parts are the given ones, and the dense matrices appear only when
    # read, equal to the block-diagonal matrices written out.
    pair = Triple(*(random_complex(rng, (3, 2, 2))), tol=1e-7)
    single = Triple([[0.5]], [[0.25j]], [[1.0]], tol=1e-7)
    where = np.array([[0, 3], [1, 4]]), np.array([[2]])
    given = [(pair, where[0]), (single, where[1])]
    t = Triple.direct_sum(given, tol=1e-7)
    assert t.dim == 5 and t.tol == 1e-7 and len(t.parts) == 2
    assert all(p is q and w is v for (p, w), (q, v) in zip(t.parts, given))
    assert not {"t1", "t2", "t3", "basis"} & set(vars(t))
    for name in ("t1", "t2", "t3"):
        want = np.zeros((5, 5), dtype=np.complex128)
        for part, occurrences in t.parts:
            for idx in occurrences:
                want[np.ix_(idx, idx)] = getattr(part, name)
        assert np.array_equal(getattr(t, name), want)
    assert t.basis.mats == (t.t1, t.t2, t.t3)
    u = triple_from_json(triple_to_json(t))
    assert [w.tolist() for _, w in u.parts] == [[[0, 3], [1, 4]], [[2]]]


@pytest.mark.parametrize(
    "occurrences, error",
    [
        ([], ValueError),  # no block at all
        ([np.array([[0, 1]])], DimensionMismatchError),  # a 2-row for a 1x1 block
        ([np.array([0, 1])], DimensionMismatchError),  # not (count, size)
        ([np.array([[0.0], [1.0]])], ValueError),  # not integers
        ([np.array([[0], [2]])], ValueError),  # a gap: 1 is missing
        ([np.array([[0], [0]])], ValueError),  # an overlap
        ([np.array([[-1], [0]])], ValueError),  # out of range
        ([np.zeros((0, 1), dtype=int)], ValueError),  # dimension 0
    ],
)
def test_direct_sum_checks_blocks_and_tiling(occurrences, error):
    block = Triple([[1.0]], [[0.0]], [[0.0]])
    with pytest.raises(error):
        Triple.direct_sum([(block, where) for where in occurrences])


def test_triple_repr_and_equality_read_no_matrix():
    # At depth 10^5 one dense matrix would take 9.31 TiB: the repr reads
    # the dimension, the tolerance and the blocks' sizes and copies, and
    # equality is identity.
    t = build_witness(100_000).triple
    assert repr(t) == (
        "Triple(dim=800000, tol=1e-09, blocks=[2x2*399998, 1x1*2, 2x2*1])"
    )
    assert t == t and t != build_witness(100_000).triple
    assert "t1" not in t.__dict__
    # Two distinct dense triples compare without reading an array.
    dense = Triple(np.eye(2), np.eye(2), np.eye(2), tol=1e-7)
    assert dense != Triple(np.eye(2), np.eye(2), np.eye(2), tol=1e-7)
    assert repr(dense) == "Triple(dim=2, tol=1e-07)"
    dense.parts
    assert repr(dense) == "Triple(dim=2, tol=1e-07)"
    model = build_hardy_model(*random_symbol_pair(2, seed=3), 3)
    assert repr(model) == "ModelTriple(dim=6, tol=1e-09)"
    assert model == model and model != model.as_triple()


def test_triple_json_round_trip(rng):
    mats = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    t = Triple(t1=mats[0], t2=mats[1], t3=mats[2], tol=1e-7)
    u = triple_from_json(triple_to_json(t))
    assert u.tol == t.tol
    assert np.array_equal(u.t1, t.t1)
    assert np.array_equal(u.t2, t.t2)
    assert np.array_equal(u.t3, t.t3)


def test_commutation_defect(rng):
    d = [np.diag(rng.standard_normal(3)) for _ in range(3)]
    assert commutation_defect(Triple(t1=d[0], t2=d[1], t3=d[2])) == 0.0
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    t = Triple(t1=a, t2=a.T, t3=np.eye(2))
    assert commutation_defect(t) == pytest.approx(1.0, abs=1e-12)


def test_circulant_model_is_tetra_unitary():
    m = build_circulant_model(*SYMBOLS, 6)
    rep = check_tetra_unitary(m.as_triple())
    assert rep.passed
    for field in ("commutation", "unitary_defect", "relation_1", "relation_2",
                  "normality_1", "normality_2"):
        assert getattr(rep, field) <= 1e-12
    assert rep.contraction_excess <= 1e-12


def test_witness_is_not_tetra_unitary():
    w = build_witness(4)
    rep = check_tetra_unitary(w.triple)
    assert not rep.passed
    assert rep.unitary_defect == pytest.approx(1.0, abs=1e-12)


def test_hardy_model_isometry_fails_at_truncation():
    m = build_hardy_model(*SYMBOLS, 4)
    # The truncated shift drops exactly one slot, so the defect is 1.
    assert contractions.relation_defects(m)[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("cols", [slice(None), slice(None, 6), slice(None, 0)])
def test_relation_defects_match_the_written_out_identities(cols):
    # The one helper keeps the expressions each report used to write
    # out, so its values are the same bit for bit.
    t = build_hardy_model(*random_symbol_pair(2, seed=56, diagonal=False), 4)
    t1, t2, t3 = t.t1, t.t2, t.t3
    want = (
        op_norm(t3.conj().T @ t3[:, cols] - np.eye(t.dim)[:, cols]),
        op_norm(t1[:, cols] - t2.conj().T @ t3[:, cols]),
        op_norm(t2[:, cols] - t1.conj().T @ t3[:, cols]),
    )
    assert contractions.relation_defects(t, cols) == want


def test_extract_fundamental_on_witness():
    w = build_witness(4)
    fp = extract_fundamental(w.triple)
    assert fp.rank == 18
    assert fp.basis.shape == (32, 18)
    # The defect of the witness shift is an exact projection.
    assert np.max(np.abs(fp.defect_values - 1.0)) <= 1e-12
    assert op_norm(fp.a1) == pytest.approx(0.25, abs=1e-12)
    assert op_norm(fp.a2) <= 1e-12
    assert fp.residual_1 <= 1e-10
    assert fp.residual_2 <= 1e-10


def test_extract_fundamental_on_hardy_model():
    m = build_hardy_model(*SYMBOLS, 5)
    fp = extract_fundamental(m.as_triple())
    k = m.block_dim
    assert fp.rank == k
    assert fp.residual_1 <= 1e-10
    assert fp.residual_2 <= 1e-10
    # Basis rotation preserves singular values of the symbols.
    got = np.linalg.svd(fp.a1, compute_uv=False)
    want = np.linalg.svd(m.a1, compute_uv=False)
    assert np.max(np.abs(got - want)) <= 1e-10


def test_dilation_obstruction_normal_pair(rng):
    a1 = np.diag(0.3 * rng.standard_normal(3))
    a2 = np.diag(0.3 * rng.standard_normal(3))
    rep = dilation_obstruction(a1, a2)
    assert not rep.obstructed
    assert rep.c1 == 0.0 and rep.c2 == 0.0


def test_dilation_obstruction_witness_pair():
    f1 = witness_symbol()
    rep = dilation_obstruction(f1, np.zeros((2, 2)))
    assert rep.obstructed
    assert rep.c1 == 0.0
    assert rep.c2 == pytest.approx(0.0625, abs=1e-14)


def test_dilation_obstruction_shape_gate():
    with pytest.raises(DimensionMismatchError):
        dilation_obstruction(np.eye(2), np.eye(3))


def test_hypotheses_interior_mode_passes_on_witness():
    w = build_witness(4)
    rep = check_obstruction_hypotheses(
        w.triple, w.split, boundary=w.boundary
    )
    assert rep.mode == "interior"
    assert rep.boundary_dim == 2
    assert rep.passed
    assert max(rep.defect_kernel, rep.defect_range) <= 1e-12
    assert max(rep.shift_kills_range, rep.shift_maps_kernel) <= 1e-12


def test_hypotheses_strict_mode_sees_truncation():
    # Without discounting the boundary the kernel/range comparison
    # must fail by a full unit at any finite depth.
    w = build_witness(4)
    rep = check_obstruction_hypotheses(w.triple, w.split)
    assert rep.mode == "strict"
    assert not rep.passed
    assert rep.defect_kernel == pytest.approx(1.0, abs=1e-12)


def test_hypotheses_split_gate():
    w = build_witness(4)
    with pytest.raises(BadSplitError):
        check_obstruction_hypotheses(w.triple, w.split - 1)


def test_hypotheses_boundary_gate():
    w = build_witness(4)
    n = w.triple.dim
    check = lambda b: check_obstruction_hypotheses(w.triple, w.split, boundary=b)
    # A repeated coordinate is a repeated column: not orthonormal.
    with pytest.raises(NotIsometricEmbeddingError):
        check(np.array([14, 15, 14]))
    for out_of_range in ([n], [-1], [0, n + 5]):
        with pytest.raises(DimensionMismatchError):
            check(np.array(out_of_range))
    # Only 1-D integers are coordinates: an old-style boundary matrix,
    # float coordinates or a 0/1 mask is refused, never read as indices.
    old_style = np.zeros((n, 2))
    old_style[[14, 15], [0, 1]] = 1.0
    mask = np.isin(np.arange(n), w.boundary)
    for bad in (old_style, w.boundary.astype(float), mask, w.boundary[:, None], 3):
        with pytest.raises(ValueError):
            check(bad)
    assert check([14, 15]) == check(w.boundary)
    assert check([]) == check_obstruction_hypotheses(w.triple, w.split)


def dense_hypotheses(t, split, boundary):
    # The four defects on the whole matrices, with dim-sized masks.
    coords = np.arange(t.dim)
    return contractions._hypothesis_defects(
        t.t3, coords < split, np.isin(coords, boundary), tol=1e-9, rank_tol=1e-8
    )


def hypothesis_defects(rep):
    return (
        rep.defect_kernel,
        rep.defect_range,
        rep.shift_kills_range,
        rep.shift_maps_kernel,
    )


@pytest.mark.parametrize("rows", [[0, 14, 17], [0, 14, 15]])
def test_hypotheses_boundary_across_blocks_equals_dense(rows):
    # A coordinate boundary spanning three T3 blocks joins none of them:
    # the check, run on the triple's parts, agrees with the whole
    # matrices.  With both boundary coordinates in it, the whole defect
    # comes from the one copy of the shift block that holds coordinate
    # 0, so that copy must stay a piece apart from the others.
    w = build_witness(4)
    label = {
        int(i): k
        for k, block in enumerate(contractions.diagonal_blocks((w.triple.t3,)))
        for i in block
    }
    assert len({label[r] for r in rows}) == 3
    rep = check_obstruction_hypotheses(w.triple, w.split, boundary=np.array(rows))
    assert (rep.mode, rep.boundary_dim, rep.passed) == ("interior", len(rows), False)
    got = hypothesis_defects(rep)
    want = dense_hypotheses(w.triple, w.split, rows)
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-12
    assert rep.defect_kernel == pytest.approx(1.0, abs=1e-12)


def dict_first_distinct(rows):
    # The deduplication _first_distinct replaces: a dict over each row's
    # bytes, in first-occurrence order.
    first = {}
    for i, row in enumerate(rows):
        first.setdefault(row.tobytes(), i)
    return list(first.values())


def hypothesis_mask_rows(t, split, boundary):
    # Each part's (first-half, boundary) mask rows, as the check forms them.
    return [
        np.stack([where < split, np.isin(where, boundary)], axis=1).reshape(
            len(where), -1
        )
        for _, where in t.parts
    ]


@pytest.mark.parametrize("depth", [3, 4, 5, 8, 16, 33, 64])
def test_first_distinct_masks_equal_the_dict_on_the_witness(depth):
    w = build_witness(depth)
    for boundary in (w.boundary, [], [0, 2 * depth + 1, w.triple.dim - 1]):
        for rows in hypothesis_mask_rows(w.triple, w.split, boundary):
            got = contractions._first_distinct(rows)
            assert got.tolist() == dict_first_distinct(rows)


def test_first_distinct_masks_equal_the_dict_on_dense_triples(rng):
    # A witness read back from JSON finds its parts on dense matrices;
    # a multi-block dense triple has two distinct blocks, one of them
    # twice; a one-block dense triple has a single row of 2 * dim bits.
    w = build_witness(8)
    witness = triple_from_json(json.loads(json.dumps(triple_to_json(w.triple))))
    a = build_hardy_model(*random_symbol_pair(2, seed=3), 3).as_triple()
    b = build_hardy_model(*random_symbol_pair(2, seed=4), 3).as_triple()
    blocks = direct_sum(*[(m.t1, m.t2, m.t3) for m in (a, b, a)])
    single = Triple(*random_complex(rng, (3, 10, 10)))
    cases = [
        (witness, w.split, w.boundary),
        (blocks, 9, [0, 7, 17]),
        (single, 5, [1, 8]),
    ]
    for t, split, boundary in cases:
        for rows in hypothesis_mask_rows(t, split, boundary):
            got = contractions._first_distinct(rows)
            assert got.tolist() == dict_first_distinct(rows)
    assert hypothesis_mask_rows(single, 5, [1, 8])[0].shape == (1, 20)


@pytest.mark.parametrize("width", [1, 4, 7, 8, 9, 16, 17, 70])
def test_first_distinct_rows_of_any_width(rng, width):
    # Rows drawn from a few prototypes, so most repeat.
    prototypes = rng.random((6, width)) < 0.5
    rows = prototypes[rng.integers(0, 6, 500)]
    got = contractions._first_distinct(rows)
    assert got.tolist() == dict_first_distinct(rows)


def test_hypotheses_allocate_nothing_dim_sized():
    # On the depth-256 witness (dim 2048) with its parts cached, the
    # check works on the parts' occurrence arrays only: a dense dim x dim
    # projector alone would take 64 MB.
    w = build_witness(256)
    w.triple.parts
    tracemalloc.start()
    try:
        rep = check_obstruction_hypotheses(w.triple, w.split, boundary=w.boundary)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 8 * 2**20


def test_varopoulos_certificate():
    t, p = varopoulos_example()
    cert = violation_certificate(t, p)
    assert cert.violates
    assert cert.lhs == pytest.approx(3.0 * np.sqrt(3.0), abs=1e-9)
    assert cert.sup_refined == pytest.approx(5.0, abs=1e-6)
    assert cert.lhs > cert.sup_refined + cert.margin


def test_falsifier_confirms_varopoulos_violation():
    t, p = varopoulos_example()
    rep = falsify_spectral_set(t, polys=[p], seed=1)
    assert rep.outcome == "Violation"
    assert rep.certificate is not None
    assert rep.certificate.violates
    assert rep.worst_ratio > 1.03


def test_falsifier_finds_nothing_on_witness():
    w = build_witness(4)
    rep = falsify_spectral_set(w.triple, trials=60, degree=3, seed=17)
    assert rep.outcome == "NoViolationFound"
    # The best-ratio trial is kept for inspection but does not violate.
    assert rep.certificate is not None and not rep.certificate.violates
    assert rep.trials_run == 60
    assert rep.worst_ratio <= 1.0
    assert rep.commutation_defect <= 1e-12


def per_trial_falsify(t, *, trials=None, degree=3, seed=0, polys=None, config=None):
    # Reference falsifier: one certificate per trial, in trial order,
    # stopping at the first confirmed violation.
    if polys is not None:
        items = [(p, seed + i) for i, p in enumerate(polys)]
    else:
        items = []
        for child in np.random.SeedSequence(seed).spawn(trials):
            grand = child.spawn(2)
            items.append((random_poly(degree, seed=grand[0]), grand[1]))
    worst_ratio, certificate, outcome, ran = 0.0, None, "NoViolationFound", 0
    for p, sup_seed in items:
        cert = violation_certificate(t, p, seed=sup_seed, config=config or ToolConfig())
        ran += 1
        ratio = cert.lhs / max(cert.sup_refined, 1e-300)
        if ratio > worst_ratio:
            worst_ratio = ratio
            if certificate is None or not certificate.violates:
                certificate = cert
        if cert.violates:
            certificate, outcome = cert, "Violation"
            break
    return outcome, ran, worst_ratio, certificate


@pytest.mark.parametrize(
    "triple, trials, degree",
    [
        (build_witness(4).triple, 30, 3),
        (varopoulos_example()[0], 20, 2),
        (Triple(t1=[[2.0]], t2=[[0.0]], t3=[[0.0]]), 30, 2),
        (Triple(t1=np.diag([2.0, 0.5]), t2=np.diag([0.0, 0.2]), t3=np.eye(2) / 4),
         30, 2),
    ],
)
def test_falsifier_matches_per_trial_certificates(triple, trials, degree):
    # The batched screen must reach the verdict, trial count, ratio and
    # certificate of certifying every trial on its own, bit for bit.
    rep = falsify_spectral_set(triple, trials=trials, degree=degree, seed=2)
    want = per_trial_falsify(triple, trials=trials, degree=degree, seed=2)
    assert (rep.outcome, rep.trials_run, rep.worst_ratio, rep.certificate) == want


def _deciding_cases():
    # Cases where the falsifier certifies more than one trial, or stops
    # at a violation: (id, triple, keyword arguments).
    witness = build_witness(32).triple
    varo_triple, varo = varopoulos_example()
    for seed in (6, 10, 11):
        yield f"d32-seed{seed}", witness, dict(trials=50, degree=3, seed=seed)
    yield "varopoulos-deg3", varo_triple, dict(trials=100, degree=3, seed=3)
    for n in (100, 1):
        config = ToolConfig(sup_samples=n)
        yield f"d4-samples{n}", build_witness(4).triple, dict(
            trials=30, degree=3, seed=2, config=config
        )
        yield f"varopoulos-samples{n}", varo_triple, dict(
            trials=30, degree=3, seed=2, config=config
        )
    others = [random_poly(2, seed=i) for i in range(4)]
    for pos in range(3):
        polys = others[:pos] + [varo] + others[pos:]
        yield f"planted-at-{pos}", varo_triple, dict(polys=polys, seed=40)
    # x1 and x1^2 both violate at a point outside the domain, x1^2 by
    # more: the worst ratio is that of the trials run, up to x1.
    outside = Triple(t1=[[2.0]], t2=[[0.0]], t3=[[0.0]])
    x1, x1_squared = Poly3({(1, 0, 0): 1.0}), Poly3({(2, 0, 0): 1.0})
    yield "violation-before-larger", outside, dict(
        polys=[others[0], x1, x1_squared], seed=5
    )


@pytest.mark.parametrize(
    "triple, kwargs",
    [pytest.param(triple, kwargs, id=name) for name, triple, kwargs in _deciding_cases()],
)
def test_falsifier_matches_per_trial_where_several_trials_decide(triple, kwargs):
    # The pruned screen certifies few of these trials; the verdict, trial
    # count, ratio and certificate must still be those of certifying
    # every trial on its own, bit for bit.
    rep = falsify_spectral_set(triple, **kwargs)
    want = per_trial_falsify(triple, **kwargs)
    assert (rep.outcome, rep.trials_run, rep.worst_ratio, rep.certificate) == want


def test_falsifier_certifies_few_trials_on_the_benchmark_inputs(monkeypatch):
    # pipeline-d32's inputs: the depth-32 witness, 50 trials, and the
    # per-op seeds of workload seed 1.  A screen that falls back to
    # certifying every trial, or certifies one trial twice, fails here.
    witness = build_witness(32).triple
    calls = []

    def spy(t, p, **kwargs):
        calls.append(p)
        return violation_certificate(t, p, **kwargs)

    monkeypatch.setattr(contractions, "violation_certificate", spy)
    for seed in np.random.SeedSequence(1).generate_state(16).tolist():
        calls.clear()
        falsify_spectral_set(witness, trials=50, degree=3, seed=seed)
        assert 1 <= len(calls) <= 3
        assert all(p is not q for i, p in enumerate(calls) for q in calls[:i])


def test_falsifier_stops_at_first_confirmed_violation():
    t, varo = varopoulos_example()
    benign = Poly3({(0, 0, 0): 0.5, (0, 0, 1): 0.25})
    rep = falsify_spectral_set(t, polys=[benign, varo, varo], seed=40)
    assert rep.outcome == "Violation"
    assert rep.trials_run == 2
    assert rep.certificate == violation_certificate(t, varo, seed=41)
    assert rep.worst_ratio == rep.certificate.lhs / rep.certificate.sup_refined
    want = per_trial_falsify(t, polys=[benign, varo, varo], seed=40)
    assert (rep.outcome, rep.trials_run, rep.worst_ratio, rep.certificate) == want


def test_falsifier_zero_polynomial_has_no_certificate():
    w = build_witness(3)
    rep = falsify_spectral_set(w.triple, polys=[Poly3({}), Poly3({})], seed=1)
    assert rep.outcome == "NoViolationFound"
    assert rep.trials_run == 2
    assert rep.worst_ratio == 0.0
    assert rep.certificate is None


def test_falsifier_refutes_unconfirmed_candidates(monkeypatch):
    # At a point of the distinguished boundary ||p(T)|| = |p(x)| <= sup |p|,
    # but a one-sample sup can fall short of it: such first-pass
    # candidates are certified, and the tenfold resample refutes them.
    x3 = complex(np.exp(1j * 0.3))
    x2 = complex(0.9 * np.exp(1j * 1.1))
    x1 = complex(np.conj(x2) * x3)
    t = Triple(t1=[[x1]], t2=[[x2]], t3=[[x3]])
    config = ToolConfig(sup_samples=1)
    certs = []

    def spy(*args, **kwargs):
        certs.append(violation_certificate(*args, **kwargs))
        return certs[-1]

    monkeypatch.setattr(contractions, "violation_certificate", spy)
    rep = falsify_spectral_set(t, trials=20, degree=2, seed=4, config=config)
    monkeypatch.undo()
    # Exactly the four trials that pass the one-sample screen are
    # resampled, and the resample refutes each of them.
    screened = []
    for child in np.random.SeedSequence(4).spawn(20):
        poly_seed, sup_seed = child.spawn(2)
        p = random_poly(2, seed=poly_seed)
        cert = violation_certificate(t, p, config=config, seed=sup_seed)
        if cert.lhs > cert.sup_first + cert.margin:
            screened.append(cert)
    assert len(screened) == 4
    assert [c for c in certs if c.sup_refined > c.sup_first] == screened
    assert not any(c.violates for c in certs)
    want = per_trial_falsify(t, trials=20, degree=2, seed=4, config=config)
    assert (rep.outcome, rep.trials_run, rep.worst_ratio, rep.certificate) == want


def test_falsifier_with_no_trials_finds_nothing():
    rep = falsify_spectral_set(build_witness(3).triple, trials=0, seed=1)
    assert (rep.outcome, rep.trials_run, rep.worst_ratio) == ("NoViolationFound", 0, 0.0)
    assert rep.certificate is None


def test_falsifier_rejects_negative_trials():
    with pytest.raises(ValueError):
        falsify_spectral_set(build_witness(3).triple, trials=-3, seed=1)


def test_falsifier_reproducible():
    w = build_witness(3)
    a = falsify_spectral_set(w.triple, trials=25, degree=2, seed=5)
    b = falsify_spectral_set(w.triple, trials=25, degree=2, seed=5)
    assert a == b


@pytest.mark.parametrize("seed", [3, 11])
def test_pipeline_document_unchanged_by_shared_basis(monkeypatch, seed):
    # The falsifier's shared monomial basis must give the same verdict
    # document, byte for byte, as per-call power tables.
    fast = json.dumps(pipeline_report_to_json(run_pipeline(4, trials=5, seed=seed)))
    monkeypatch.setattr(contractions, "eval_operator", power_table_eval_operator)
    slow = json.dumps(pipeline_report_to_json(run_pipeline(4, trials=5, seed=seed)))
    assert fast == slow


@pytest.mark.parametrize("depth", [4, 16])
@pytest.mark.parametrize("seed", [3, 11])
def test_pipeline_document_unchanged_by_block_form(monkeypatch, depth, seed):
    # The witness states its parts, so it never looks for blocks.  Its
    # triple built from the dense matrices, with one block, forces every
    # stage onto its dense path.  The dense stages' numbers are exact on
    # the witness, so they agree byte for byte; the falsifier's ratio
    # comes from one SVD of the whole of p(T) instead of one per block,
    # and agrees to rounding.
    calls = []

    def one_block(mats):
        calls.append(1)
        return [np.arange(len(mats[0]))]

    monkeypatch.setattr(contractions, "diagonal_blocks", one_block)
    block = pipeline_report_to_json(run_pipeline(depth, trials=5, seed=seed))
    assert calls == []
    use_dense_witness(monkeypatch)
    dense = pipeline_report_to_json(run_pipeline(depth, trials=5, seed=seed))
    assert calls == [1]
    ratio_block = block["falsify"].pop("worst_ratio")
    ratio_dense = dense["falsify"].pop("worst_ratio")
    assert json.dumps(block, sort_keys=True) == json.dumps(dense, sort_keys=True)
    assert abs(ratio_block - ratio_dense) <= 1e-15 * ratio_dense


def part_pairs(t):
    # Each distinct block's fundamental pair with its number of copies.
    return [
        (extract_fundamental(part), len(where))
        for part, where in t.parts
    ]


@pytest.mark.parametrize("depth", [3, 4, 16])
def test_block_stages_equal_dense_on_witness(depth):
    # Solved block by block, the witness's pair has the dense rank,
    # residuals and norms, and its hypotheses are the dense ones.
    w = build_witness(depth)
    pairs = part_pairs(w.triple)
    dense = extract_fundamental(w.triple)
    assert [p.rank for p, _ in pairs] == [1, 1, 2]
    assert sum(count * p.rank for p, count in pairs) == dense.rank
    assert max(p.residual_1 for p, _ in pairs) == dense.residual_1
    assert max(p.residual_2 for p, _ in pairs) == dense.residual_2
    for field in ("a1", "a2"):
        got = max(op_norm(getattr(p, field)) for p, _ in pairs)
        assert got == op_norm(getattr(dense, field))
    for boundary in ([], w.boundary):
        rep = check_obstruction_hypotheses(w.triple, w.split, boundary=boundary)
        assert hypothesis_defects(rep) == dense_hypotheses(w.triple, w.split, boundary)
    assert block_commutation_defect(w.triple) == 0.0
    assert commutation_defect(w.triple) == 0.0


def direct_sum(*triples):
    # Block-diagonal triple from (t1, t2, t3) tuples of square matrices.
    sizes = [len(t[0]) for t in triples]
    n = sum(sizes)
    mats = [np.zeros((n, n), dtype=np.complex128) for _ in range(3)]
    start = 0
    for t, size in zip(triples, sizes):
        for m, block in zip(mats, t):
            m[start : start + size, start : start + size] = block
        start += size
    return Triple(t1=mats[0], t2=mats[1], t3=mats[2])


def test_block_fundamental_on_a_sum_of_hardy_models():
    # Generic blocks: the block pairs carry the dense pair's rank,
    # defect values, singular values and commutator invariants.
    a = build_hardy_model(*random_symbol_pair(2, seed=3), 3).as_triple()
    b = build_hardy_model(*random_symbol_pair(2, seed=4), 3).as_triple()
    t = direct_sum((a.t1, a.t2, a.t3), (b.t1, b.t2, b.t3), (a.t1, a.t2, a.t3))
    pairs = part_pairs(t)
    assert [count for _, count in pairs] == [2, 1]
    dense = extract_fundamental(t)
    assert sum(count * p.rank for p, count in pairs) == dense.rank == 6
    values = np.sort(
        np.concatenate([np.tile(p.defect_values, count) for p, count in pairs])
    )
    assert np.max(np.abs(values - dense.defect_values)) <= 1e-12
    assert max(max(p.residual_1, p.residual_2) for p, _ in pairs) <= 1e-10
    for field in ("a1", "a2"):
        got = np.sort(
            np.concatenate(
                [
                    np.tile(np.linalg.svd(getattr(p, field), compute_uv=False), count)
                    for p, count in pairs
                ]
            )
        )
        want = np.sort(np.linalg.svd(getattr(dense, field), compute_uv=False))
        assert np.max(np.abs(got - want)) <= 1e-10
    reports = [dilation_obstruction(p.a1, p.a2) for p, _ in pairs]
    whole = dilation_obstruction(dense.a1, dense.a2)
    assert max(r.c1 for r in reports) == pytest.approx(whole.c1, abs=1e-10)
    assert max(r.c2 for r in reports) == pytest.approx(whole.c2, abs=1e-10)


def test_block_fundamental_with_a_unitary_block():
    # A block whose T3 is unitary has no defect, so its pair is empty;
    # the blocks still add up to the dense pair, and a block the
    # equations cannot be solved on fails as the dense does.
    t = direct_sum(([[0.0]], [[0.0]], [[1.0]]), ([[0.1]], [[0.0]], [[0.5]]))
    pairs = part_pairs(t)
    dense = extract_fundamental(t)
    assert [p.rank for p, _ in pairs] == [0, 1]
    assert pairs[0][0].a1.shape == (0, 0)
    assert sum(count * p.rank for p, count in pairs) == dense.rank == 1
    assert np.array_equal(pairs[1][0].a1, dense.a1)
    assert np.array_equal(pairs[1][0].a2, dense.a2)
    jordan = np.array([[0.0, 0.0], [1.0, 0.0]])
    bad = (np.diag([1.0, 0.0]), np.zeros((2, 2)), jordan)
    t = direct_sum(([[0.1]], [[0.0]], [[0.5]]), bad)
    with pytest.raises(InconsistentEquationError):
        extract_fundamental(t)
    with pytest.raises(InconsistentEquationError):
        part_pairs(t)


def block_commutation_defect(t):
    return max(commutation_defect(part) for part, _ in t.parts)


def test_block_commutation_defect_is_largest_over_blocks():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    pair = (a, a.T, np.eye(2))
    scaled = (2.0 * a, a.T, np.eye(2))
    t = direct_sum(pair, scaled, pair)
    assert block_commutation_defect(t) == pytest.approx(
        commutation_defect(t), abs=1e-12
    )
    assert block_commutation_defect(t) == pytest.approx(2.0, abs=1e-12)


def test_falsifier_reports_the_largest_block_commutation_defect(rng):
    # Two dense, non-commuting 3x3 blocks, the second with the larger
    # defect: the reported defect is the largest over the parts, and
    # within rounding of the dense one.
    blocks = [
        tuple(scale * random_complex(rng, (3, 3)) / 3.0 for _ in range(3))
        for scale in (1.0, 2.0)
    ]
    t = direct_sum(*blocks)
    assert [commutation_defect(part) > 0.0 for part, _ in t.parts] == [True, True]
    assert commutation_defect(t.parts[1][0]) > commutation_defect(t.parts[0][0])
    rep = falsify_spectral_set(t, trials=3, degree=2, seed=1)
    assert rep.commutation_defect == block_commutation_defect(t) > 0.0
    dense = commutation_defect(t)
    assert abs(rep.commutation_defect - dense) <= 1e-15 * dense


def test_triple_keeps_its_block_form_and_monomials(monkeypatch):
    # Triple.parts and each part's basis are computed once: a second
    # falsifier call on the same triple finds every monomial it needs
    # already multiplied out.  The witness itself is given its parts
    # and never looks for blocks; its dense-built copy finds them once.
    calls = []
    blocks = contractions.diagonal_blocks
    monkeypatch.setattr(
        contractions, "diagonal_blocks", lambda mats: calls.append(1) or blocks(mats)
    )
    w = build_witness(4)
    falsify_spectral_set(w.triple, trials=6, degree=3, seed=2)
    assert calls == []
    t = dense_built(w.triple)
    parts = t.parts
    assert t.parts is parts and t.basis is t.basis and len(calls) == 1
    first = falsify_spectral_set(t, trials=6, degree=3, seed=2)
    assert t.parts is parts and len(calls) == 1
    memo = [dict(part.basis.monomials) for part, _ in parts]
    assert all(memo)
    products = []
    drop_zero = poly3._drop_zero
    monkeypatch.setattr(
        poly3, "_drop_zero", lambda m: products.append(1) or drop_zero(m)
    )
    assert falsify_spectral_set(t, trials=6, degree=3, seed=2) == first
    assert products == []
    for (part, _), before in zip(parts, memo):
        assert part.basis.monomials.keys() == before.keys()
        assert all(part.basis.monomials[e] is m for e, m in before.items())

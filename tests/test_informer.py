import dataclasses
import struct

import numpy as np
import pytest

from unitselect.bounds import (
    DEFAULT_BENEFIT_VECTOR,
    BenefitVector,
    ExperimentalDistribution,
    ObservationalJoint,
    benefit_bounds,
    exact_benefit,
)
from unitselect.informer import (
    INFORMER_HEADER,
    InformerTable,
    completion_weights,
    exact_experimental,
    exact_observational,
    informer_table,
    read_informer_csv,
    response_profile,
    true_benefit_profile,
    write_informer_csv,
)
from unitselect.model import (
    CellKey,
    CellSpaceTooLarge,
    ConfigError,
    FullProfile,
    cell_bits,
    random_config,
)

V = DEFAULT_BENEFIT_VECTOR


def _zero_my_config(appendix):
    """A 1+0 characteristic model whose weight columns are zero, keeping the
    reference noise parameters."""
    return dataclasses.replace(
        appendix,
        n_observed=1,
        n_unobserved=0,
        weights_x=(0.0,),
        weights_y=(0.0,),
        bern_z=(0.5,),
    )


def test_exact_experimental_zero_my(appendix):
    cfg = _zero_my_config(appendix)
    e = exact_experimental(FullProfile((0,)), cfg)
    # forced treatment: both noise branches land inside the open windows;
    # without treatment s is 0 or exactly 1, both excluded
    assert e.p_y_do_x == 1.0
    assert e.p_y_do_xp == 0.0


def test_exact_experimental_degenerate_uy(appendix):
    cfg = dataclasses.replace(_zero_my_config(appendix), bern_uy=0.0)
    e = exact_experimental(FullProfile((0,)), cfg)
    assert (e.p_y_do_x, e.p_y_do_xp) == (1.0, 0.0)


def test_exact_observational_degenerate_noise(appendix):
    cfg = dataclasses.replace(_zero_my_config(appendix), bern_ux=0.0, bern_uy=0.0)
    o = exact_observational(FullProfile((0,)), cfg)
    # m_x + u_x = 0 <= 0.5 so x = 0; s = 0 so y = 0
    assert o.p_xpyp == 1.0
    assert o.p_xy == o.p_xyp == o.p_xpy == 0.0


def test_exact_observational_sums_to_one(appendix):
    for pid in (0, 1, 77, 4095):
        bits = tuple((pid >> i) & 1 for i in range(20))
        o = exact_observational(FullProfile(bits), appendix)
        total = o.p_xy + o.p_xyp + o.p_xpy + o.p_xpyp
        assert total == pytest.approx(1.0, abs=1e-12)


def test_observational_marginal_matches_four_term_sum(desk8):
    # independent evaluation: P(y|z) as the noise-weighted sum of outcomes
    from unitselect.model import eval_x, eval_y, m_value

    rng = np.random.Generator(np.random.Philox(key=99))
    for _ in range(10):
        bits = tuple(int(b) for b in rng.integers(0, 2, desk8.n_total))
        profile = FullProfile(bits)
        o = exact_observational(profile, desk8)
        m_x = m_value(profile, desk8.weights_x)
        m_y = m_value(profile, desk8.weights_y)
        total = 0.0
        for u_x, w_x in ((0, 1 - desk8.bern_ux), (1, desk8.bern_ux)):
            for u_y, w_y in ((0, 1 - desk8.bern_uy), (1, desk8.bern_uy)):
                x = eval_x(m_x, u_x)
                total += w_x * w_y * eval_y(x, m_y, u_y, desk8.constant_c)
        assert o.p_y == pytest.approx(total, abs=1e-12)


def test_response_profile_reference_value(appendix):
    # m_y = -0.5 splits the noise branches: u_y=0 gives (0,1) comply,
    # u_y=1 gives (1,1) always-take, so p_always equals bern_uy exactly
    cfg = dataclasses.replace(_zero_my_config(appendix), weights_y=(-0.5,))
    profile = FullProfile((1,))
    r = response_profile(profile, cfg)
    assert r.p_complier == pytest.approx(1.0 - 0.9226108109253, abs=1e-12)
    assert r.p_always == pytest.approx(0.9226108109253, abs=1e-12)
    assert r.p_never == 0.0
    assert r.p_defier == 0.0
    assert r.p_complier + r.p_always + r.p_never + r.p_defier == pytest.approx(1.0)
    # with payoffs (1, -1, -1, -2): f = p_complier - p_always
    f = true_benefit_profile(profile, cfg, V)
    assert f == pytest.approx(1.0 - 2 * 0.9226108109253, abs=1e-12)


def test_true_benefit_matches_composition(desk8):
    rng = np.random.Generator(np.random.Philox(key=5))
    worst = 0.0
    for _ in range(1000):
        bits = tuple(int(b) for b in rng.integers(0, 2, desk8.n_total))
        profile = FullProfile(bits)
        a = true_benefit_profile(profile, desk8, V)
        b = exact_benefit(V, response_profile(profile, desk8))
        worst = max(worst, abs(a - b))
    assert worst < 1e-12


def test_completion_weights(appendix):
    w = completion_weights(appendix)
    assert len(w) == 32
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    expected = 1.0
    for p in appendix.bern_z[15:]:
        expected *= 1.0 - p
    assert w[0] == pytest.approx(expected, abs=1e-15)
    assert w[0] == pytest.approx(0.005405, abs=5e-7)
    # completion index: first unobserved characteristic is the LSB
    p16 = appendix.bern_z[15]
    assert w[1] == pytest.approx(expected * p16 / (1.0 - p16), abs=1e-12)


def test_completion_weights_no_latents(desk8):
    cfg = dataclasses.replace(
        desk8,
        n_observed=desk8.n_total,
        n_unobserved=0,
    )
    w = completion_weights(cfg)
    assert w.tolist() == [1.0]


def test_cell_truth_degenerate_mixture(desk8):
    """Without latents every cell is one profile: the vectorized table equals
    the scalar functions exactly, in every cell and column."""
    cfg = dataclasses.replace(desk8, n_observed=desk8.n_total, n_unobserved=0)
    for v in (V, BenefitVector(2.0, -1.0, 0.0, -2.0)):
        table = informer_table(cfg, v)
        assert len(table) == 2048
        for i, bits in enumerate(cell_bits(table.cell_id, table.n_observed).tolist()):
            profile = FullProfile(bits)
            assert ExperimentalDistribution(*table.exp[i]) == exact_experimental(profile, cfg)
            assert ObservationalJoint(*table.obs[i]) == exact_observational(profile, cfg)
            assert table.true_f[i] == true_benefit_profile(profile, cfg, v)


def test_cell_truth_mixture_linearity(desk8):
    v = V
    table = informer_table(desk8, v)
    w = completion_weights(desk8)
    for cid in (0, 100, 255):
        cell = CellKey.from_id(cid, 8)
        mixed = 0.0
        for j in range(len(w)):
            latent = tuple((j >> i) & 1 for i in range(desk8.n_unobserved))
            mixed += w[j] * true_benefit_profile(FullProfile(cell.bits + latent), desk8, v)
        assert abs(mixed - table.true_f[cell.id]) < 1e-12


def test_cell_truth_mixes_distributions_not_bounds(desk4):
    """The cell interval comes from mixed distributions; mixing the
    per-completion intervals instead generally gives a different (unsound)
    answer, so the two must be allowed to differ."""
    from unitselect.bounds import benefit_bounds

    diffs = []
    table = informer_table(desk4, V)
    w = completion_weights(desk4)
    for cid in range(16):
        cell = CellKey.from_id(cid, 4)
        mixed_lower = 0.0
        for j in range(len(w)):
            latent = tuple((j >> i) & 1 for i in range(desk4.n_unobserved))
            profile = FullProfile(cell.bits + latent)
            b = benefit_bounds(
                V,
                exact_experimental(profile, desk4),
                exact_observational(profile, desk4),
            )
            mixed_lower += w[j] * b.lower
        diffs.append(abs(mixed_lower - table.true_lower[cid]))
        # containment holds regardless
        assert table.true_lower[cid] - 1e-9 <= table.true_f[cid] <= table.true_upper[cid] + 1e-9
    assert max(diffs) > 1e-6


@pytest.mark.parametrize(
    "v",
    [
        V,  # sigma > 0
        BenefitVector(-1.0, 1.0, 1.0, 0.0),  # sigma < 0
        BenefitVector(1.0, 0.0, 0.0, -1.0),  # sigma = 0
    ],
)
def test_informer_bounds_match_scalar_bounds(desk8, v):
    table = informer_table(desk8, v)
    for i in range(len(table)):
        exp, obs = ExperimentalDistribution(*table.exp[i]), ObservationalJoint(*table.obs[i])
        b = benefit_bounds(v, exp, obs)
        assert struct.pack("<2d", table.true_lower[i], table.true_upper[i]) == struct.pack(
            "<2d", b.lower, b.upper
        )


def test_informer_table_shape_and_order(desk8):
    table = informer_table(desk8, V)
    assert len(table) == 256
    assert table.cell_id.tolist() == list(range(256))
    again = informer_table(desk8, V)
    assert (again.true_f == table.true_f).all() and (again.true_lower == table.true_lower).all()


def test_informer_table_size_guard():
    cfg = random_config(25, 0, seed=1)
    with pytest.raises(CellSpaceTooLarge):
        informer_table(cfg, V)


def test_profile_length_checks(desk8):
    with pytest.raises(ConfigError):
        exact_experimental(FullProfile((0, 1)), desk8)


def test_informer_csv_roundtrip(tmp_path, desk4):
    table = informer_table(desk4, V)
    path = tmp_path / "informer.csv"
    write_informer_csv(table, path)
    again = read_informer_csv(path)
    assert len(again) == len(table)
    assert again.n_observed == table.n_observed
    assert again.cell_id.tolist() == table.cell_id.tolist()
    assert again.true_f == pytest.approx(table.true_f, abs=1e-10)
    assert again.true_lower == pytest.approx(table.true_lower, abs=1e-10)
    assert again.exp[:, 0] == pytest.approx(table.exp[:, 0], abs=1e-10)
    # rewriting produces identical bytes
    path2 = tmp_path / "informer2.csv"
    write_informer_csv(table, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_informer_csv_rejects_partial_table_without_width(tmp_path, desk4):
    table = informer_table(desk4, V)[:10]
    path = tmp_path / "partial.csv"
    write_informer_csv(table, path)
    with pytest.raises(ValueError):
        read_informer_csv(path)


def test_informer_table_is_columns(desk4):
    table = informer_table(desk4, V)
    assert isinstance(table, InformerTable) and len(table) == 16
    picked = table[2:9:3]
    assert isinstance(picked, InformerTable) and picked.n_observed == 4
    assert picked.cell_id.tolist() == [2, 5, 8]
    assert picked.exp.tolist() == table.exp[[2, 5, 8]].tolist()
    assert table[np.array([1, 7])].cell_id.tolist() == [1, 7]
    with pytest.raises(TypeError):
        table[3]
    assert table.exp.shape == (16, 2) and table.obs.shape == (16, 4)
    with pytest.raises(ValueError):
        table.true_f[0] = 1.0
    assert table == informer_table(desk4, V)
    assert table != informer_table(desk4, BenefitVector(1.0, 0.0, 0.0, -1.0))


def test_informer_table_checks_its_columns(desk4):
    table = informer_table(desk4, V)
    with pytest.raises(ValueError):
        dataclasses.replace(table, exp=table.obs)
    with pytest.raises(ValueError):
        dataclasses.replace(table, true_f=table.true_f[:-1])
    with pytest.raises(ConfigError):
        dataclasses.replace(table, n_observed=3)
    with pytest.raises(ConfigError):
        dataclasses.replace(table, cell_id=table.cell_id - 1)


@pytest.mark.parametrize(
    "row",
    [
        "3,0.5,0.5,0.25,0.25,0.25,0.25,0,0,0,0",  # an extra field
        "3,0.5,0.5,0.25,0.25,0.25",  # a short row
        "3,0.5,0.5,0.25,0.25,0.25,x,0,0,0",  # not a number
        "3,1.5,0.5,0.25,0.25,0.25,0.25,0,0,0",  # p_y_do_x > 1
        "3,0.5,0.5,0.25,0.25,0.25,0.5,0,0,0",  # joint sums to 1.25
        "3,0.5,0.5,0.25,0.25,0.25,0.25,nan,0,0",  # non-finite
        "3,0.5,0.5,0.25,0.25,0.25,0.25,0,inf,0",
        "2,0.5,0.5,0.25,0.25,0.25,0.25,0,0,0",  # id 2 twice
        "3.5,0.5,0.5,0.25,0.25,0.25,0.25,0,0,0",  # not an integer
        "-3,0.5,0.5,0.25,0.25,0.25,0.25,0,0,0",  # negative
        "16,0.5,0.5,0.25,0.25,0.25,0.25,0,0,0",  # beyond 4 bits
    ],
    # The ids keep the suffix of the reader's former width argument: "-4" on
    # the two id-range cases, "-None" on the rest.
    ids=lambda row: f"{row}-{4 if row.startswith(('-3,', '16,')) else None}",
)
def test_read_informer_csv_refuses_bad_rows(tmp_path, desk4, row):
    path = tmp_path / "truth.csv"
    write_informer_csv(informer_table(desk4, V), path)
    lines = path.read_text().splitlines()
    if row.startswith("16,"):
        lines[16] = row  # the last row, so ids stay ascending
    else:
        lines[4] = row
    path.write_text("\r\n".join(lines) + "\r\n")
    with pytest.raises(ValueError):
        read_informer_csv(path)


def test_read_informer_csv_header_only(tmp_path, desk4):
    path = tmp_path / "truth.csv"
    write_informer_csv(informer_table(desk4, V)[:0], path)
    assert path.read_bytes() == (",".join(INFORMER_HEADER) + "\r\n").encode()
    with pytest.raises(ValueError):
        read_informer_csv(path)

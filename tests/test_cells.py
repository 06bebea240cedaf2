import struct

import numpy as np
import pytest

from unitselect import cells
from unitselect.bounds import (
    DEFAULT_BENEFIT_VECTOR,
    BenefitVector,
    benefit_bounds,
    value_range,
)
from unitselect.cells import (
    BELOW_THRESHOLD,
    INCONSISTENT,
    ZERO_ARM,
    CellCounts,
    DroppedCell,
    IneligibleCellError,
    LabeledCell,
    SplitSpec,
    aggregate,
    build_labels,
    estimate,
    read_labels_csv,
    split,
    write_drops_csv,
    write_labels_csv,
)
from unitselect.datagen import generate_array
from unitselect.informer import informer_table
from unitselect.model import CellKey


def _cell(bits):
    return CellKey(tuple(bits))


def _rows(*rows):
    return np.array(rows, dtype=np.uint8)


def _tally_rows(arr, regime):
    """Row-at-a-time reference count of a sample array."""
    n_obs = arr.shape[1] - 2
    out = {}
    for row in arr.tolist():
        counts = out.setdefault(_cell(row[:n_obs]), CellCounts())
        x, y = row[n_obs], row[n_obs + 1]
        if regime == "experimental":
            if x:
                counts.exp_treated += 1
                counts.exp_treated_y1 += y
            else:
                counts.exp_control += 1
                counts.exp_control_y1 += y
        elif x and y:
            counts.obs_xy += 1
        elif x:
            counts.obs_xyp += 1
        elif y:
            counts.obs_xpy += 1
        else:
            counts.obs_xpyp += 1
    return out


def test_aggregate_empty():
    assert aggregate(np.empty((0, 5), dtype=np.uint8), "experimental") == {}
    assert aggregate(np.empty((0, 6), dtype=np.uint8), "observational") == {}


def test_aggregate_three_identical_treated():
    counts = aggregate(_rows(*[(1, 0, 1, 1, 1)] * 3), "experimental")
    assert set(counts) == {_cell((1, 0, 1))}
    c = counts[_cell((1, 0, 1))]
    assert c.exp_treated == 3
    assert c.exp_treated_y1 == 3
    assert c.exp_control == 0
    assert c.n_exp == 3
    assert c.n_obs == 0


def test_aggregate_observational_quadrants():
    rows = _rows(
        (0, 0, 1, 1),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (0, 0, 0, 0),
        (0, 0, 0, 0),
    )
    c = aggregate(rows, "observational")[_cell((0, 0))]
    assert (c.obs_xy, c.obs_xyp, c.obs_xpy, c.obs_xpyp) == (1, 1, 1, 2)
    assert c.n_obs == 5
    assert c.n_exp == 0


def test_aggregate_array_matches_row_tally(desk4):
    arr = generate_array(desk4, "observational", 20_000, seed=31)
    fast = aggregate(arr, "observational")
    assert fast == _tally_rows(arr, "observational")
    # conservation: tallies account for every sample
    assert sum(c.n_obs for c in fast.values()) == 20_000

    arr = generate_array(desk4, "experimental", 20_000, seed=32)
    fast = aggregate(arr, "experimental")
    assert fast == _tally_rows(arr, "experimental")
    assert sum(c.n_exp for c in fast.values()) == 20_000


def test_aggregate_merges_blocks(desk4):
    arr = generate_array(desk4, "experimental", 5000, seed=33)
    whole = aggregate(arr, "experimental")
    merged = aggregate(arr[:2000], "experimental")
    merged = aggregate(arr[2000:], "experimental", into=merged)
    assert merged == whole


def test_aggregate_shards_into_one_map(desk4, monkeypatch):
    built = []

    def counting_key(bits):
        built.append(bits)
        return CellKey(bits)

    monkeypatch.setattr(cells, "CellKey", counting_key)
    exp = generate_array(desk4, "experimental", 12_000, seed=34)
    obs = generate_array(desk4, "observational", 12_000, seed=35)
    whole_exp = aggregate(exp, "experimental")
    whole_obs = aggregate(obs, "observational")
    shards = (0, 1500, 1501, 5000, 9000, 12_000)
    exp_map, obs_map, first_keys = {}, {}, None
    for lo, hi in zip(shards, shards[1:]):
        assert aggregate(exp[lo:hi], "experimental", into=exp_map) is exp_map
        assert aggregate(obs[lo:hi], "observational", into=obs_map) is obs_map
        if first_keys is None:
            first_keys = {key.bits: key for key in exp_map}
    assert exp_map == whole_exp and obs_map == whole_obs
    # one key built per cell and map, not one per cell and shard
    assert len(built) == 2 * len(whole_exp) + 2 * len(whole_obs)
    # later shards count into the key objects already in the map
    assert first_keys
    for key in exp_map:
        if key.bits in first_keys:
            assert key is first_keys[key.bits]
    labels = build_labels(exp_map, obs_map, DEFAULT_BENEFIT_VECTOR, threshold=200)
    assert labels[0]
    assert labels == build_labels(whole_exp, whole_obs, DEFAULT_BENEFIT_VECTOR, threshold=200)


def test_aggregate_into_map_of_another_width(desk4):
    # 3- and 4-bit keys share ids (4-bit cell 5 and 3-bit cell 5) but are
    # different cells; neither width's counts leak into the other's.
    narrow = (np.random.default_rng(3).random((400, 5)) < 0.5).astype(np.uint8)
    wide = generate_array(desk4, "experimental", 3000, seed=36)
    narrow_only = aggregate(narrow, "experimental")
    wide_only = aggregate(wide, "experimental")
    merged = aggregate(wide, "experimental", into=aggregate(narrow, "experimental"))
    assert len(merged) == len(narrow_only) + len(wide_only)
    assert {k: c for k, c in merged.items() if len(k.bits) == 3} == narrow_only
    assert {k: c for k, c in merged.items() if len(k.bits) == 4} == wide_only
    assert {k.id for k in narrow_only} & {k.id for k in wide_only}


def test_aggregate_wide_rows():
    # 22 observed bits: 4M cells, wider than any dense per-cell table needs
    rng = np.random.default_rng(22)
    arr = (rng.random((3000, 24)) < 0.5).astype(np.uint8)
    arr[1000:1500] = arr[0]  # one cell seen many times
    for regime in ("experimental", "observational"):
        whole = aggregate(arr, regime)
        assert whole == _tally_rows(arr, regime)
        merged = aggregate(arr[:1200], regime)
        assert aggregate(arr[1200:], regime, into=merged) is merged
        assert merged == whole
    # the widest countable row: 61 observed bits, the top one set
    row = np.zeros((1, 63), dtype=np.uint8)
    row[0, 60] = 1
    (key,) = aggregate(row, "experimental")
    assert key.id == 1 << 60


def test_aggregate_rejects_bad_input():
    with pytest.raises(ValueError):
        aggregate([], "interventional")
    with pytest.raises(ValueError):
        aggregate(np.zeros((3, 2), dtype=np.uint8), "experimental")
    with pytest.raises(ValueError):
        aggregate([[0, 1, 1]], "experimental")  # not an array
    with pytest.raises(ValueError):
        # 62 observed bits: id * 4 + x * 2 + y would overflow an int64
        aggregate(np.zeros((1, 64), dtype=np.uint8), "experimental")


@pytest.mark.parametrize(
    "rows, regime",
    [
        (np.array([[0, 2, 0]], dtype=np.uint8), "experimental"),  # x = 2
        (np.array([[0, 1, 3]], dtype=np.uint8), "observational"),  # y = 3
        (np.array([[1.7, 1.0, 0.0]]), "experimental"),  # fractional bit
        (np.array([[0, -1, 1]], dtype=np.int8), "experimental"),
    ],
)
def test_aggregate_rejects_non_binary(rows, regime):
    with pytest.raises(ValueError):
        aggregate(rows, regime)


def test_estimate_ratios():
    counts = CellCounts(
        exp_treated=650,
        exp_treated_y1=325,
        exp_control=650,
        exp_control_y1=65,
        obs_xy=10,
        obs_xyp=10,
        obs_xpy=10,
        obs_xpyp=10,
    )
    e, o = estimate(counts)
    assert e.p_y_do_x == 0.5
    assert e.p_y_do_xp == 0.1
    assert (o.p_xy, o.p_xyp, o.p_xpy, o.p_xpyp) == (0.25, 0.25, 0.25, 0.25)


def test_estimate_requires_both_arms_and_obs():
    with pytest.raises(IneligibleCellError):
        estimate(CellCounts(exp_treated=5, obs_xy=5))  # no controls
    with pytest.raises(IneligibleCellError):
        estimate(CellCounts(exp_control=5, obs_xy=5))  # no treated
    with pytest.raises(IneligibleCellError):
        estimate(CellCounts(exp_treated=5, exp_control=5))  # no observational


def _counts(n_treated, n_t_y1, n_control, n_c_y1, obs):
    return CellCounts(
        exp_treated=n_treated,
        exp_treated_y1=n_t_y1,
        exp_control=n_control,
        exp_control_y1=n_c_y1,
        obs_xy=obs[0],
        obs_xyp=obs[1],
        obs_xpy=obs[2],
        obs_xpyp=obs[3],
    )


def test_build_labels_threshold_boundary():
    v = DEFAULT_BENEFIT_VECTOR
    ok = _counts(650, 325, 650, 65, (325, 325, 325, 325))
    thin = _counts(650, 325, 649, 65, (325, 325, 325, 325))  # n_exp = 1299
    exp_map = {_cell((0,)): ok, _cell((1,)): thin}
    obs_map = {_cell((0,)): ok, _cell((1,)): ok}
    labels, drops = build_labels(exp_map, obs_map, v, threshold=1300)
    assert [lab.cell.id for lab in labels] == [0]
    assert drops == [DroppedCell(_cell((1,)), BELOW_THRESHOLD, 1299, 1300)]
    # at exactly the threshold the cell qualifies
    labels, drops = build_labels(exp_map, obs_map, v, threshold=1299)
    assert [lab.cell.id for lab in labels] == [0, 1]
    assert drops == []


def test_build_labels_separate_regime_maps():
    # experimental tallies come from one map, observational from the other;
    # counts of the opposite regime inside a map are ignored
    v = DEFAULT_BENEFIT_VECTOR
    exp_map = {_cell((0,)): _counts(40, 20, 40, 4, (0, 0, 0, 0))}
    obs_map = {_cell((0,)): CellCounts(obs_xy=20, obs_xyp=20, obs_xpy=20, obs_xpyp=20)}
    labels, drops = build_labels(exp_map, obs_map, v, threshold=50)
    assert drops == []
    assert len(labels) == 1
    assert labels[0].n_exp == 80
    assert labels[0].n_obs == 80


def test_build_labels_zero_arm_and_inconsistent():
    v = DEFAULT_BENEFIT_VECTOR
    zero_arm = _counts(20, 10, 0, 0, (5, 5, 5, 5))
    # e = (0.9, 0.0) with o = (0, 0.5, 0, 0.5) forces the lower PNS bound
    # (0.9) above the upper one (0.5)
    clash = _counts(10, 9, 10, 0, (0, 5, 0, 5))
    exp_map = {_cell((0,)): zero_arm, _cell((1,)): clash}
    obs_map = {_cell((0,)): zero_arm, _cell((1,)): clash}
    labels, drops = build_labels(exp_map, obs_map, v, threshold=10)
    assert labels == []
    assert drops == [
        DroppedCell(_cell((0,)), ZERO_ARM, 20, 20),
        DroppedCell(_cell((1,)), INCONSISTENT, 20, 10),
    ]


def test_build_labels_missing_from_one_regime():
    v = DEFAULT_BENEFIT_VECTOR
    ok = _counts(40, 20, 40, 4, (10, 10, 10, 10))
    labels, drops = build_labels({_cell((0,)): ok}, {}, v, threshold=10)
    assert labels == []
    assert drops == [DroppedCell(_cell((0,)), BELOW_THRESHOLD, 80, 0)]


def test_build_labels_within_value_range():
    v = BenefitVector(beta=1.0, gamma=-1.0, theta=-1.0, delta=-2.0)
    lo, hi = value_range(v)
    ok = _counts(100, 100, 100, 0, (50, 0, 0, 50))
    labels, _ = build_labels({_cell((0,)): ok}, {_cell((0,)): ok}, v, threshold=10)
    assert len(labels) == 1
    assert lo <= labels[0].lower_label <= labels[0].upper_label <= hi


def _f64(x) -> bytes:
    """A float's bit pattern, so -0.0 and 0.0 compare unequal."""
    return struct.pack("<d", x)


def _scalar_labels(exp_map, obs_map, v, threshold):
    """The per-cell chain estimate -> benefit_bounds -> clamp, cell by cell."""
    lo, hi = value_range(v)
    out = {}
    for key in set(exp_map) | set(obs_map):
        e = exp_map.get(key, CellCounts())
        o = obs_map.get(key, CellCounts())
        merged = CellCounts(
            e.exp_treated, e.exp_treated_y1, e.exp_control, e.exp_control_y1,
            o.obs_xy, o.obs_xyp, o.obs_xpy, o.obs_xpyp,
        )
        if merged.n_exp < threshold or merged.n_obs < threshold:
            out[key] = BELOW_THRESHOLD
            continue
        try:
            b = benefit_bounds(v, *estimate(merged))
        except IneligibleCellError:
            out[key] = ZERO_ARM
            continue
        if not b.consistent:
            out[key] = INCONSISTENT
        else:
            out[key] = (min(max(b.lower, lo), hi), min(max(b.upper, lo), hi))
    return out


@pytest.mark.parametrize(
    "v",
    [
        DEFAULT_BENEFIT_VECTOR,  # sigma > 0
        BenefitVector(-1.0, 1.0, 1.0, 0.0),  # sigma < 0
        BenefitVector(1.0, 0.0, 0.0, -1.0),  # sigma = 0
        BenefitVector(-1.0, -1.0, -0.0, -0.0),  # sigma = 0, -0.0 labels
        BenefitVector(-0.0, -1.0, 0.0, -1.0),  # sigma = 0, +0.0 labels at hi = -0.0
        BenefitVector(0.5, 0.0, 0.25, 0.0),  # value range [0, 0.5] clamps
    ],
)
def test_build_labels_matches_scalar_chain(v):
    rng = np.random.default_rng(5)
    exp_map, obs_map = {}, {}
    for cid in range(512):
        key = CellKey.from_id(cid, 9)
        treated, control = (rng.integers(0, 40, 2) * (rng.random(2) < 0.9)).tolist()
        if rng.random() < 0.95:
            y1 = rng.integers(0, [treated + 1, control + 1]).tolist()
            exp_map[key] = _counts(treated, y1[0], control, y1[1], (0, 0, 0, 0))
        if rng.random() < 0.95:
            obs_map[key] = _counts(0, 0, 0, 0, rng.integers(0, 12, 4).tolist())
    labels, drops = build_labels(exp_map, obs_map, v, threshold=20)
    expect = _scalar_labels(exp_map, obs_map, v, threshold=20)
    assert sorted(c.cell.id for c in labels + drops) == sorted(c.id for c in expect)
    assert {d.reason for d in drops} == {BELOW_THRESHOLD, ZERO_ARM, INCONSISTENT}
    assert len(labels) > 20
    for d in drops:
        assert expect[d.cell] == d.reason
    for lab in labels:
        low, up = expect[lab.cell]
        assert (_f64(lab.lower_label), _f64(lab.upper_label)) == (_f64(low), _f64(up))


def test_build_labels_rejects_impossible_counts():
    v = DEFAULT_BENEFIT_VECTOR
    bad = _counts(10, 11, 10, 0, (5, 5, 5, 5))  # 11 of 10 treated had y = 1
    with pytest.raises(ValueError):
        build_labels({_cell((0,)): bad}, {_cell((0,)): bad}, v, threshold=1)
    with pytest.raises(ValueError):
        estimate(bad)


def test_labels_match_exact_truth_with_exact_proportions(desk4):
    # inject counts that are exact proportions of the true per-cell
    # distributions; labels must then reproduce the closed-form truth
    v = DEFAULT_BENEFIT_VECTOR
    table = informer_table(desk4, v)
    d = 10**12
    exp_map = {}
    obs_map = {}
    for rec in table:
        half = d // 2
        exp_map[rec.cell] = CellCounts(
            exp_treated=half,
            exp_treated_y1=round(rec.exp.p_y_do_x * half),
            exp_control=half,
            exp_control_y1=round(rec.exp.p_y_do_xp * half),
        )
        obs_map[rec.cell] = CellCounts(
            obs_xy=round(rec.obs.p_xy * d),
            obs_xyp=round(rec.obs.p_xyp * d),
            obs_xpy=round(rec.obs.p_xpy * d),
            obs_xpyp=round(rec.obs.p_xpyp * d),
        )
    labels, drops = build_labels(exp_map, obs_map, v, threshold=1)
    assert drops == []
    assert len(labels) == 16
    for lab, rec in zip(labels, table):
        assert lab.cell == rec.cell
        assert abs(lab.lower_label - rec.true_lower) < 1e-9
        assert abs(lab.upper_label - rec.true_upper) < 1e-9


def _fake_labels(n):
    out = []
    for i in range(n):
        bits = tuple((i >> b) & 1 for b in range(9))
        out.append(LabeledCell(CellKey(bits), -0.5, 0.5, 2000, 2000))
    return out


def test_split_sizes():
    train, test = split(_fake_labels(302), SplitSpec(test_fraction=0.2, seed=0))
    assert (len(train), len(test)) == (241, 61)
    train, test = split(_fake_labels(5), SplitSpec(test_fraction=0.2, seed=0))
    assert (len(train), len(test)) == (4, 1)


def test_split_deterministic_disjoint_exhaustive():
    labels = _fake_labels(97)
    spec = SplitSpec(test_fraction=0.25, seed=11)
    train1, test1 = split(labels, spec)
    train2, test2 = split(labels, spec)
    assert train1 == train2 and test1 == test2
    ids_train = {lab.cell.id for lab in train1}
    ids_test = {lab.cell.id for lab in test1}
    assert not ids_train & ids_test
    assert ids_train | ids_test == {lab.cell.id for lab in labels}
    # a different seed shuffles differently
    train3, _ = split(labels, SplitSpec(test_fraction=0.25, seed=12))
    assert train3 != train1


def test_split_validation():
    with pytest.raises(ValueError):
        SplitSpec(test_fraction=0.0)
    with pytest.raises(ValueError):
        SplitSpec(test_fraction=1.0)
    with pytest.raises(ValueError):
        split([], SplitSpec())


def test_labels_csv_roundtrip(tmp_path):
    labels = [
        LabeledCell(_cell((1, 0, 1)), -0.123456789012, 0.75, 2000, 1500),
        LabeledCell(_cell((0, 1, 1)), 0.0, 1.0, 1300, 1300),
    ]
    path = tmp_path / "labels.csv"
    write_labels_csv(labels, path, n_observed=3)
    text = path.read_text()
    assert text.splitlines()[0] == "cell_id,z1,z2,z3,lower_label,upper_label,n_exp,n_obs"
    assert text.splitlines()[1].startswith("5,1,0,1,")
    assert read_labels_csv(path) == labels


def test_labels_csv_roundtrip_keeps_wide_cell_ids(tmp_path):
    # ids at and above 2**53 do not survive a trip through float64
    bits = [(1,) * 60, (0,) * 6 + (1,) * 54, (1,) + (0,) * 52 + (1,) * 7]
    labels = [LabeledCell(_cell(b), -0.5, 0.25, 1300, 1400) for b in bits]
    assert all(lab.cell.id >= 2**53 for lab in labels)
    path = tmp_path / "labels.csv"
    write_labels_csv(labels, path, n_observed=60)
    rows = path.read_text().splitlines()[1:]
    assert [int(r.split(",")[0]) for r in rows] == [lab.cell.id for lab in labels]
    assert read_labels_csv(path) == labels


def test_labels_csv_rejects_corruption(tmp_path):
    path = tmp_path / "labels.csv"
    write_labels_csv([LabeledCell(_cell((1, 0)), 0.0, 0.5, 10, 10)], path, n_observed=2)
    lines = path.read_text().splitlines()
    broken = tmp_path / "broken.csv"
    broken.write_text("\n".join(["bogus,header,line"] + lines[1:]) + "\n")
    with pytest.raises(ValueError):
        read_labels_csv(broken)
    # cell_id contradicting the bit pattern
    tampered = lines[1].replace("1,", "2,", 1)
    broken.write_text("\n".join([lines[0], tampered]) + "\n")
    with pytest.raises(ValueError):
        read_labels_csv(broken)


def test_drops_csv(tmp_path):
    drops = [
        DroppedCell(_cell((0, 0)), BELOW_THRESHOLD, 12, 3),
        DroppedCell(_cell((1, 1)), INCONSISTENT, 5000, 5000),
    ]
    path = tmp_path / "drops.csv"
    write_drops_csv(drops, path)
    assert path.read_text().splitlines() == [
        "cell_id,reason,n_exp,n_obs",
        "0,BELOW_THRESHOLD,12,3",
        "3,INCONSISTENT,5000,5000",
    ]

import csv
import io
import struct
import tracemalloc

import numpy as np
import pytest

from unitselect import model
from unitselect.bounds import (
    DEFAULT_BENEFIT_VECTOR,
    BenefitVector,
    ExperimentalDistribution,
    ObservationalJoint,
    benefit_bounds,
    value_range,
)
from unitselect.cells import (
    BELOW_THRESHOLD,
    INCONSISTENT,
    ZERO_ARM,
    DropTable,
    IneligibleCellError,
    LabelTable,
    SplitSpec,
    aggregate,
    build_labels,
    estimate,
    read_labels_csv,
    split,
    write_drops_csv,
    write_labels_csv,
)
from unitselect.datagen import REGIMES, iter_blocks
from unitselect.informer import informer_table
from unitselect.model import CellKey, CellSpaceTooLarge


def _cell(bits):
    return CellKey(tuple(bits))


def _table(cls, rows, n_observed):
    """The column table of ``rows``: tuples of a cell's bits, then its other
    columns in table order."""
    ids = [_cell(r[0]).id for r in rows]
    cols = ([r[i] for r in rows] for i in range(1, len(cls._columns)))
    return cls(ids, n_observed, *cols)


def _rows(*rows):
    return np.array(rows, dtype=np.uint8)


def _tally_rows(arr):
    """Row-at-a-time reference count of a sample array: each cell id's
    counts of (x'y', x'y, xy', xy), the column order x*2 + y."""
    n_obs = arr.shape[1] - 2
    out = {}
    for row in arr.tolist():
        counts = out.setdefault(_cell(row[:n_obs]).id, [0, 0, 0, 0])
        x, y = row[n_obs], row[n_obs + 1]
        if x and y:
            counts[3] += 1
        elif x:
            counts[2] += 1
        elif y:
            counts[1] += 1
        else:
            counts[0] += 1
    return out


def _as_lists(count_map):
    return {cid: row.tolist() for cid, row in count_map.items()}


def _exp_row(n_treated, n_t_y1, n_control, n_c_y1):
    """An experimental count row: x is the assigned arm."""
    return (n_control - n_c_y1, n_c_y1, n_treated - n_t_y1, n_t_y1)


def _obs_row(xy, xyp, xpy, xpyp):
    return (xpyp, xpy, xyp, xy)


def _count_map(rows, n_observed=1):
    """A map as ``aggregate`` returns it: each id's row is a view of one
    table of ``n_observed`` bits."""
    table = np.zeros((1 << n_observed, 4), dtype=np.int64)
    for cid, row in rows.items():
        table[cid] = row
    return {cid: table[cid] for cid in rows}


def test_aggregate_empty():
    assert aggregate(np.empty((0, 5), dtype=np.uint8), "experimental") == {}
    assert aggregate(np.empty((0, 6), dtype=np.uint8), "observational") == {}


def test_aggregate_three_identical_treated():
    counts = aggregate(_rows(*[(1, 0, 1, 1, 1)] * 3), "experimental")
    # three treated rows with y = 1, all in column x*2 + y = 3
    assert _as_lists(counts) == {_cell((1, 0, 1)).id: [0, 0, 0, 3]}
    assert counts[5].base.shape == (8, 4)


def test_aggregate_observational_quadrants():
    rows = _rows(
        (0, 0, 1, 1),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (0, 0, 0, 0),
        (0, 0, 0, 0),
    )
    counts = aggregate(rows, "observational")
    assert _as_lists(counts) == {0: list(_obs_row(1, 1, 1, 2))}


def test_aggregate_array_matches_row_tally(desk4):
    (arr,) = iter_blocks(desk4, "observational", 20_000, seed=31)
    fast = aggregate(arr, "observational")
    assert _as_lists(fast) == _tally_rows(arr)
    # conservation: tallies account for every sample
    assert sum(row.sum() for row in fast.values()) == 20_000

    (arr,) = iter_blocks(desk4, "experimental", 20_000, seed=32)
    fast = aggregate(arr, "experimental")
    assert _as_lists(fast) == _tally_rows(arr)
    assert sum(row.sum() for row in fast.values()) == 20_000
    # 0/1 values of any numeric dtype count the same
    for dtype in (bool, np.int8, np.float64):
        assert _as_lists(aggregate(arr.astype(dtype), "experimental")) == _as_lists(fast)


def test_aggregate_merges_blocks(desk4):
    (arr,) = iter_blocks(desk4, "experimental", 5000, seed=33)
    whole = aggregate(arr, "experimental")
    merged = aggregate(arr[:2000], "experimental")
    merged = aggregate(arr[2000:], "experimental", into=merged)
    assert _as_lists(merged) == _as_lists(whole)


def test_aggregate_shards_into_one_map():
    # 22 observed bits: 4M cells, a 128 MiB table per regime; each width's
    # tables are freed before the next are made
    v = DEFAULT_BENEFIT_VECTOR
    for n_observed in (1, 4, 16, 22):
        rng = np.random.default_rng(n_observed)
        n = 5000
        arr = rng.integers(0, 2, (n, n_observed + 2), dtype=np.uint8)
        arr[1000:1500, :n_observed] = arr[0, :n_observed]  # one cell seen many times
        cuts = [0, *sorted(rng.choice(np.arange(1, n), 4, replace=False).tolist()), n]
        whole = [aggregate(arr, regime) for regime in REGIMES]
        expect = build_labels(*whole, v, threshold=5)
        del whole
        maps = []
        for regime in REGIMES:
            merged, first = {}, None
            for lo, hi in zip(cuts, cuts[1:]):
                assert aggregate(arr[lo:hi], regime, into=merged) is merged
                first = first or dict(merged)
            assert _as_lists(merged) == _tally_rows(arr)
            # later shards count into the rows already in the map, all views
            # of one table
            assert all(merged[cid] is row for cid, row in first.items())
            assert len({id(row.base) for row in merged.values()}) == 1
            maps.append(merged)
        labels = build_labels(*maps, v, threshold=5)
        assert len(labels[0]) >= 1
        assert labels == expect
        del maps


def test_aggregate_into_map_of_another_width(desk4):
    # 3- and 4-bit cells share ids (4-bit cell 5 and 3-bit cell 5) but are
    # different cells: counting one width into the other's map is refused,
    # and the refused call counts nothing.
    narrow = (np.random.default_rng(3).random((400, 5)) < 0.5).astype(np.uint8)
    (wide,) = iter_blocks(desk4, "experimental", 3000, seed=36)
    narrow_map = aggregate(narrow, "experimental")
    before = _as_lists(narrow_map)
    with pytest.raises(ValueError, match="another width"):
        aggregate(wide, "experimental", into=narrow_map)
    assert _as_lists(narrow_map) == before
    wide_map = aggregate(wide, "experimental")
    with pytest.raises(ValueError, match="different widths"):
        build_labels(wide_map, narrow_map, DEFAULT_BENEFIT_VECTOR, 10)


@pytest.mark.parametrize(
    "by_hand",
    [
        {0: np.zeros(4, dtype=np.int64)},  # a row that owns its data
        {0: [0, 0, 0, 0]},
        {0: np.zeros((16, 4))[0]},  # float counts
        {0: np.zeros((12, 4), dtype=np.int64)[0]},  # not a whole cell space
        {0: np.zeros((16, 8), dtype=np.int64)[0, :4]},  # eight columns
    ],
)
def test_aggregate_refuses_a_map_built_by_hand(by_hand):
    arr = _rows((0, 1, 0, 1, 1, 0))
    with pytest.raises(ValueError, match="views of the table"):
        aggregate(arr, "experimental", into=by_hand)
    with pytest.raises(ValueError, match="views of the table"):
        build_labels(by_hand, {}, DEFAULT_BENEFIT_VECTOR, 1)
    made = aggregate(arr, "experimental")
    assert aggregate(arr, "experimental", into=made)[10].tolist() == [0, 0, 2, 0]


def test_aggregate_wide_rows(monkeypatch):
    # past model.MAX_CELLS cells the table is refused before it is made
    for n_observed in (25, 61, 62):
        with pytest.raises(CellSpaceTooLarge):
            aggregate(np.zeros((1, n_observed + 2), dtype=np.uint8), "experimental")
    monkeypatch.setattr(model, "MAX_CELLS", 1 << 4)
    assert aggregate(_rows((1, 1, 1, 1, 0, 1)), "observational")[15].tolist() == [0, 1, 0, 0]
    with pytest.raises(CellSpaceTooLarge):
        aggregate(np.zeros((1, 7), dtype=np.uint8), "experimental")


def test_aggregate_rejects_bad_input():
    with pytest.raises(ValueError):
        aggregate([], "interventional")
    with pytest.raises(ValueError):
        aggregate(np.zeros((3, 2), dtype=np.uint8), "experimental")
    with pytest.raises(ValueError):
        aggregate([[0, 1, 1]], "experimental")  # not an array
    with pytest.raises(ValueError):
        # 62 observed bits: past the cell-space guard
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


def _codes(arr):
    """Row codes cell_id*4 + x*2 + y of a (n, n_observed+2) 0/1 array."""
    n_obs = arr.shape[1] - 2
    ids = arr[:, :n_obs].astype(np.int64) @ (1 << np.arange(n_obs, dtype=np.int64))
    return ids * 4 + arr[:, n_obs].astype(np.int64) * 2 + arr[:, n_obs + 1]


@pytest.mark.parametrize("regime", REGIMES)
def test_aggregate_counts_codes_as_it_counts_bit_blocks(desk4, regime):
    (arr,) = iter_blocks(desk4, regime, 20_000, seed=37)
    blocks = aggregate(arr, regime)
    codes = aggregate(_codes(arr), regime, n_observed=4)
    assert _as_lists(codes) == _as_lists(blocks) == _tally_rows(arr)
    assert codes[next(iter(codes))].base.shape == (16, 4)
    # the two forms merge into one map, and any integer dtype counts the same
    mixed = aggregate(arr[:7000], regime)
    mixed = aggregate(_codes(arr[7000:]).astype(np.uint16), regime, mixed, n_observed=4)
    assert _as_lists(mixed) == _as_lists(blocks)


@pytest.mark.parametrize(
    "codes, n_observed, problem",
    [
        (np.array([0, 64]), 4, r"\[0, 4 \* 2\*\*4\)"),  # past the last cell
        (np.array([3, -1]), 4, r"\[0, 4 \* 2\*\*4\)"),
        (np.array([0.0, 1.0]), 4, "integer array"),
        (np.array([0, 1]), None, "n_observed >= 1"),
        (np.array([0, 1]), 4.0, "n_observed >= 1"),
        (np.array([0, 1]), 0, "n_observed >= 1"),
    ],
)
def test_aggregate_refuses_bad_codes_and_changes_nothing(desk4, codes, n_observed, problem):
    (arr,) = iter_blocks(desk4, "experimental", 100, seed=1)
    made = aggregate(arr, "experimental")
    before = _as_lists(made)
    with pytest.raises(ValueError, match=problem):
        aggregate(codes, "experimental", into=made, n_observed=n_observed)
    assert _as_lists(made) == before


def test_aggregate_codes_of_another_width(desk4):
    (arr,) = iter_blocks(desk4, "experimental", 100, seed=1)
    made = aggregate(arr, "experimental")
    with pytest.raises(ValueError, match="another width"):
        aggregate(_codes(arr), "experimental", into=made, n_observed=5)
    with pytest.raises(ValueError, match="hold 4 observed bits, not 5"):
        aggregate(arr, "experimental", n_observed=5)
    assert _as_lists(aggregate(arr, "experimental", n_observed=4)) == _as_lists(made)
    with pytest.raises(CellSpaceTooLarge):
        aggregate(_codes(arr), "experimental", n_observed=25)


def test_aggregate_memory_stays_per_chunk():
    # 4M 4-bit rows (24 MB): counted a shard at a time, the temporaries stay
    # near one shard's; whole-array counting needs several times the input.
    arr = np.random.default_rng(4).integers(0, 2, (4_000_000, 6), dtype=np.uint8)
    tracemalloc.start()
    try:
        counts = aggregate(arr, "experimental")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(row.sum() for row in counts.values()) == 4_000_000
    assert peak < 16 * 2**20


def test_estimate_ratios():
    e, o = estimate(_exp_row(650, 325, 650, 65), _obs_row(10, 10, 10, 10))
    assert e.p_y_do_x == 0.5
    assert e.p_y_do_xp == 0.1
    assert (o.p_xy, o.p_xyp, o.p_xpy, o.p_xpyp) == (0.25, 0.25, 0.25, 0.25)


def test_estimate_requires_both_arms_and_obs():
    some_obs = _obs_row(5, 0, 0, 0)
    with pytest.raises(IneligibleCellError):
        estimate(_exp_row(5, 0, 0, 0), some_obs)  # no controls
    with pytest.raises(IneligibleCellError):
        estimate(_exp_row(0, 0, 5, 0), some_obs)  # no treated
    with pytest.raises(IneligibleCellError):
        estimate(_exp_row(5, 0, 5, 0), (0, 0, 0, 0))  # no observational


def _counts(n_treated, n_t_y1, n_control, n_c_y1, obs):
    """A cell's experimental and observational rows."""
    return _exp_row(n_treated, n_t_y1, n_control, n_c_y1), _obs_row(*obs)


def _maps(cells_by_id, n_observed=1):
    """Experimental and observational maps of cells given as ``_counts``."""
    exp = _count_map({cid: c[0] for cid, c in cells_by_id.items()}, n_observed)
    obs = _count_map({cid: c[1] for cid, c in cells_by_id.items()}, n_observed)
    return exp, obs


def test_build_labels_threshold_boundary():
    v = DEFAULT_BENEFIT_VECTOR
    ok = _counts(650, 325, 650, 65, (325, 325, 325, 325))
    thin = _counts(650, 325, 649, 65, (325, 325, 325, 325))  # n_exp = 1299
    exp_map = _count_map({0: ok[0], 1: thin[0]})
    obs_map = _count_map({0: ok[1], 1: ok[1]})
    labels, drops = build_labels(exp_map, obs_map, v, threshold=1300)
    assert labels.cell_id.tolist() == [0]
    assert drops == _table(DropTable, [((1,), BELOW_THRESHOLD, 1299, 1300)], 1)
    # at exactly the threshold the cell qualifies
    labels, drops = build_labels(exp_map, obs_map, v, threshold=1299)
    assert labels.cell_id.tolist() == [0, 1]
    assert len(drops) == 0


def test_build_labels_separate_regime_maps():
    # experimental tallies come from one map, observational from the other;
    # each map's rows are read as its own regime's
    v = DEFAULT_BENEFIT_VECTOR
    exp_map = _count_map({0: _exp_row(40, 20, 40, 4)})
    obs_map = _count_map({0: _obs_row(20, 20, 20, 20)})
    labels, drops = build_labels(exp_map, obs_map, v, threshold=50)
    assert len(drops) == 0
    assert len(labels) == 1
    assert labels.n_exp[0] == 80
    assert labels.n_obs[0] == 80


def test_build_labels_zero_arm_and_inconsistent():
    v = DEFAULT_BENEFIT_VECTOR
    zero_arm = _counts(20, 10, 0, 0, (5, 5, 5, 5))
    # e = (0.9, 0.0) with o = (0, 0.5, 0, 0.5) forces the lower PNS bound
    # (0.9) above the upper one (0.5)
    clash = _counts(10, 9, 10, 0, (0, 5, 0, 5))
    labels, drops = build_labels(*_maps({0: zero_arm, 1: clash}), v, threshold=10)
    assert len(labels) == 0
    assert drops == _table(DropTable, [
        ((0,), ZERO_ARM, 20, 20),
        ((1,), INCONSISTENT, 20, 10),
    ], 1)


def test_build_labels_missing_from_one_regime():
    v = DEFAULT_BENEFIT_VECTOR
    exp_map = _count_map({0: _exp_row(40, 20, 40, 4)})
    labels, drops = build_labels(exp_map, {}, v, threshold=10)
    assert len(labels) == 0
    assert drops == _table(DropTable, [((0,), BELOW_THRESHOLD, 80, 0)], 1)


def test_build_labels_within_value_range():
    v = BenefitVector(beta=1.0, gamma=-1.0, theta=-1.0, delta=-2.0)
    lo, hi = value_range(v)
    ok = _counts(100, 100, 100, 0, (50, 0, 0, 50))
    labels, _ = build_labels(*_maps({0: ok}), v, threshold=10)
    assert len(labels) == 1
    assert lo <= labels.lower_label[0] <= labels.upper_label[0] <= hi


def _f64(x) -> bytes:
    """A float's bit pattern, so -0.0 and 0.0 compare unequal."""
    return struct.pack("<d", x)


def _scalar_labels(exp_map, obs_map, v, threshold):
    """The per-cell chain estimate -> benefit_bounds -> clamp, cell by cell."""
    lo, hi = value_range(v)
    out = {}
    for cid in set(exp_map) | set(obs_map):
        e = exp_map.get(cid, np.zeros(4, dtype=np.int64))
        o = obs_map.get(cid, np.zeros(4, dtype=np.int64))
        if e.sum() < threshold or o.sum() < threshold:
            out[cid] = BELOW_THRESHOLD
            continue
        try:
            b = benefit_bounds(v, *estimate(e, o))
        except IneligibleCellError:
            out[cid] = ZERO_ARM
            continue
        if not b.consistent:
            out[cid] = INCONSISTENT
        else:
            out[cid] = (min(max(b.lower, lo), hi), min(max(b.upper, lo), hi))
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
    exp_rows, obs_rows = {}, {}
    for cid in range(512):
        treated, control = (rng.integers(0, 40, 2) * (rng.random(2) < 0.9)).tolist()
        if rng.random() < 0.95:
            y1 = rng.integers(0, [treated + 1, control + 1]).tolist()
            exp_rows[cid] = _exp_row(treated, y1[0], control, y1[1])
        if rng.random() < 0.95:
            obs_rows[cid] = _obs_row(*rng.integers(0, 12, 4).tolist())
    exp_map, obs_map = _count_map(exp_rows, 9), _count_map(obs_rows, 9)
    labels, drops = build_labels(exp_map, obs_map, v, threshold=20)
    expect = _scalar_labels(exp_map, obs_map, v, threshold=20)
    assert sorted([*labels.cell_id.tolist(), *drops.cell_id.tolist()]) == sorted(expect)
    assert set(drops.reason) == {BELOW_THRESHOLD, ZERO_ARM, INCONSISTENT}
    assert len(labels) > 20
    for cid, reason in zip(drops.cell_id.tolist(), drops.reason):
        assert expect[cid] == reason
    rows = zip(labels.cell_id.tolist(), labels.lower_label.tolist(), labels.upper_label.tolist())
    for cid, lower, upper in rows:
        low, up = expect[cid]
        assert (_f64(lower), _f64(upper)) == (_f64(low), _f64(up))


def test_build_labels_rejects_impossible_counts():
    v = DEFAULT_BENEFIT_VECTOR
    bad = _counts(10, 11, 10, 0, (5, 5, 5, 5))  # 11 of 10 treated had y = 1
    with pytest.raises(ValueError):
        build_labels(*_maps({0: bad}), v, threshold=1)
    with pytest.raises(ValueError):
        estimate(*bad)


def test_labels_match_exact_truth_with_exact_proportions(desk4):
    # inject counts that are exact proportions of the true per-cell
    # distributions; labels must then reproduce the closed-form truth
    v = DEFAULT_BENEFIT_VECTOR
    table = informer_table(desk4, v)
    d = 10**12
    half = d // 2
    cells_by_id = {}
    for i, cid in enumerate(table.cell_id.tolist()):
        exp = ExperimentalDistribution(*table.exp[i])
        obs = ObservationalJoint(*table.obs[i])
        treated_y1 = round(exp.p_y_do_x * half)
        control_y1 = round(exp.p_y_do_xp * half)
        # columns by x*2 + y: (x'y', x'y, xy', xy)
        exp_row = (half - control_y1, control_y1, half - treated_y1, treated_y1)
        obs_row = [round(p * d) for p in (obs.p_xpyp, obs.p_xpy, obs.p_xyp, obs.p_xy)]
        cells_by_id[cid] = (exp_row, obs_row)
    labels, drops = build_labels(*_maps(cells_by_id, 4), v, threshold=1)
    assert len(drops) == 0
    assert len(labels) == 16
    assert (labels.cell_id == table.cell_id).all() and labels.n_observed == table.n_observed
    assert (abs(labels.lower_label - table.true_lower) < 1e-9).all()
    assert (abs(labels.upper_label - table.true_upper) < 1e-9).all()


def _fake_labels(n):
    rows = [(CellKey.from_id(i, 9).bits, -0.5, 0.5, 2000, 2000) for i in range(n)]
    return _table(LabelTable, rows, 9)


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
    ids_train = set(train1.cell_id.tolist())
    ids_test = set(test1.cell_id.tolist())
    assert not ids_train & ids_test
    assert ids_train | ids_test == set(labels.cell_id.tolist())
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
    labels = _table(LabelTable, [
        ((1, 0, 1), -0.123456789012, 0.75, 2000, 1500),
        ((0, 1, 1), 0.0, 1.0, 1300, 1300),
    ], 3)
    path = tmp_path / "labels.csv"
    write_labels_csv(labels, path)
    text = path.read_text()
    assert text.splitlines()[0] == "cell_id,z1,z2,z3,lower_label,upper_label,n_exp,n_obs"
    assert text.splitlines()[1].startswith("5,1,0,1,")
    assert read_labels_csv(path) == labels


def test_labels_csv_roundtrip_keeps_wide_cell_ids(tmp_path):
    # ids at and above 2**53 do not survive a trip through float64
    bits = [(1,) * 60, (0,) * 6 + (1,) * 54, (1,) + (0,) * 52 + (1,) * 7]
    labels = _table(LabelTable, [(b, -0.5, 0.25, 1300, 1400) for b in bits], 60)
    assert (labels.cell_id >= 2**53).all()
    path = tmp_path / "labels.csv"
    write_labels_csv(labels, path)
    rows = path.read_text().splitlines()[1:]
    assert [int(r.split(",")[0]) for r in rows] == labels.cell_id.tolist()
    assert read_labels_csv(path) == labels


def test_labels_csv_rejects_corruption(tmp_path):
    path = tmp_path / "labels.csv"
    write_labels_csv(_table(LabelTable, [((1, 0), 0.0, 0.5, 10, 10)], 2), path)
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
    drops = _table(DropTable, [
        ((0, 0), BELOW_THRESHOLD, 12, 3),
        ((1, 1), INCONSISTENT, 5000, 5000),
    ], 2)
    path = tmp_path / "drops.csv"
    write_drops_csv(drops, path)
    assert path.read_text().splitlines() == [
        "cell_id,reason,n_exp,n_obs",
        "0,BELOW_THRESHOLD,12,3",
        "3,INCONSISTENT,5000,5000",
    ]


def _csv_writer_bytes(header, rows):
    """A CSV as the csv module writes it: the reference format."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("ascii")


def test_label_and_drop_writers_match_csv_writer(tmp_path):
    wide = [(1,) * 60, (0,) * 6 + (1,) * 54, (1,) + (0,) * 52 + (1,) * 7]
    labels = [
        (wide[0], -0.0, 0.1 + 0.2, 1300, 2**40),
        (wide[1], -1 / 3, 123456.789012345678, 1301, 1302),
        (wide[2], 1e-20, 0.0, 2000, 1500),
    ]
    drops = [
        (wide[1], BELOW_THRESHOLD, 12, 0),
        (wide[0], INCONSISTENT, 5000, 2**40),
    ]
    header = ["cell_id", *(f"z{i + 1}" for i in range(60)),
              "lower_label", "upper_label", "n_exp", "n_obs"]
    path = tmp_path / "labels.csv"
    for rows in (labels, []):
        write_labels_csv(_table(LabelTable, rows, 60), path)
        expect = [
            [_cell(bits).id, *bits, format(lower, ".12g"), format(upper, ".12g"), n_exp, n_obs]
            for bits, lower, upper, n_exp, n_obs in rows
        ]
        assert path.read_bytes() == _csv_writer_bytes(header, expect)
        if rows:  # -0.0 keeps its sign, 0.1 + 0.2 rounds to 12 digits
            assert b",-0,0.3,1300,1099511627776\r\n1152921504606846912," in path.read_bytes()
    assert path.read_bytes().endswith(b"n_obs\r\n")
    for rows in (drops, []):
        write_drops_csv(_table(DropTable, rows, 60), path)
        expect = [[_cell(bits).id, *rest] for bits, *rest in rows]
        header = ["cell_id", "reason", "n_exp", "n_obs"]
        assert path.read_bytes() == _csv_writer_bytes(header, expect)


@pytest.mark.parametrize(
    "row, problem",
    [
        ("5,1,0,1,0.5,0.75,10,10", "repeated id"),
        ("3,1,1,0,0.5,0.75,10.5,10", "non-integer count"),
        ("6,0,2,1,0.5,0.75,10,10", "a bit that is not 0/1"),
        ("6,0,1,1,0.5,0.75,10", "a short row"),
        ("7,0,1,1,0.5,0.75,10,10", "an id that does not match its bits"),
        ("6,0,1,1,nan,0.75,10,10", "a non-finite label"),
    ],
)
def test_read_labels_csv_refuses_bad_rows(tmp_path, row, problem):
    path = tmp_path / "labels.csv"
    path.write_text(
        "cell_id,z1,z2,z3,lower_label,upper_label,n_exp,n_obs\r\n5,1,0,1,0.5,0.75,10,10\r\n"
        + row + "\r\n"
    )
    with pytest.raises(ValueError):
        read_labels_csv(path)


def test_labels_csv_keeps_split_order(tmp_path):
    train, test = split(_fake_labels(40), SplitSpec(test_fraction=0.25, seed=3))
    assert list(train.cell_id) != sorted(train.cell_id)
    path = tmp_path / "train.csv"
    write_labels_csv(train, path)
    assert read_labels_csv(path) == train
    assert isinstance(test, LabelTable) and len(test) == 10


def test_build_labels_refuses_mixed_widths():
    ok = _counts(40, 20, 40, 4, (10, 10, 10, 10))
    with pytest.raises(ValueError, match="different widths"):
        build_labels(_count_map({0: ok[0]}, 1), _count_map({0: ok[1]}, 2),
                     DEFAULT_BENEFIT_VECTOR, 10)

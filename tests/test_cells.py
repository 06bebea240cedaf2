import csv
import io
import re
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
from unitselect.model import CellSpaceTooLarge


def _cell_id(bits):
    """The id of a cell's bits, the first the least significant."""
    return sum(int(b) << i for i, b in enumerate(bits))


def _table(cls, rows, n_observed):
    """The column table of ``rows``: tuples of a cell's bits, then its other
    columns in table order."""
    ids = [_cell_id(r[0]) for r in rows]
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
        counts = out.setdefault(_cell_id(row[:n_obs]), [0, 0, 0, 0])
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


def _as_lists(counts):
    """Each seen cell's counts by id: a count table's nonzero rows, or a
    count map's rows."""
    if isinstance(counts, dict):
        return {cid: row.tolist() for cid, row in counts.items()}
    return {cid: counts[cid].tolist() for cid in np.flatnonzero(counts.any(axis=1)).tolist()}


def _exp_row(n_treated, n_t_y1, n_control, n_c_y1):
    """An experimental count row: x is the assigned arm."""
    return (n_control - n_c_y1, n_c_y1, n_treated - n_t_y1, n_t_y1)


def _obs_row(xy, xyp, xpy, xpyp):
    return (xpyp, xpy, xyp, xy)


def _count_table(rows, n_observed=1):
    """A count table of ``n_observed`` bits holding each id's row."""
    table = np.zeros((1 << n_observed, 4), dtype=np.int64)
    for cid, row in rows.items():
        table[cid] = row
    return table


def _count_map(rows, n_observed=1):
    """A map as ``aggregate`` returns it: each id's row is a view of one
    table of ``n_observed`` bits."""
    table = _count_table(rows, n_observed)
    return {cid: table[cid] for cid in rows}


def test_aggregate_empty():
    counts = aggregate(np.empty((0, 5), dtype=np.uint8), "experimental")
    assert _as_lists(counts) == {} and counts.shape == (8, 4) and counts.dtype == np.int64
    counts = aggregate(np.empty((0, 6), dtype=np.uint8), "observational")
    assert _as_lists(counts) == {} and counts.shape == (16, 4)


def test_aggregate_three_identical_treated():
    counts = aggregate(_rows(*[(1, 0, 1, 1, 1)] * 3), "experimental")
    # three treated rows with y = 1, all in column x*2 + y = 3
    assert _as_lists(counts) == {_cell_id((1, 0, 1)): [0, 0, 0, 3]}
    assert counts.shape == (8, 4)


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
    assert fast.sum() == 20_000

    (arr,) = iter_blocks(desk4, "experimental", 20_000, seed=32)
    fast = aggregate(arr, "experimental")
    assert _as_lists(fast) == _tally_rows(arr)
    assert fast.sum() == 20_000
    # 0/1 values of any bool or integer dtype count the same; floats are refused
    for dtype in (bool, np.int8):
        assert _as_lists(aggregate(arr.astype(dtype), "experimental")) == _as_lists(fast)
    with pytest.raises(ValueError, match="bool or integer array of 0/1 values"):
        aggregate(arr.astype(np.float64), "experimental")


def test_aggregate_merges_blocks(desk4):
    (arr,) = iter_blocks(desk4, "experimental", 5000, seed=33)
    whole = aggregate(arr, "experimental")
    merged = aggregate(arr[:2000], "experimental")
    assert aggregate(arr[2000:], "experimental", into=merged) is merged
    assert _as_lists(merged) == _as_lists(whole)
    # shards counted into two tables and added give the one table: a merge
    # of tables loses no counts
    a, b = aggregate(arr[:1000], "experimental"), aggregate(arr[1000:3000], "experimental")
    aggregate(arr[3000:], "experimental", into=a)
    a += b
    assert np.array_equal(a, whole)
    # the count-map form merges too
    merged = aggregate(arr[:2000], "experimental", into={})
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
        tables = []
        for regime in REGIMES:
            table = np.zeros((1 << n_observed, 4), dtype=np.int64)
            for lo, hi in zip(cuts, cuts[1:]):
                assert aggregate(arr[lo:hi], regime, into=table) is table
            assert _as_lists(table) == _tally_rows(arr)
            tables.append(table)
        assert build_labels(*tables, v, threshold=5) == expect
        del tables
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
    # different cells: counting one width into the other's counts is refused,
    # and the refused call counts nothing.
    narrow = (np.random.default_rng(3).random((400, 5)) < 0.5).astype(np.uint8)
    (wide,) = iter_blocks(desk4, "experimental", 3000, seed=36)
    for form in (lambda: None, dict):  # a count table, then a count map
        narrow_counts = aggregate(narrow, "experimental", into=form())
        before = _as_lists(narrow_counts)
        with pytest.raises(ValueError, match="another width"):
            aggregate(wide, "experimental", into=narrow_counts)
        assert _as_lists(narrow_counts) == before
        wide_counts = aggregate(wide, "experimental", into=form())
        with pytest.raises(ValueError, match="different widths"):
            build_labels(wide_counts, narrow_counts, DEFAULT_BENEFIT_VECTOR, 10)


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
    made = aggregate(arr, "experimental", into={})
    assert aggregate(arr, "experimental", into=made)[10].tolist() == [0, 0, 2, 0]


def _read_only(table):
    table.flags.writeable = False
    return table


@pytest.mark.parametrize(
    "bad",
    [
        np.zeros((16, 4)),  # float counts
        np.zeros((16, 8), dtype=np.int64),  # eight columns
        np.zeros((12, 4), dtype=np.int64),  # not a whole cell space
        _read_only(np.zeros((16, 4), dtype=np.int64)),
        [[0, 0, 0, 0]] * 16,  # not an array
    ],
)
def test_aggregate_refuses_a_table_it_cannot_count_into(bad):
    arr = _rows((0, 1, 0, 1, 1, 0))
    before = np.array(bad, copy=True)
    # (a table of another width: test_aggregate_into_map_of_another_width)
    with pytest.raises(ValueError, match="writable .* count table"):
        aggregate(arr, "experimental", into=bad)
    assert np.array_equal(np.asarray(bad), before)
    # nor is a table paired with a map
    table = aggregate(arr, "experimental")
    for pair in ((table, {}), ({}, table)):
        with pytest.raises(ValueError, match="two .* tables, or two count maps"):
            build_labels(*pair, DEFAULT_BENEFIT_VECTOR, 1)


def test_a_map_with_rows_of_two_tables_is_refused(desk8):
    # Two halves of one shard counted into two maps, then merged as dicts:
    # its rows come from two tables, and reading either table alone would
    # miscount, so both entry points refuse it and the refused call
    # changes nothing.
    (exp_rows,) = iter_blocks(desk8, "experimental", 2000, seed=41)
    (obs_rows,) = iter_blocks(desk8, "observational", 2000, seed=42)
    a = aggregate(exp_rows[:1000], "experimental", into={})
    b = aggregate(exp_rows[1000:], "experimental", into={})
    obs = aggregate(obs_rows, "observational", into={})
    assert a.keys() - b.keys() and b.keys() - a.keys()  # else a merge is one map
    key = next(iter(a))
    other_table = np.zeros_like(a[key].base)
    mixed = [
        {**a, **b},
        {**b, **a},
        {**a, key: a[key].copy()},  # a row that owns its data
        {**a, key: other_table[key]},  # a row of another table of this width
    ]
    for counts in mixed:
        before = _as_lists(counts)
        with pytest.raises(ValueError, match="views of the table"):
            aggregate(exp_rows, "experimental", into=counts)
        assert _as_lists(counts) == before
        with pytest.raises(ValueError, match="views of the table"):
            build_labels(counts, obs, DEFAULT_BENEFIT_VECTOR, 1)
        with pytest.raises(ValueError, match="views of the table"):
            build_labels(obs, counts, DEFAULT_BENEFIT_VECTOR, 1)


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
    table = np.zeros((16, 4), dtype=np.int64)
    codes = aggregate(_codes(arr), regime, table)
    assert codes is table
    assert _as_lists(codes) == _as_lists(blocks) == _tally_rows(arr)
    # the two forms merge into one table, and any integer dtype counts the same
    mixed = aggregate(arr[:7000], regime)
    mixed = aggregate(_codes(arr[7000:]).astype(np.uint16), regime, mixed)
    assert _as_lists(mixed) == _as_lists(blocks)


@pytest.mark.parametrize(
    "codes, bits, problem",
    [
        (np.array([0, 64]), 4, r"\[0, 4 \* 2\*\*4\)"),  # past the last cell
        (np.array([3, -1]), 4, r"\[0, 4 \* 2\*\*4\)"),
        (np.array([0.0, 1.0]), 4, "integer array"),
        (np.array([0, 1]), None, "counted into a count table"),  # no table
        (np.array([0, 1]), "map", "counted into a count table"),  # the count-map form
        (np.array([0, 1]), 0, "writable .* count table"),  # a table of no observed bit
    ],
)
def test_aggregate_refuses_bad_codes_and_changes_nothing(desk4, codes, bits, problem):
    # ``bits`` is the width of the table counted into: codes have no width
    # of their own
    (arr,) = iter_blocks(desk4, "experimental", 100, seed=1)
    into = {
        4: aggregate(arr, "experimental"),
        None: None,
        "map": aggregate(arr, "experimental", into={}),
        0: np.zeros((1, 4), dtype=np.int64),
    }[bits]
    before = None if into is None else _as_lists(into)
    with pytest.raises(ValueError, match=problem):
        aggregate(codes, "experimental", into=into)
    assert (None if into is None else _as_lists(into)) == before


def test_aggregate_codes_of_another_width(desk4, monkeypatch):
    # Codes take their width from the table they count into: codes of a
    # wider cell space fall past its last cell and are refused, and a table
    # past the cell-space guard is refused before anything is counted.
    (arr,) = iter_blocks(desk4, "experimental", 100, seed=1)
    made = aggregate(arr, "experimental")
    before = _as_lists(made)
    wide = _codes(np.insert(arr, 4, 1, axis=1))  # a fifth observed bit, set in every row
    with pytest.raises(ValueError, match=r"\[0, 4 \* 2\*\*4\)"):
        aggregate(wide, "experimental", into=made)
    assert _as_lists(made) == before
    monkeypatch.setattr(model, "MAX_CELLS", 1 << 3)
    with pytest.raises(CellSpaceTooLarge):
        aggregate(_codes(arr), "experimental", into=made)
    assert _as_lists(made) == before


def test_a_count_table_of_no_observed_bit_is_refused():
    # A (1, 4) table is a whole cell space, of 0 bits, but no model has
    # one: labels of it would have no bit columns, a file read_labels_csv
    # refuses.  Both entry points refuse it, and the refused call counts
    # nothing.
    zero = np.zeros((1, 4), dtype=np.int64)
    zero[0] = _exp_row(650, 325, 650, 65)
    with pytest.raises(ValueError, match="writable .* count table"):
        aggregate(np.array([0, 3]), "experimental", into=zero)
    with pytest.raises(ValueError, match="writable .* count table"):
        aggregate(_rows((1, 1, 1)), "experimental", into=zero)
    assert zero[0].tolist() == list(_exp_row(650, 325, 650, 65))
    with pytest.raises(ValueError, match="two .* tables, or two count maps"):
        build_labels(zero, zero.copy(), DEFAULT_BENEFIT_VECTOR, 1)
    # nor do two empty count maps, which have no table to take a width from
    with pytest.raises(ValueError, match="no width"):
        build_labels({}, {}, DEFAULT_BENEFIT_VECTOR, 1)
    # the smallest cell space a model has, one bit, is a table
    one = np.zeros((2, 4), dtype=np.int64)
    one[1] = zero[0]
    labels, drops = build_labels(one, one.copy(), DEFAULT_BENEFIT_VECTOR, 1)
    assert labels.n_observed == 1 and labels.cell_id.tolist() == [1] and len(drops) == 0


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
    assert counts.sum() == 4_000_000
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


def _tables(cells_by_id, n_observed=1):
    """Experimental and observational count tables of cells given as
    ``_counts``."""
    exp = _count_table({cid: c[0] for cid, c in cells_by_id.items()}, n_observed)
    obs = _count_table({cid: c[1] for cid, c in cells_by_id.items()}, n_observed)
    return exp, obs


def test_build_labels_threshold_boundary():
    v = DEFAULT_BENEFIT_VECTOR
    ok = _counts(650, 325, 650, 65, (325, 325, 325, 325))
    thin = _counts(650, 325, 649, 65, (325, 325, 325, 325))  # n_exp = 1299
    exp = _count_table({0: ok[0], 1: thin[0]})
    obs = _count_table({0: ok[1], 1: ok[1]})
    labels, drops = build_labels(exp, obs, v, threshold=1300)
    assert labels.cell_id.tolist() == [0]
    assert drops == _table(DropTable, [((1,), BELOW_THRESHOLD, 1299, 1300)], 1)
    # at exactly the threshold the cell qualifies
    labels, drops = build_labels(exp, obs, v, threshold=1299)
    assert labels.cell_id.tolist() == [0, 1]
    assert len(drops) == 0


@pytest.mark.parametrize("threshold", [-5, -1, 1.5, 50.0, True, None, "50"])
def test_build_labels_refuses_a_threshold_that_is_not_a_count(threshold):
    # -5 would label as 0 does: every count is at least 0
    tables = _tables({0: _counts(650, 325, 650, 65, (325, 325, 325, 325))})
    if type(threshold) is int:
        message = f"threshold must be at least 0, got {threshold}"
    else:
        message = f"threshold must be an integer, got {threshold!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_labels(*tables, DEFAULT_BENEFIT_VECTOR, threshold=threshold)
    assert len(build_labels(*tables, DEFAULT_BENEFIT_VECTOR, threshold=0)[0]) == 1


def test_build_labels_separate_regime_maps():
    # experimental tallies come from one table, observational from the other;
    # each table's rows are read as its own regime's
    v = DEFAULT_BENEFIT_VECTOR
    exp = _count_table({0: _exp_row(40, 20, 40, 4)})
    obs = _count_table({0: _obs_row(20, 20, 20, 20)})
    labels, drops = build_labels(exp, obs, v, threshold=50)
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
    labels, drops = build_labels(*_tables({0: zero_arm, 1: clash}), v, threshold=10)
    assert len(labels) == 0
    assert drops == _table(DropTable, [
        ((0,), ZERO_ARM, 20, 20),
        ((1,), INCONSISTENT, 20, 10),
    ], 1)


def test_build_labels_missing_from_one_regime():
    v = DEFAULT_BENEFIT_VECTOR
    exp = _count_table({0: _exp_row(40, 20, 40, 4)})
    labels, drops = build_labels(exp, _count_table({}), v, threshold=10)
    assert len(labels) == 0
    assert drops == _table(DropTable, [((0,), BELOW_THRESHOLD, 80, 0)], 1)


@pytest.mark.parametrize("empty", ["exp", "obs"])
def test_build_labels_with_an_empty_map_allocates_no_table(empty):
    # At 20 bits a count table takes 32 MiB; the missing regime's counts
    # should cost the rows of the cells seen, not a table of zeros.
    seen = _count_map({5: _exp_row(40, 20, 40, 4)}, 20)
    maps = ({}, seen) if empty == "exp" else (seen, {})
    tracemalloc.start()
    try:
        labels, drops = build_labels(*maps, DEFAULT_BENEFIT_VECTOR, threshold=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(labels) == 0 and labels.n_observed == drops.n_observed == 20
    assert list(drops.cell_id) == [5] and list(drops.reason) == [BELOW_THRESHOLD]
    assert peak < 2**20


def test_build_labels_within_value_range():
    v = BenefitVector(beta=1.0, gamma=-1.0, theta=-1.0, delta=-2.0)
    lo, hi = value_range(v)
    ok = _counts(100, 100, 100, 0, (50, 0, 0, 50))
    labels, _ = build_labels(*_tables({0: ok}), v, threshold=10)
    assert len(labels) == 1
    assert lo <= labels.lower_label[0] <= labels.upper_label[0] <= hi


def _f64(x) -> bytes:
    """A float's bit pattern, so -0.0 and 0.0 compare unequal."""
    return struct.pack("<d", x)


def _scalar_labels(exp_counts, obs_counts, v, threshold):
    """The per-cell chain estimate -> benefit_bounds -> clamp, cell by cell,
    for each cell seen: its row is nonzero in either count table."""
    lo, hi = value_range(v)
    out = {}
    for cid in range(len(exp_counts)):
        e, o = exp_counts[cid], obs_counts[cid]
        if not (e.any() or o.any()):
            continue
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
    exp, obs = _count_table(exp_rows, 9), _count_table(obs_rows, 9)
    labels, drops = build_labels(exp, obs, v, threshold=20)
    expect = _scalar_labels(exp, obs, v, threshold=20)
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
        build_labels(*_tables({0: bad}), v, threshold=1)
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
    labels, drops = build_labels(*_tables(cells_by_id, 4), v, threshold=1)
    assert len(drops) == 0
    assert len(labels) == 16
    assert (labels.cell_id == table.cell_id).all() and labels.n_observed == table.n_observed
    assert (abs(labels.lower_label - table.true_lower) < 1e-9).all()
    assert (abs(labels.upper_label - table.true_upper) < 1e-9).all()


def _fake_labels(n):
    rows = [(tuple((i >> j) & 1 for j in range(9)), -0.5, 0.5, 2000, 2000) for i in range(n)]
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


def test_split_test_set_heads_the_seeded_permutation():
    # the test set is the first ceil(0.25 * 97) = 25 rows of the seed's
    # permutation, in its order, and the training set the rest
    labels = _fake_labels(97)
    order = model.random_stream(11).permutation(97)
    train, test = split(labels, SplitSpec(test_fraction=0.25, seed=11))
    assert test.cell_id.tolist() == labels.cell_id[order[:25]].tolist()
    assert train.cell_id.tolist() == labels.cell_id[order[25:]].tolist()


def test_split_validation():
    with pytest.raises(ValueError):
        SplitSpec(test_fraction=0.0)
    with pytest.raises(ValueError):
        SplitSpec(test_fraction=1.0)
    # a string fraction would fail in a comparison with a bare TypeError
    with pytest.raises(ValueError, match="^test_fraction must be a finite number, got '0.2'$"):
        SplitSpec("0.2")
    with pytest.raises(ValueError):
        split([], SplitSpec())
    # the test set may not take every cell
    for n, fraction in ((1, 0.2), (5, 0.9)):
        with pytest.raises(ValueError, match="leaves no training cell"):
            split(_fake_labels(n), SplitSpec(test_fraction=fraction))
    assert [len(part) for part in split(_fake_labels(5), SplitSpec(0.8))] == [1, 4]


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
            [_cell_id(bits), *bits, format(lower, ".12g"), format(upper, ".12g"), n_exp, n_obs]
            for bits, lower, upper, n_exp, n_obs in rows
        ]
        assert path.read_bytes() == _csv_writer_bytes(header, expect)
        if rows:  # -0.0 keeps its sign, 0.1 + 0.2 rounds to 12 digits
            assert b",-0,0.3,1300,1099511627776\r\n1152921504606846912," in path.read_bytes()
    assert path.read_bytes().endswith(b"n_obs\r\n")
    for rows in (drops, []):
        write_drops_csv(_table(DropTable, rows, 60), path)
        expect = [[_cell_id(bits), *rest] for bits, *rest in rows]
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
        build_labels(_count_table({0: ok[0]}, 1), _count_table({0: ok[1]}, 2),
                     DEFAULT_BENEFIT_VECTOR, 10)

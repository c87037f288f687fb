"""The verdict rule of ``benchmarks/compare.py`` on synthetic numbers."""

from compare import judge

PARENT = [100.0, 101.0, 99.0, 102.0, 98.0, 100.5, 99.5, 101.5, 98.5, 100.0]


def verdict(change, better="higher", bound=0.25, parent=PARENT):
    return judge(parent, change, better=better, bound=bound)["verdict"]


def test_gain_needs_nine_wins_and_a_gap_beyond_the_parents_iqr():
    assert verdict([x * 2 for x in PARENT]) == "gain"
    # Ahead in 10/10 pairs, but by less than the parent's own spread.
    row = judge(PARENT, [x + 0.5 for x in PARENT], better="higher", bound=0.25)
    assert row["wins"] == 10 and not row["gap_beyond_iqr"]
    assert row["verdict"] == "no change"
    # A median twice as high, but behind in two of ten pairs.
    mostly = [x * 2 for x in PARENT[:8]] + [x - 1 for x in PARENT[8:]]
    row = judge(PARENT, mostly, better="higher", bound=0.25)
    assert row["wins"] == 8 and row["gap_beyond_iqr"]
    assert row["verdict"] == "no change"


def test_ties_count_for_neither_side():
    change = [x * 2 for x in PARENT[:8]] + PARENT[8:]
    row = judge(PARENT, change, better="higher", bound=0.25)
    assert row["wins"] == 8 and row["verdict"] == "no change"
    nine = [x * 2 for x in PARENT[:9]] + PARENT[9:]
    assert verdict(nine) == "gain"


def test_direction_follows_better():
    halved = [x / 2 for x in PARENT]
    assert verdict(halved, better="lower") == "gain"
    assert verdict(halved, better="higher") == "regression"
    assert verdict([x * 2 for x in PARENT], better="lower") == "regression"


def test_regression_is_measured_against_the_bound():
    assert verdict([x * 0.8 for x in PARENT], bound=0.25) == "no change"
    assert verdict([x * 0.7 for x in PARENT], bound=0.25) == "regression"


def test_a_parent_noisier_than_the_bound_is_unresolved():
    noisy = [100.0, 160.0, 60.0, 150.0, 70.0, 140.0, 55.0, 165.0, 65.0, 145.0]
    assert verdict(noisy, parent=noisy, bound=0.25) == "unresolved"


def test_a_single_pair():
    assert judge([3.0], [4.0], better="higher", bound=0.25)["verdict"] == "gain"

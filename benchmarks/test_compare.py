"""The verdict rule and the exit status of ``benchmarks/compare.py`` on
synthetic numbers."""

import json

import compare
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


SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "requests_per_s", "better": "higher", "bound": 0.25},
        {"name": "token_hit_rate", "better": "higher", "bound": 0.25},
    ],
}


def run_main(monkeypatch, tmp_path, capsys, *, rate=1.0, hits=1.0, failed=0):
    """``main`` over two directories whose runs are made up, not run: side
    B reads ``rate`` times A's throughput, ``hits`` times its hit rate and
    ``failed`` failed operations per run."""
    sides = []
    for name in "ab":
        (tmp_path / name).mkdir(parents=True)
        (tmp_path / name / "BENCHMARK.json").write_text(json.dumps(SPEC))
        sides.append(str(tmp_path / name))

    def run_once(root, workload, seed, seconds):
        b = root.name == "b"
        values = {
            "requests_per_s": (1000.0 + seed) * (rate if b else 1.0),
            "token_hit_rate": 0.5 * (hits if b else 1.0),
        }
        metrics = {key: {"value": value} for key, value in values.items()}
        return {"metrics": metrics, "failed": failed if b else 0, "attempted": 10}

    monkeypatch.setattr(compare, "run_once", run_once)
    status = compare.main([*sides, "--pairs", "4"])
    return status, capsys.readouterr().out


def test_an_unchanged_run_exits_0(monkeypatch, tmp_path, capsys):
    status, out = run_main(monkeypatch, tmp_path, capsys)
    assert status == 0
    assert "no change, equal in 4/4 pairs" in out


def test_moved_simulated_metrics_exit_2_and_print_their_verdict(monkeypatch, tmp_path, capsys):
    status, out = run_main(monkeypatch, tmp_path, capsys, hits=1.5)
    assert status == 2
    assert "gain, equal in 0/4 pairs" in out


def test_a_regression_or_a_failed_operation_exits_1(monkeypatch, tmp_path, capsys):
    assert run_main(monkeypatch, tmp_path / "slow", capsys, rate=0.5)[0] == 1
    assert run_main(monkeypatch, tmp_path / "lost", capsys, hits=0.5)[0] == 1
    assert run_main(monkeypatch, tmp_path / "failed", capsys, failed=1)[0] == 1

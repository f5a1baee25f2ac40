"""tools/bench_record.py: the summary of alternating benchmark pairs."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tools"))

import bench_record  # noqa: E402


def _result(wall, setup=0.25, rss=85.0):
    return {"correct": True, "failed": 0,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "setup_s": {"value": setup, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_record_gives_medians_quartiles_and_the_pairs_won():
    parent = [_result(w) for w in (0.60, 0.62, 0.58, 0.61, 0.59)]
    change = [_result(w) for w in (0.40, 0.70, 0.38, 0.61, 0.41)]
    rec = bench_record.record({"parent": parent, "change": change})
    assert rec["pairs"] == 5
    # a tie counts for neither side
    assert rec["change_faster_wall_s"] == 3
    wall = rec["parent"]["wall_s"]
    assert (wall["q1"], wall["median"], wall["q3"]) == (0.59, 0.60, 0.61)
    assert wall["runs"] == [0.60, 0.62, 0.58, 0.61, 0.59]
    assert rec["change"]["setup_s"]["median"] == 0.25
    assert rec["change"]["peak_rss_mb"]["median"] == 85.0
    assert rec["change"]["correct"] and rec["change"]["failed"] == 0

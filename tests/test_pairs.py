"""The pair-run driver's summary statistics on fixed synthetic samples."""
import ast
import importlib.util
import json
import pathlib

import pytest

PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
spec = importlib.util.spec_from_file_location("pairs", PATH)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)


def test_odd_pairs():
    # diffs 0, -0.5, +0.5, -1, -1: one tie, three pairs lower, one higher;
    # the change's quartiles are 1.5 and 3.5
    got = pairs.summarize([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 1.5, 3.5, 3.0, 4.0])
    assert got == {"parent_median": 3.0, "change_median": 3.0, "parent_q1": 2.0,
                   "parent_q3": 4.0, "parent_iqr": 2.0, "change_iqr": 2.0,
                   "median_diff": -0.5, "change_wins": 3, "parent_wins": 1}


def test_even_pairs():
    # the parent's order statistics 1, 2, 3, 4: medians and quartiles
    # interpolate between the middle ones (the change's 1, 2, 3, 3 give
    # quartiles 1.75 and 3); diffs -1, +1, 0, -1
    got = pairs.summarize([4.0, 1.0, 3.0, 2.0], [3.0, 2.0, 3.0, 1.0])
    assert got == {"parent_median": 2.5, "change_median": 2.5, "parent_q1": 1.75,
                   "parent_q3": 3.25, "parent_iqr": 1.5, "change_iqr": 1.25,
                   "median_diff": -0.5, "change_wins": 2, "parent_wins": 1}


def test_wins_follow_the_better_direction():
    parent, change = [1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 1.5, 3.5, 3.0, 4.0]
    lower, higher = pairs.summarize(parent, change), pairs.summarize(parent, change, "higher")
    assert (higher["change_wins"], higher["parent_wins"]) == (1, 3)
    assert {k: v for k, v in lower.items() if "wins" not in k} == \
        {k: v for k, v in higher.items() if "wins" not in k}


@pytest.mark.parametrize("parent, change", [([1.0, 2.0], [1.0]), ([1.0], [1.0])])
def test_unpaired_or_single_samples_are_refused(parent, change):
    with pytest.raises(ValueError, match="pairs"):
        pairs.summarize(parent, change)


def test_block_keeps_the_file_s_other_keys(tmp_path):
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"src_lines": 7, "pairs": {"seed": 13}}))
    block = {"parent": "a", "change": "b", "seed": 7, "pairs": 10, "workloads": {"w": 1}}
    pairs.write_block(out, block)
    assert json.loads(out.read_text()) == {"src_lines": 7, "pairs": block}


def test_driver_imports_only_the_standard_library():
    imported = set()
    for node in ast.walk(ast.parse(PATH.read_text())):
        if isinstance(node, ast.Import):
            imported |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module.split(".")[0])
    assert imported <= {"__future__", "argparse", "json", "shutil", "statistics",
                        "subprocess", "sys", "tempfile", "pathlib"}

"""The differential search of tools/search_oracle.py as a seeded test."""

import importlib.util
import pathlib

from fmbs import DegenerateSchur

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "search_oracle.py"
_spec = importlib.util.spec_from_file_location("search_oracle", TOOL)
search_oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(search_oracle)

SEED, RUNS = 0, 400

# Largest relative distance of a completed run's final objective from the
# SVD objective of the same picks, per instance kind, over both methods;
# the measured maximum on these runs is beside each bound.
OBJECTIVE_BOUNDS = {
    "none": 1e-12,           # 6.9e-16 (fmbs)
    "duplicate-row": 1e-12,  # 9.8e-16 (fmbs)
    "tiny-rows": 1e-12,      # 1.2e-15 (fmbs)
    "spread-norms": 1e-6,    # 5.2e-8 (greedy-direct); fmbs 5.7e-11
    # both methods factor A^T A, which squares a scaled row's norm, so a
    # row of norm 2.7e8 swamps the other eigenvalues: 0.47 (fmbs, run
    # 284, where greedy-direct raises NotPositiveDefinite), 0.077
    # (greedy-direct, run 49)
    "scaled-row": 1.0,
}


def test_search_finds_no_bare_error_and_bounded_objectives():
    records = search_oracle.search(SEED, RUNS)
    # neither method raises anything but a named FmbsError, and no warning
    assert [r["run"] for r in records if r["outcome"] == search_oracle.BARE] == []
    for r in records:
        for method, err in r["errors"].items():
            assert err <= OBJECTIVE_BOUNDS[r["kind"]], (r["run"], r["kind"], method, err)
    # the tiny-rows kind reaches the K-space overflow, which fmbs names;
    # with a Schur floor relative to q_ii, that is fmbs's only DegenerateSchur
    refusals = [str(a) for a in (r["attempts"]["fmbs"] for r in records) if isinstance(a, DegenerateSchur)]
    assert refusals and all("K-space state overflowed" in msg for msg in refusals)

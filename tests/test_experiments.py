"""Tests for the experiment registry, scales and lightweight runners.

The heavyweight runners (Table II at full scale, sweeps) are exercised by the
benchmark suite; here they run on the smallest configurations just to verify
wiring, output schema and the qualitative invariants they encode.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    EXPERIMENTS,
    QUICK,
    format_figure1,
    format_sweep,
    format_table1,
    format_table2,
    format_table3,
    get_experiment,
    get_scale,
    list_experiments,
    load_datasets,
    make_baselines,
    make_fism,
    make_sasrec,
    make_sccf,
    run_figure1,
    run_table1,
    run_table2,
    run_table3,
)
from repro.experiments.ablations import run_ann_ablation


TEST_SCALE = QUICK.with_overrides(
    embedding_dim=16,
    fism_epochs=2,
    sasrec_epochs=1,
    bprmf_epochs=2,
    merger_epochs=5,
    num_neighbors=10,
    candidate_list_size=30,
    max_eval_users=40,
    datasets=("tiny",),
)


class TestRegistry:
    def test_all_tables_and_figures_present(self):
        expected = {"table1", "table2", "table3", "table4", "table5", "figure1", "figure4", "figure5"}
        assert expected <= set(EXPERIMENTS)

    def test_list_is_sorted(self):
        assert list_experiments() == sorted(list_experiments())

    def test_get_experiment(self):
        spec = get_experiment("table2")
        assert spec.paper_reference == "Table II"
        assert callable(spec.runner)

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            get_experiment("table99")

    def test_every_spec_has_benchmark_module(self):
        for spec in EXPERIMENTS.values():
            assert spec.benchmark_module.startswith("benchmarks/")


class TestScales:
    def test_get_scale_by_name(self):
        assert get_scale("quick").name == "quick"
        assert get_scale("full").name == "full"

    def test_get_scale_passthrough(self):
        assert get_scale(TEST_SCALE) is TEST_SCALE

    def test_unknown_scale(self):
        with pytest.raises(KeyError):
            get_scale("huge")

    def test_with_overrides(self):
        scale = QUICK.with_overrides(embedding_dim=8)
        assert scale.embedding_dim == 8
        assert scale.fism_epochs == QUICK.fism_epochs

    def test_factories(self):
        assert make_fism(TEST_SCALE).embedding_dim_config == 16
        assert make_sasrec(TEST_SCALE).max_length == TEST_SCALE.sasrec_max_length
        baselines = make_baselines(TEST_SCALE)
        assert set(baselines) == {"Pop", "ItemKNN", "UserKNN", "BPR-MF"}
        sccf = make_sccf(make_fism(TEST_SCALE), TEST_SCALE)
        assert sccf.config.num_neighbors == TEST_SCALE.num_neighbors

    def test_load_datasets(self):
        datasets = load_datasets(TEST_SCALE)
        assert set(datasets) == {"tiny"}


class TestRunners:
    def test_table1(self):
        datasets = load_datasets(TEST_SCALE)
        stats = run_table1(TEST_SCALE, datasets=datasets)
        assert len(stats) == 1
        text = format_table1(stats)
        assert "tiny" in text and "#users" in text

    def test_table2_smoke(self):
        datasets = load_datasets(TEST_SCALE)
        rows = run_table2(TEST_SCALE, datasets=datasets, base_models=("FISM",), include_baselines=False)
        models = [row.model for row in rows]
        assert models == ["FISM", "FISMUU", "FISMSCCF"]
        sccf_row = rows[-1]
        assert sccf_row.improvements  # relative improvement over FISM computed
        text = format_table2(rows)
        assert "FISMSCCF" in text

    def test_table3_times_identifying_outside_ingest(self):
        """``observe`` never searches, so every SCCF row's *identifying*
        column comes from the runner's explicit query after each event."""

        datasets = load_datasets(TEST_SCALE)
        rows = run_table3(TEST_SCALE, datasets=datasets, num_events=5)
        assert [row.method for row in rows] == [
            "UserKNN", "SCCF", "SCCF-batch", "SCCF-sharded", "SCCF-cached"
        ]
        assert {row.dataset for row in rows} == {"tiny"}
        userknn, *sccf_rows = rows
        assert userknn.inferring_ms == 0.0 and userknn.identifying_ms > 0.0
        for row in sccf_rows:
            assert row.inferring_ms > 0.0 and row.identifying_ms > 0.0
            assert row.total_ms == row.inferring_ms + row.identifying_ms
        assert "identifying (ms)" in format_table3(rows)

    def test_figure1_headline(self):
        result = run_figure1(num_users=60, num_days=15, seed=2)
        assert 0.0 < result.new_category_fraction < 1.0
        assert "new-category fraction" in format_figure1(result)

    def test_ann_ablation_recall_increases_with_probes(self):
        rows = run_ann_ablation(num_vectors=300, dim=8, k=20, num_queries=10, num_cells=8, n_probe_values=(1, 8))
        recalls = {row.variant: row.metrics["recall"] for row in rows}
        assert recalls["BruteForce"] == 1.0
        assert recalls["IVF(n_probe=8)"] >= recalls["IVF(n_probe=1)"]

    def test_formatters_handle_empty_input(self):
        assert format_table2([]) == "(no results)"
        assert format_sweep([]) == "(no results)"
        assert isinstance(format_table3([]), str)

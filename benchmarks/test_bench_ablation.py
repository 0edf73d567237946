"""Ablation benchmarks for the attack's design choices.

These targets quantify how the breach (root-mean-square estimation error and
rank correlation of the adversary's income estimates) depends on:

* the fusion engine (Mamdani — the paper's choice — vs Sugeno vs the
  unsupervised rank-scaling baseline vs the no-information midpoint guess);
* the base anonymizer plugged into the release (MDAV vs Mondrian vs greedy
  clustering);
* the quality of the web auxiliary channel (noise and coverage);
* the rule source (auto-generated monotone rules vs hand-written domain rules
  vs Wang-Mendel rules induced from a small leaked sample).

Each benchmark records the reproduced metric values in ``extra_info``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.anonymize.clustering import GreedyClusterAnonymizer
from repro.anonymize.mdav import MDAVAnonymizer
from repro.anonymize.mondrian import MondrianAnonymizer
from repro.data.webgen import corpus_for_faculty
from repro.fusion.attack import AttackConfig, WebFusionAttack
from repro.fusion.estimators import MidpointEstimator, RankScalingEstimator
from repro.fusion.rulegen import wang_mendel_rules
from repro.fuzzy.variables import LinguisticVariable
from repro.metrics.privacy import rank_correlation, root_mean_square_error


def _attack_quality(source, config, release, truth):
    estimates = WebFusionAttack(source, config).run(release).estimates
    return (
        float(root_mean_square_error(truth, estimates)),
        float(rank_correlation(truth, estimates)),
    )


@pytest.fixture(scope="module")
def ablation_release(paper_setup):
    private = paper_setup.population.private
    return MDAVAnonymizer().anonymize(private, 5).release


def _config_variant(base: AttackConfig, **overrides) -> AttackConfig:
    fields = {
        "release_inputs": base.release_inputs,
        "auxiliary_inputs": base.auxiliary_inputs,
        "output_name": base.output_name,
        "output_universe": base.output_universe,
        "input_ranges": base.input_ranges,
        "directions": base.directions,
        "engine": base.engine,
    }
    fields.update(overrides)
    return AttackConfig(**fields)


def test_ablation_fusion_engines(benchmark, paper_setup, ablation_release):
    """Mamdani vs Sugeno vs rank-scaling vs midpoint on the same k=5 release."""
    truth = paper_setup.population.private.sensitive_vector()
    base = paper_setup.attack_config
    variants = {
        "mamdani": _config_variant(base, engine="mamdani"),
        "sugeno": _config_variant(base, engine="sugeno"),
        "rank_scaling": _config_variant(
            base,
            engine="custom",
            estimator=RankScalingEstimator(base.all_inputs, base.output_universe),
        ),
        "midpoint": _config_variant(
            base, engine="custom", estimator=MidpointEstimator(base.output_universe)
        ),
    }

    def run_all_engines():
        return {
            name: _attack_quality(paper_setup.corpus, config, ablation_release, truth)
            for name, config in variants.items()
        }

    results = benchmark.pedantic(run_all_engines, rounds=1, iterations=1)
    # Every informed fusion engine beats the no-information midpoint guess.
    midpoint_rmse = results["midpoint"][0]
    for name in ("mamdani", "sugeno", "rank_scaling"):
        assert results[name][0] < midpoint_rmse
        assert results[name][1] > 0.5
    benchmark.extra_info["rmse_and_rank_corr"] = {
        name: (round(rmse), round(corr, 3)) for name, (rmse, corr) in results.items()
    }


def test_ablation_base_anonymizers(benchmark, paper_setup):
    """MDAV vs Mondrian vs greedy clustering as Basic_Anonymization at k=5."""
    private = paper_setup.population.private
    truth = private.sensitive_vector()
    anonymizers = {
        "mdav": MDAVAnonymizer(),
        "mondrian": MondrianAnonymizer(),
        "greedy-cluster": GreedyClusterAnonymizer(),
    }

    def run_all_anonymizers():
        outcome = {}
        for name, anonymizer in anonymizers.items():
            release = anonymizer.anonymize(private, 5).release
            outcome[name] = _attack_quality(
                paper_setup.corpus, paper_setup.attack_config, release, truth
            )
        return outcome

    results = benchmark.pedantic(run_all_anonymizers, rounds=1, iterations=1)
    for rmse, corr in results.values():
        assert rmse > 0
        assert corr > 0.3  # the attack works against every partitioning scheme
    benchmark.extra_info["rmse_and_rank_corr"] = {
        name: (round(rmse), round(corr, 3)) for name, (rmse, corr) in results.items()
    }


def test_ablation_web_channel_quality(benchmark, paper_setup, ablation_release):
    """Sweep the simulated web channel's noise and coverage."""
    population = paper_setup.population
    truth = population.private.sensitive_vector()
    channels = {
        "clean_full": corpus_for_faculty(population, noise_level=0.0, coverage=1.0),
        "default": paper_setup.corpus,
        "noisy": corpus_for_faculty(population, noise_level=0.35, coverage=0.95),
        "sparse": corpus_for_faculty(population, noise_level=0.05, coverage=0.3),
    }

    def run_all_channels():
        return {
            name: _attack_quality(
                channel, paper_setup.attack_config, ablation_release, truth
            )
            for name, channel in channels.items()
        }

    results = benchmark.pedantic(run_all_channels, rounds=1, iterations=1)
    # A rich, clean web channel cannot be worse than a mostly missing one.
    assert results["clean_full"][1] >= results["sparse"][1] - 0.05
    benchmark.extra_info["rmse_and_rank_corr"] = {
        name: (round(rmse), round(corr, 3)) for name, (rmse, corr) in results.items()
    }


def test_ablation_rule_sources(benchmark, paper_setup, ablation_release):
    """Auto monotone rules vs hand-written domain rules vs Wang-Mendel induction."""
    population = paper_setup.population
    private = population.private
    truth = private.sensitive_vector()
    base = paper_setup.attack_config

    hand_written = [
        "IF research_score IS high AND property_holdings IS high THEN salary IS high",
        "IF years_of_service IS high AND employment_seniority IS high THEN salary IS high",
        "IF research_score IS low AND property_holdings IS low THEN salary IS low",
        "IF years_of_service IS low THEN salary IS low",
        "IF research_score IS medium THEN salary IS medium",
        "IF property_holdings IS medium THEN salary IS medium",
    ]

    # Wang-Mendel rules induced from a small leaked labeled sample (10 people
    # whose salary the insider happens to know).
    terms = ("low", "medium", "high")
    inputs = {
        name: LinguisticVariable.with_uniform_terms(name, bounds, terms)
        for name, bounds in base.input_ranges.items()
    }
    output = LinguisticVariable.with_uniform_terms(
        "salary", base.output_universe, terms
    )
    leaked_indices = list(range(0, private.num_rows, max(private.num_rows // 10, 1)))[:10]
    leaked = private.numeric_columns(
        ("research_score", "teaching_score", "service_score", "years_of_service")
    )
    leaked = {name: column[leaked_indices] for name, column in leaked.items()}
    for name in ("property_holdings", "employment_seniority"):
        leaked[name] = np.array(
            [float(population.profiles[index][name]) for index in leaked_indices]
        )
    leaked_targets = private.numeric_columns(("salary",))["salary"][leaked_indices]
    induced = wang_mendel_rules(leaked, leaked_targets, inputs, output)

    variants = {
        "auto_monotone": _config_variant(base),
        "hand_written": _config_variant(base, rule_texts=hand_written),
        "wang_mendel": _config_variant(base, rules=induced),
    }

    def run_all_rule_sources():
        return {
            name: _attack_quality(paper_setup.corpus, config, ablation_release, truth)
            for name, config in variants.items()
        }

    results = benchmark.pedantic(run_all_rule_sources, rounds=1, iterations=1)
    for name, (rmse, corr) in results.items():
        assert np.isfinite(rmse)
        assert corr > 0.3, name
    benchmark.extra_info["rmse_and_rank_corr"] = {
        name: (round(rmse), round(corr, 3)) for name, (rmse, corr) in results.items()
    }

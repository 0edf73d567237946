"""Unit tests for the Web-Based Information-Fusion Attack pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.anonymize.mdav import MDAVAnonymizer
from repro.data.customers import adversary_auxiliary_example, enterprise_customers_example
from repro.exceptions import AttackConfigurationError
from repro.fusion.attack import AttackConfig, WebFusionAttack, build_income_fusion_system
from repro.fusion.estimators import MidpointEstimator
from repro.fusion.web import SimulatedWebCorpus
from repro.fuzzy.inference import MamdaniSystem
from repro.fuzzy.tsk import SugenoSystem
from repro.fuzzy.variables import LinguisticVariable
from repro.metrics.privacy import rank_correlation

from builders import naive_release


@pytest.fixture()
def customer_corpus() -> SimulatedWebCorpus:
    auxiliary = adversary_auxiliary_example()
    profiles = [
        {
            "name": row["name"],
            "position": row["employment"],
            "property_holdings": float(row["property_holdings"]),
        }
        for row in auxiliary.rows()
    ]
    return SimulatedWebCorpus.from_profiles(
        profiles, ("property_holdings",), noise_level=0.0, coverage=1.0,
        name_variant_probability=0.0, seed=1,
    )


@pytest.fixture()
def customer_config() -> AttackConfig:
    return AttackConfig(
        release_inputs=("invst_vol", "invst_amt", "valuation"),
        auxiliary_inputs=("property_holdings",),
        output_name="income",
        output_universe=(40_000.0, 100_000.0),
        output_ranges={
            "low": (40_000.0, 60_000.0),
            "medium": (60_000.0, 80_000.0),
            "high": (80_000.0, 100_000.0),
        },
        input_ranges={
            "invst_vol": (1.0, 10.0),
            "invst_amt": (1.0, 10.0),
            "valuation": (1.0, 10.0),
            "property_holdings": (500.0, 6_000.0),
        },
    )


class TestAttackConfig:
    def test_requires_some_inputs(self):
        with pytest.raises(AttackConfigurationError):
            AttackConfig(
                release_inputs=(), auxiliary_inputs=(), output_name="y",
                output_universe=(0.0, 1.0),
            )

    def test_output_universe_validation(self):
        with pytest.raises(AttackConfigurationError):
            AttackConfig(
                release_inputs=("a",), auxiliary_inputs=(), output_name="y",
                output_universe=(1.0, 1.0),
            )

    @pytest.mark.parametrize(
        "universe", [(0.0, float("inf")), (float("nan"), 100.0), (float("-inf"), 1.0)]
    )
    def test_output_universe_must_be_finite(self, universe):
        with pytest.raises(AttackConfigurationError, match="output_universe"):
            AttackConfig(
                release_inputs=("a",), auxiliary_inputs=(), output_name="y",
                output_universe=universe,
            )

    @pytest.mark.parametrize("bounds", [(1.0, float("inf")), (float("nan"), 10.0)])
    def test_input_and_output_ranges_must_be_finite(self, bounds):
        with pytest.raises(AttackConfigurationError, match=r"input_ranges\['a'\]"):
            AttackConfig(
                release_inputs=("a",), auxiliary_inputs=(), output_name="y",
                output_universe=(0.0, 1.0), input_ranges={"a": bounds},
            )
        with pytest.raises(AttackConfigurationError, match=r"output_ranges\['high'\]"):
            AttackConfig(
                release_inputs=("a",), auxiliary_inputs=(), output_name="y",
                output_universe=(0.0, 10.0), output_ranges={"high": bounds},
            )

    def test_engine_validation(self):
        with pytest.raises(AttackConfigurationError):
            AttackConfig(
                release_inputs=("a",), auxiliary_inputs=(), output_name="y",
                output_universe=(0.0, 1.0), engine="neural",
            )
        with pytest.raises(AttackConfigurationError):
            AttackConfig(
                release_inputs=("a",), auxiliary_inputs=(), output_name="y",
                output_universe=(0.0, 1.0), engine="custom",
            )

    def test_rules_and_rule_texts_mutually_exclusive(self):
        from repro.fuzzy.rules import parse_rule

        with pytest.raises(AttackConfigurationError):
            AttackConfig(
                release_inputs=("a",), auxiliary_inputs=(), output_name="y",
                output_universe=(0.0, 1.0),
                rules=[parse_rule("IF a IS low THEN y IS low")],
                rule_texts=["IF a IS low THEN y IS low"],
            )

    def test_all_inputs_order(self, customer_config):
        assert customer_config.all_inputs == (
            "invst_vol", "invst_amt", "valuation", "property_holdings",
        )


class TestBuildSystem:
    def test_engine_dispatch(self):
        inputs = {"x": LinguisticVariable.with_uniform_terms("x", (0, 1), ("low", "high"))}
        output = LinguisticVariable.with_uniform_terms("y", (0, 1), ("low", "high"))
        from repro.fusion.rulegen import monotone_rules

        rules = monotone_rules(inputs, output)
        assert isinstance(
            build_income_fusion_system(inputs, output, rules, engine="mamdani"), MamdaniSystem
        )
        assert isinstance(
            build_income_fusion_system(inputs, output, rules, engine="sugeno"), SugenoSystem
        )
        with pytest.raises(AttackConfigurationError):
            build_income_fusion_system(inputs, output, rules, engine="bogus")


class TestAttackOnCustomers:
    def test_end_to_end_estimates(self, customer_corpus, customer_config):
        private = enterprise_customers_example()
        release = MDAVAnonymizer().anonymize(private, 2).release
        result = WebFusionAttack(customer_corpus, customer_config).run(release)

        assert result.estimates.shape == (4,)
        assert result.match_rate == 1.0
        assert (result.estimates >= 40_000).all() and (result.estimates <= 100_000).all()

        # The paper's narrative: Robert (highest valuation, largest holdings)
        # must land in the top income band of the estimates.
        names = [str(n) for n in release.identifier_column()]
        by_name = dict(zip(names, result.estimates))
        assert by_name["Robert"] == max(result.estimates)
        truth = [float(row["income"]) for row in private.rows()]
        assert rank_correlation(truth, result.estimates) > 0.5

    def test_auxiliary_table_matches_harvest(self, customer_corpus, customer_config):
        private = enterprise_customers_example()
        release = MDAVAnonymizer().anonymize(private, 2).release
        result = WebFusionAttack(customer_corpus, customer_config).run(release)
        assert result.auxiliary.num_rows == 4
        assert "property_holdings" in result.auxiliary.schema

    def test_missing_release_column_rejected(self, customer_corpus, customer_config):
        private = enterprise_customers_example()
        release = MDAVAnonymizer().anonymize(private, 2).release.drop_columns(["valuation"])
        with pytest.raises(AttackConfigurationError, match="missing configured input"):
            WebFusionAttack(customer_corpus, customer_config).run(release)

    def test_attack_works_on_naive_and_anonymized_releases(self, customer_corpus, customer_config):
        private = enterprise_customers_example()
        anonymized = MDAVAnonymizer().anonymize(private, 2).release
        naive = naive_release(private).release
        attack = WebFusionAttack(customer_corpus, customer_config)
        truth = [float(row["income"]) for row in private.rows()]
        # Whichever release the enterprise publishes, the fused estimates
        # recover the income ordering — dropping the income column alone is
        # not enough to hide who the high earners are.
        for release in (naive, anonymized):
            estimates = attack.run(release).estimates
            assert rank_correlation(truth, estimates) > 0.5
            names = [str(n) for n in release.identifier_column()]
            by_name = dict(zip(names, estimates))
            assert by_name["Robert"] == max(estimates)

    def test_custom_estimator_engine(self, customer_corpus, customer_config):
        config = AttackConfig(
            release_inputs=customer_config.release_inputs,
            auxiliary_inputs=customer_config.auxiliary_inputs,
            output_name="income",
            output_universe=(40_000.0, 100_000.0),
            engine="custom",
            estimator=MidpointEstimator((40_000.0, 100_000.0)),
        )
        private = enterprise_customers_example()
        release = MDAVAnonymizer().anonymize(private, 2).release
        result = WebFusionAttack(customer_corpus, config).run(release)
        assert np.allclose(result.estimates, 70_000.0)

    def test_custom_estimator_gets_column_block(self, customer_config, monkeypatch):
        # Robert has no web page, so the harvest misses one release record.
        auxiliary = adversary_auxiliary_example()
        corpus = SimulatedWebCorpus.from_profiles(
            [
                {"name": row["name"], "property_holdings": float(row["property_holdings"])}
                for row in auxiliary.rows()
                if row["name"] != "Robert"
            ],
            ("property_holdings",), noise_level=0.0, coverage=1.0,
            name_variant_probability=0.0, seed=1,
        )
        release = MDAVAnonymizer().anonymize(enterprise_customers_example(), 2).release
        names = [str(n) for n in release.identifier_column()]

        mamdani_blocks: list = []
        evaluate_batch = MamdaniSystem.evaluate_batch

        def recording_evaluate_batch(system, columns):
            mamdani_blocks.append(columns)
            return evaluate_batch(system, columns)

        monkeypatch.setattr(MamdaniSystem, "evaluate_batch", recording_evaluate_batch)
        WebFusionAttack(corpus, customer_config).run(release)

        custom_blocks: list = []

        class RecordingEstimator:
            def evaluate_batch(self, columns):
                custom_blocks.append(columns)
                return np.full(len(names), 50_000.0)

        config = AttackConfig(
            release_inputs=customer_config.release_inputs,
            auxiliary_inputs=customer_config.auxiliary_inputs,
            output_name="income",
            output_universe=(40_000.0, 100_000.0),
            engine="custom",
            estimator=RecordingEstimator(),
        )
        result = WebFusionAttack(corpus, config).run(release)

        assert len(custom_blocks) == len(mamdani_blocks) == 1
        custom, mamdani = custom_blocks[0], mamdani_blocks[0]
        assert set(custom) == set(mamdani) == set(config.all_inputs)
        for name in config.all_inputs:
            assert custom[name].dtype == np.float64
            assert custom[name].shape == (len(names),)
            np.testing.assert_array_equal(custom[name], mamdani[name])
        holdings = custom["property_holdings"]
        assert np.isnan(holdings[names.index("Robert")])
        assert not np.isnan(np.delete(holdings, names.index("Robert"))).any()
        assert result.matched == [name != "Robert" for name in names]

    @pytest.mark.parametrize(
        "shape", [(3,), (), (4, 2)], ids=["too-short", "scalar", "two-column"]
    )
    def test_custom_estimator_output_must_be_one_per_record(
        self, customer_corpus, customer_config, shape
    ):
        class MisshapenEstimator:
            def evaluate_batch(self, columns):
                return np.full(shape, 50_000.0)

        config = AttackConfig(
            release_inputs=customer_config.release_inputs,
            auxiliary_inputs=customer_config.auxiliary_inputs,
            output_name="income",
            output_universe=(40_000.0, 100_000.0),
            engine="custom",
            estimator=MisshapenEstimator(),
        )
        release = MDAVAnonymizer().anonymize(enterprise_customers_example(), 2).release
        with pytest.raises(AttackConfigurationError, match=r"expected \(4,\)"):
            WebFusionAttack(customer_corpus, config).run(release)

    def test_sugeno_engine(self, customer_corpus, customer_config):
        config = AttackConfig(
            release_inputs=customer_config.release_inputs,
            auxiliary_inputs=customer_config.auxiliary_inputs,
            output_name="income",
            output_universe=(40_000.0, 100_000.0),
            input_ranges=customer_config.input_ranges,
            engine="sugeno",
        )
        private = enterprise_customers_example()
        release = MDAVAnonymizer().anonymize(private, 2).release
        result = WebFusionAttack(customer_corpus, config).run(release)
        truth = [float(row["income"]) for row in private.rows()]
        assert rank_correlation(truth, result.estimates) > 0.5

    def test_explicit_rule_texts(self, customer_corpus, customer_config):
        config = AttackConfig(
            release_inputs=("valuation",),
            auxiliary_inputs=("property_holdings",),
            output_name="income",
            output_universe=(40_000.0, 100_000.0),
            input_ranges={"valuation": (1.0, 10.0), "property_holdings": (500.0, 6_000.0)},
            rule_texts=[
                "IF valuation IS high AND property_holdings IS high THEN income IS high",
                "IF valuation IS low THEN income IS low",
                "IF property_holdings IS low THEN income IS low",
                "IF valuation IS medium THEN income IS medium",
            ],
        )
        private = enterprise_customers_example()
        release = MDAVAnonymizer().anonymize(private, 2).release
        result = WebFusionAttack(customer_corpus, config).run(release)
        names = [str(n) for n in release.identifier_column()]
        by_name = dict(zip(names, result.estimates))
        assert by_name["Robert"] > by_name["Christine"]


class TestAttackOnFaculty:
    def test_missing_web_pages_lower_match_rate(self, faculty_population, faculty_attack_config):
        from repro.data.webgen import corpus_for_faculty

        sparse = corpus_for_faculty(faculty_population, coverage=0.4)
        release = MDAVAnonymizer().anonymize(faculty_population.private, 3).release
        result = WebFusionAttack(sparse, faculty_attack_config).run(release)
        assert result.match_rate < 0.95
        assert result.estimates.shape == (faculty_population.private.num_rows,)
        assert not np.isnan(result.estimates).any()

    def test_fusion_beats_midpoint_guess(
        self, faculty_population, faculty_corpus, faculty_attack_config
    ):
        release = MDAVAnonymizer().anonymize(faculty_population.private, 3).release
        fused = WebFusionAttack(faculty_corpus, faculty_attack_config).run(release)
        truth = faculty_population.private.sensitive_vector()
        low, high = faculty_attack_config.output_universe
        midpoint_error = np.mean((truth - (low + high) / 2.0) ** 2)
        fused_error = np.mean((truth - fused.estimates) ** 2)
        assert fused_error < midpoint_error

"""Synthetic university-faculty salary dataset (the paper's experimental data).

The paper's experiments use a proprietary dataset "collected from a real-life
enterprise (a public university)" containing faculty salaries (sensitive) and
performance-review numbers (non-sensitive), together with the faculty's web
pages as the auxiliary channel.  Neither is published, so this generator
produces a calibrated synthetic equivalent:

* every faculty member has a **rank** (assistant / associate / full professor),
  a **department**, **years of service**, and three **performance review
  scores** on a 1-10 scale (research, teaching, service) — these are the
  quasi-identifiers an enterprise release would carry;
* the **salary** (sensitive) is drawn from a rank-conditional base plus
  contributions from the review scores and seniority plus lognormal noise, so
  review scores genuinely predict salary — the property the fusion attack
  exploits through the release;
* each person also has **web-observable covariates** — employment seniority,
  an estimated property-holdings value, an external-activity index — generated
  jointly with the salary so that web auxiliary data carries *additional*
  signal beyond the release, which is the property the attack exploits through
  the web channel.

Both the private table and the per-person web profiles are returned so the
experiments can build the release and the simulated web corpus from one
consistent population.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.names import generate_names
from repro.dataset.schema import Attribute, AttributeKind, AttributeRole, Schema
from repro.dataset.table import Table
from repro.exceptions import ReproError

__all__ = ["FacultyConfig", "FacultyPopulation", "generate_faculty"]

_RANKS = ("assistant", "associate", "full")
_RANK_BASE_SALARY = {"assistant": 62_000.0, "associate": 70_000.0, "full": 78_000.0}
_RANK_PROBABILITIES = (0.35, 0.35, 0.30)
_DEPARTMENTS = (
    "Computer Science",
    "Electrical Engineering",
    "Statistics",
    "Mathematics",
    "Economics",
    "Biology",
)


@dataclass(frozen=True)
class FacultyConfig:
    """Knobs of the faculty population generator.

    Parameters
    ----------
    count:
        Number of faculty records.
    seed:
        RNG seed; the population is deterministic given the seed.
    review_salary_coupling:
        Strength (in dollars per review point) of the contribution of the
        average review score to the salary.  Performance reviews at the
        paper's source institution feed merit raises, so the released review
        scores are genuine salary predictors; this knob controls how strong
        that merit component is.
    web_signal_quality:
        How strongly the web-observable covariates track the salary, in
        ``[0, 1]``; 0 makes the web channel pure noise, 1 makes it a very
        reliable proxy.  The paper's qualitative results need any value
        comfortably above 0.
    salary_noise:
        Standard deviation of the multiplicative lognormal salary noise.
    """

    count: int = 200
    seed: int = 7
    review_salary_coupling: float = 6_000.0
    web_signal_quality: float = 0.75
    salary_noise: float = 0.05

    def __post_init__(self) -> None:
        if self.count < 4:
            raise ReproError("the faculty population needs at least 4 records")
        if not 0.0 <= self.web_signal_quality <= 1.0:
            raise ReproError("web_signal_quality must lie in [0, 1]")
        if self.salary_noise < 0:
            raise ReproError("salary_noise must be non-negative")


@dataclass
class FacultyPopulation:
    """The generated population: private table plus web-profile ground truth."""

    private: Table
    profiles: list[dict[str, object]]
    config: FacultyConfig
    #: The salary range an adversary would plausibly assume for this population
    #: (used as the fusion system's output universe).
    assumed_salary_range: tuple[float, float] = (50_000.0, 200_000.0)
    auxiliary_attributes: tuple[str, ...] = (
        "employment_seniority",
        "property_holdings",
        "external_activity",
    )


def faculty_schema() -> Schema:
    """Schema of the private faculty table ``P``."""
    return Schema(
        [
            Attribute("name", AttributeRole.IDENTIFIER, AttributeKind.TEXT),
            Attribute("department", AttributeRole.INSENSITIVE, AttributeKind.CATEGORICAL),
            Attribute("rank", AttributeRole.INSENSITIVE, AttributeKind.CATEGORICAL),
            Attribute("research_score", AttributeRole.QUASI_IDENTIFIER),
            Attribute("teaching_score", AttributeRole.QUASI_IDENTIFIER),
            Attribute("service_score", AttributeRole.QUASI_IDENTIFIER),
            Attribute("years_of_service", AttributeRole.QUASI_IDENTIFIER),
            Attribute("salary", AttributeRole.SENSITIVE),
        ]
    )


def generate_faculty(config: FacultyConfig | None = None) -> FacultyPopulation:
    """Generate the synthetic faculty population."""
    config = config or FacultyConfig()
    rng = np.random.default_rng(config.seed)
    names = generate_names(config.count, seed=config.seed)

    ranks = rng.choice(_RANKS, size=config.count, p=_RANK_PROBABILITIES)
    departments = rng.choice(_DEPARTMENTS, size=config.count)

    years = np.empty(config.count)
    years[ranks == "assistant"] = rng.uniform(1, 7, size=(ranks == "assistant").sum())
    years[ranks == "associate"] = rng.uniform(5, 16, size=(ranks == "associate").sum())
    years[ranks == "full"] = rng.uniform(10, 35, size=(ranks == "full").sum())
    years = np.round(years).astype(int)

    # Review scores: latent "quality" per person drives all three scores, with
    # per-score noise, clipped to the enterprise's 1-10 review scale.
    quality = rng.normal(0.0, 1.0, size=config.count)
    def _score(weight: float) -> np.ndarray:
        raw = 5.5 + 1.8 * weight * quality + rng.normal(0.0, 1.0, size=config.count)
        return np.clip(np.round(raw, 1), 1.0, 10.0)

    research = _score(1.0)
    teaching = _score(0.6)
    service = _score(0.4)
    mean_review = (research + teaching + service) / 3.0

    # The salary is driven by the *released* quasi-identifiers (review scores,
    # years of service) plus a modest rank-dependent base and multiplicative
    # noise, mirroring a merit-raise pay model.  Because the drivers are
    # exactly the columns a release generalizes, coarsening the release
    # genuinely degrades what an adversary can infer from it.
    base = np.array([_RANK_BASE_SALARY[r] for r in ranks])
    salary = (
        base
        + config.review_salary_coupling * (mean_review - 5.5)
        + 1_600.0 * years
    )
    salary = salary * np.exp(rng.normal(0.0, config.salary_noise, size=config.count))
    salary = np.round(salary, 0)

    rows = []
    for i in range(config.count):
        rows.append(
            {
                "name": names[i],
                "department": str(departments[i]),
                "rank": str(ranks[i]),
                "research_score": float(research[i]),
                "teaching_score": float(teaching[i]),
                "service_score": float(service[i]),
                "years_of_service": int(years[i]),
                "salary": float(salary[i]),
            }
        )
    private = Table.from_rows(faculty_schema(), rows)

    # Web-observable covariates.  Their informativeness about the salary is
    # controlled by web_signal_quality: a convex mixture between a salary-driven
    # component and an independent noise component.
    q = config.web_signal_quality
    salary_rank = salary.argsort(kind="stable").argsort(kind="stable") / max(config.count - 1, 1)
    noise_u = rng.uniform(0.0, 1.0, size=config.count)

    seniority_years = years + np.round(rng.normal(2.0, 1.5, size=config.count))
    seniority_years = np.clip(seniority_years, 1, 45)
    property_driver = q * salary_rank + (1 - q) * noise_u
    property_holdings = np.round(150_000.0 + 650_000.0 * property_driver + rng.normal(0, 25_000, size=config.count), -3)
    property_holdings = np.clip(property_holdings, 50_000.0, None)
    activity_driver = q * salary_rank + (1 - q) * rng.uniform(0.0, 1.0, size=config.count)
    external_activity = np.clip(np.round(1.0 + 9.0 * activity_driver, 1), 1.0, 10.0)

    profiles: list[dict[str, object]] = []
    for i in range(config.count):
        profiles.append(
            {
                "name": names[i],
                "employer": "State University",
                "position": f"{str(ranks[i]).title()} Professor of {departments[i]}",
                "employment_seniority": float(seniority_years[i]),
                "property_holdings": float(property_holdings[i]),
                "external_activity": float(external_activity[i]),
            }
        )

    low = float(np.floor(salary.min() / 10_000.0) * 10_000.0)
    high = float(np.ceil(salary.max() / 10_000.0) * 10_000.0)
    return FacultyPopulation(
        private=private,
        profiles=profiles,
        config=config,
        assumed_salary_range=(low, high),
    )

"""Synthetic stand-ins for the six public datasets of the paper.

The evaluation datasets (Gowalla, Foursquare, Trivago, Taobao, Amazon Beauty,
Amazon Toys) cannot be downloaded in this offline environment, so each is
replaced by a generator that plants the statistical structure the paper's
argument rests on:

* **POI check-ins (Gowalla / Foursquare)** — next-POI choice is dominated by
  *short-range* sequential dependence: users tend to move to POIs close to
  (i.e. frequently co-visited with) their previous check-in.  The generator
  draws each user's next POI from a Markov transition matrix over POI
  "neighbourhoods", blended with a per-user preference distribution.
* **CTR logs (Trivago / Taobao)** — click behaviour is driven by *long-term*
  user preference over item categories that drifts slowly over time; the
  generator gives each user a latent preference vector over categories and a
  slow random-walk drift, so the whole history (not just the last click) is
  informative.
* **Rating data (Beauty / Toys)** — explicit ratings follow a latent-factor
  user×item model plus a *sequential mood/recency* component: a user's recent
  ratings shift the mean of the next one.  This is exactly the structure a
  sequence-aware regressor can exploit and a set-category FM cannot.

All generators are deterministic given a seed, emit
:class:`~repro.data.interactions.InteractionLog` objects, and use power-law
object popularity so the sparsity profile resembles the real datasets
(scaled down ~2 orders of magnitude so CPU training finishes in seconds).
Which generator, seed and ``sequential_strength`` stand in for each named
dataset is decided in one place, ``_GENERATORS`` in
:mod:`repro.experiments.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.data.interactions import Interaction, InteractionLog


@dataclass(frozen=True)
class SyntheticConfig:
    """Size and structure knobs shared by all generators."""

    num_users: int
    num_objects: int
    interactions_per_user: int
    seed: int = 0
    # Strength of the sequential component in [0, 1]; 0 removes all
    # sequential structure (useful as a control in tests), 1 makes the next
    # object depend only on the sequence.
    sequential_strength: float = 0.7


def _power_law_popularity(num_objects: int, rng: np.random.Generator, exponent: float = 1.1) -> np.ndarray:
    """Zipf-like popularity distribution over objects."""
    ranks = np.arange(1, num_objects + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    rng.shuffle(weights)
    return weights / weights.sum()


def _markov_transition_matrix(
    num_objects: int,
    num_clusters: int,
    rng: np.random.Generator,
    within_cluster_probability: float = 0.85,
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster objects into neighbourhoods and build a cluster-level Markov chain.

    Returns ``(object_cluster, cluster_transitions)`` where
    ``cluster_transitions[c]`` is the distribution over the next cluster given
    the current one.  Within-cluster mass models geographic locality of POI
    check-ins; a band structure over clusters models travel between adjacent
    neighbourhoods.
    """
    object_cluster = rng.integers(0, num_clusters, size=num_objects)
    transitions = np.full((num_clusters, num_clusters), (1.0 - within_cluster_probability) / max(num_clusters - 1, 1))
    np.fill_diagonal(transitions, within_cluster_probability)
    # Extra mass to adjacent clusters (ring topology) to mimic travel patterns.
    for cluster in range(num_clusters):
        transitions[cluster, (cluster + 1) % num_clusters] += 0.05
        transitions[cluster, (cluster - 1) % num_clusters] += 0.05
    transitions /= transitions.sum(axis=1, keepdims=True)
    return object_cluster, transitions


def generate_poi_checkins(config: SyntheticConfig, num_clusters: Optional[int] = None) -> InteractionLog:
    """POI check-in log with short-range Markov sequential structure.

    Each user starts in a random neighbourhood cluster; at every step the next
    cluster is drawn from the cluster transition matrix (with probability
    ``sequential_strength``) or from the user's personal preference over
    clusters (otherwise), then a POI is drawn inside the chosen cluster
    proportionally to global popularity.
    """
    rng = np.random.default_rng(config.seed)
    num_clusters = num_clusters or max(4, config.num_objects // 25)
    popularity = _power_law_popularity(config.num_objects, rng)
    object_cluster, cluster_transitions = _markov_transition_matrix(config.num_objects, num_clusters, rng)

    objects_in_cluster = [np.where(object_cluster == c)[0] for c in range(num_clusters)]
    cluster_popularity = [popularity[members] / popularity[members].sum() if len(members) else None
                          for members in objects_in_cluster]

    log = InteractionLog(name="poi-checkins")
    timestamp = 0.0
    for user_id in range(config.num_users):
        user_cluster_preference = rng.dirichlet(np.ones(num_clusters) * 0.5)
        current_cluster = int(rng.choice(num_clusters, p=user_cluster_preference))
        for _ in range(config.interactions_per_user):
            if rng.random() < config.sequential_strength:
                next_cluster_distribution = cluster_transitions[current_cluster]
            else:
                next_cluster_distribution = user_cluster_preference
            current_cluster = int(rng.choice(num_clusters, p=next_cluster_distribution))
            members = objects_in_cluster[current_cluster]
            if len(members) == 0:
                current_cluster = int(rng.choice(num_clusters))
                members = objects_in_cluster[current_cluster]
                if len(members) == 0:
                    continue
            poi = int(rng.choice(members, p=cluster_popularity[current_cluster]))
            timestamp += float(rng.exponential(1.0))
            log.append(Interaction(user_id=user_id, object_id=poi, timestamp=timestamp))
    return log


def generate_ctr_log(config: SyntheticConfig, num_categories: Optional[int] = None,
                     preference_drift: float = 0.05) -> InteractionLog:
    """Click log with long-range preference structure (Trivago/Taobao style).

    Each user holds a latent preference vector over item categories that
    drifts slowly (random walk on the simplex); clicked items are drawn from
    the preferred categories.  Because the preference changes slowly, the
    *entire* click history is informative about the next click — the regime
    where the paper observes larger optimal sequence lengths n˙.
    """
    rng = np.random.default_rng(config.seed)
    num_categories = num_categories or max(5, config.num_objects // 30)
    popularity = _power_law_popularity(config.num_objects, rng)
    object_category = rng.integers(0, num_categories, size=config.num_objects)
    objects_in_category = [np.where(object_category == c)[0] for c in range(num_categories)]
    category_popularity = [popularity[members] / popularity[members].sum() if len(members) else None
                           for members in objects_in_category]

    log = InteractionLog(name="ctr-log")
    timestamp = 0.0
    for user_id in range(config.num_users):
        preference = rng.dirichlet(np.ones(num_categories) * 0.3)
        for _ in range(config.interactions_per_user):
            # Slow drift of the latent preference.
            noise = rng.normal(0.0, preference_drift, size=num_categories)
            preference = np.clip(preference + noise, 1e-6, None)
            preference = preference / preference.sum()
            if rng.random() < config.sequential_strength:
                category = int(rng.choice(num_categories, p=preference))
            else:
                category = int(rng.integers(0, num_categories))
            members = objects_in_category[category]
            if len(members) == 0:
                continue
            item = int(rng.choice(members, p=category_popularity[category]))
            timestamp += float(rng.exponential(1.0))
            log.append(Interaction(user_id=user_id, object_id=item, timestamp=timestamp))
    return log


def generate_rating_log(config: SyntheticConfig, num_factors: int = 8,
                        rating_scale: tuple = (1.0, 5.0), noise_std: float = 0.4,
                        recency_weight: float = 0.6) -> InteractionLog:
    """Explicit-rating log with latent factors plus a sequential mood term.

    The base rating of user u for item i is a scaled inner product of latent
    factors; a "mood" term — the exponentially weighted average of the user's
    recent rating residuals — is added with weight ``recency_weight`` before
    Gaussian noise and clipping to the rating scale.  A sequence-aware model
    can recover the mood from the recent history; a set-category model cannot.
    """
    rng = np.random.default_rng(config.seed)
    low, high = rating_scale
    user_factors = rng.normal(0.0, 1.0, size=(config.num_users, num_factors))
    item_factors = rng.normal(0.0, 1.0, size=(config.num_objects, num_factors))
    item_bias = rng.normal(0.0, 0.3, size=config.num_objects)
    popularity = _power_law_popularity(config.num_objects, rng)

    log = InteractionLog(name="rating-log")
    timestamp = 0.0
    midpoint = (low + high) / 2.0
    spread = (high - low) / 4.0
    for user_id in range(config.num_users):
        mood = 0.0
        for _ in range(config.interactions_per_user):
            item = int(rng.choice(config.num_objects, p=popularity))
            affinity = float(user_factors[user_id] @ item_factors[item]) / np.sqrt(num_factors)
            base = midpoint + spread * affinity + item_bias[item]
            rating = base + recency_weight * mood * config.sequential_strength
            rating += float(rng.normal(0.0, noise_std))
            rating = float(np.clip(rating, low, high))
            # Update the mood with the residual of this rating.
            mood = 0.7 * mood + 0.3 * (rating - base)
            timestamp += float(rng.exponential(1.0))
            log.append(Interaction(user_id=user_id, object_id=item, timestamp=timestamp, rating=rating))
    return log


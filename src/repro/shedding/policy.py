"""Moving-cluster-driven load-shedding policies (paper §5).

When the engine cannot keep up, SCUBA discards the *least important* data
first: relative positions of cluster members closest to the centroid, whose
locations the cluster approximates best.  Those members are abstracted into
the cluster's **nucleus** — a circular region of radius ``Θ_N`` (with
``0 ≤ Θ_N ≤ Θ_D``) around the centroid.  The three regimes of Fig. 8:

* **no shedding** — every member keeps its relative position;
* **partial shedding** — members whose distance to the centroid is within
  the nucleus radius lose their positions; members farther out keep theirs;
* **full shedding** — every position is dropped; the cluster alone
  represents its members.

The knob exposed to experiments is η (``eta``), the nucleus-to-cluster size
percentage on the x-axis of Fig. 13: ``Θ_N = η × Θ_D``.
"""

from __future__ import annotations

from ..clustering import MovingCluster
from ..generator import EntityKind

__all__ = [
    "SheddingPolicy",
    "NoShedding",
    "PartialShedding",
    "FullShedding",
    "RandomShedding",
    "policy_for_eta",
]


class SheddingPolicy:
    """Decides which member positions to discard at ingest time.

    ``nucleus_radius_for(cluster)`` fixes the cluster's nucleus size;
    ``should_shed`` is consulted right after a member's update is absorbed,
    with ``dist`` the member's distance from the (post-absorb) centroid.
    """

    #: Human-readable name used in experiment reports.
    name = "abstract"

    def nucleus_radius_for(self, cluster: MovingCluster) -> float:
        raise NotImplementedError

    def should_shed(self, cluster: MovingCluster, dist: float) -> bool:
        raise NotImplementedError

    def apply(
        self, cluster: MovingCluster, entity_id: int, kind: EntityKind, dist: float
    ) -> None:
        """Shed the just-absorbed member's position if the policy says so."""
        nucleus = self.nucleus_radius_for(cluster)
        if nucleus != cluster.nucleus_radius:
            cluster.nucleus_radius = nucleus
            cluster.version += 1
        if self.should_shed(cluster, dist):
            member = cluster.get_member(entity_id, kind)
            assert member is not None
            if not member.position_shed:
                member.position_shed = True
                cluster.shed_count += 1
                cluster.version += 1

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class NoShedding(SheddingPolicy):
    """Keep every relative position (Fig. 8a).  η = 0 %."""

    name = "none"

    def nucleus_radius_for(self, cluster: MovingCluster) -> float:
        return 0.0

    def should_shed(self, cluster: MovingCluster, dist: float) -> bool:
        return False


class PartialShedding(SheddingPolicy):
    """Discard positions inside the nucleus (Fig. 8c).

    ``eta`` is the nucleus size as a fraction of the distance threshold
    ``Θ_D`` (the maximum cluster radius): ``Θ_N = eta × Θ_D``.
    """

    name = "partial"

    def __init__(self, eta: float, theta_d: float) -> None:
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {eta}")
        if theta_d < 0:
            raise ValueError(f"theta_d must be non-negative, got {theta_d}")
        self.eta = eta
        self.theta_n = eta * theta_d

    def nucleus_radius_for(self, cluster: MovingCluster) -> float:
        return self.theta_n

    def should_shed(self, cluster: MovingCluster, dist: float) -> bool:
        return dist <= self.theta_n

    def __repr__(self) -> str:
        return f"PartialShedding(eta={self.eta}, theta_n={self.theta_n:g})"


class FullShedding(SheddingPolicy):
    """Discard every position (Fig. 8b).  η = 100 %.

    The nucleus degenerates to the whole cluster: join predicates fall back
    to pure cluster-level approximation, so intersecting clusters match all
    their members pairwise — the paper's stated full-shedding semantics.
    """

    name = "full"

    def __init__(self, theta_d: float) -> None:
        self.theta_n = theta_d

    def nucleus_radius_for(self, cluster: MovingCluster) -> float:
        return self.theta_n

    def should_shed(self, cluster: MovingCluster, dist: float) -> bool:
        return True


class RandomShedding(SheddingPolicy):
    """Shed a random fraction of member positions — the strawman of §6.6.

    The paper argues semantic (nucleus-based) shedding beats dropping "the
    same number of tuples — but just not the same tuples" at random,
    because random drops discard members far from the centroid whose
    positions the cluster approximates poorly.  This policy sheds each
    incoming position with probability ``drop_fraction`` so the ablation
    benchmark can measure that accuracy gap at equal shed volume.

    Shed members are still approximated by a nucleus of radius ``Θ_D``
    (the only sound bound — a randomly shed member can be anywhere in the
    cluster), which is precisely why accuracy suffers.
    """

    name = "random"

    def __init__(self, drop_fraction: float, theta_d: float, seed: int = 0) -> None:
        if not 0.0 <= drop_fraction <= 1.0:
            raise ValueError(f"drop_fraction must be in [0, 1], got {drop_fraction}")
        import random

        self.drop_fraction = drop_fraction
        self.theta_d = theta_d
        self._rng = random.Random(seed)

    def nucleus_radius_for(self, cluster: MovingCluster) -> float:
        return self.theta_d

    def should_shed(self, cluster: MovingCluster, dist: float) -> bool:
        return self._rng.random() < self.drop_fraction

    def __repr__(self) -> str:
        return f"RandomShedding(drop_fraction={self.drop_fraction})"


def policy_for_eta(eta: float, theta_d: float) -> SheddingPolicy:
    """The policy matching an η percentage point of Fig. 13.

    η = 0 → no shedding; η = 1 → full shedding; otherwise partial with
    ``Θ_N = η × Θ_D``.
    """
    if eta <= 0.0:
        return NoShedding()
    if eta >= 1.0:
        return FullShedding(theta_d)
    return PartialShedding(eta, theta_d)

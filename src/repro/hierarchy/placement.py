"""Cluster-level placement policies: the routing level of the hierarchy.

Every policy answers one question — *which node gets this arriving
job?* — through :meth:`PlacementPolicy.place`. Three classic baselines
(`least-loaded`, `round-robin`, `random`) bracket the learned
:class:`PlacementAgent`, a small dueling double DQN over the
:class:`~repro.hierarchy.features.PlacementObservation` that reuses the
:mod:`repro.rl` stack end to end and can opt into the sum-tree
prioritized replay buffer (:class:`repro.rl.replay.PrioritizedReplayBuffer`)
with importance-sampling-corrected updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.fleet import FleetEngine
from repro.errors import ConfigurationError
from repro.hierarchy.features import PlacementObservation
from repro.rl.dqn import DQNConfig, DuelingDoubleDQNAgent
from repro.rl.optim import clip_grad_norm
from repro.rl.replay import PrioritizedReplayBuffer
from repro.workloads.jobs import Job

__all__ = [
    "PlacementPolicy",
    "LeastLoadedPlacement",
    "RoundRobinPlacement",
    "RandomPlacement",
    "PlacementConfig",
    "PlacementAgent",
]

_NEG_INF = -1e18


class PlacementPolicy:
    """Decides, per admitted arrival, which node's queue receives it."""

    name = "base"

    def place(self, engine: FleetEngine, job: Job, now: float) -> int:
        raise NotImplementedError  # pragma: no cover

    def place_with_info(
        self, engine: FleetEngine, job: Job, now: float
    ) -> tuple[int, dict]:
        """:meth:`place` plus decision provenance for lifecycle tracing.

        The contract is strict: implementations must consume exactly the
        randomness :meth:`place` consumes, so a traced run's routing is
        bitwise-identical to an untraced one. Baselines return no extra
        provenance; the learned agent adds its top-k alternative
        ranking.
        """
        return self.place(engine, job, now), {}

    def reset(self) -> None:
        """Return to the initial (reproducible) state."""


class LeastLoadedPlacement(PlacementPolicy):
    """Route to the node with the shortest queue (ties: earliest
    available, then lowest index) — the strongest classic baseline."""

    name = "least-loaded"

    def place(self, engine: FleetEngine, job: Job, now: float) -> int:
        arrays = engine.node_arrays
        # lexsort is stable: equal (depth, available_at) keys keep the
        # lower index first
        return int(np.lexsort((arrays.available_at, arrays.depth))[0])


class RoundRobinPlacement(PlacementPolicy):
    """Cycle through nodes in index order."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def place(self, engine: FleetEngine, job: Job, now: float) -> int:
        index = self._next % len(engine.cluster.nodes)
        self._next += 1
        return index

    def reset(self) -> None:
        self._next = 0


class RandomPlacement(PlacementPolicy):
    """Uniform random node, from a seeded stream."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)

    def place(self, engine: FleetEngine, job: Job, now: float) -> int:
        return int(self._rng.integers(0, len(engine.cluster.nodes)))

    def reset(self) -> None:
        self._rng = np.random.default_rng(self.seed)


# ----------------------------------------------------------------------
# the learned policy
# ----------------------------------------------------------------------
@dataclass
class PlacementConfig:
    """Hyper-parameters of the placement-level DQN.

    Deliberately smaller than the node level's Table VI settings: the
    placement decision is near-bandit (small ``gamma``), its state is a
    load snapshot rather than kernel counters, and ``candidate_k``
    masks actions to the k least-loaded nodes so exploration never
    wrecks fleet balance.
    """

    n_nodes: int = 0  # required
    window_size: int = 6
    hidden: tuple[int, ...] = (128, 64)
    gamma: float = 0.6
    lr: float = 1e-3
    batch_size: int = 32
    replay_capacity: int = 50_000
    warmup_transitions: int = 64
    target_sync_every: int = 100
    grad_clip: float = 10.0
    epsilon_start: float = 1.0
    epsilon_end: float = 0.02
    epsilon_decay_rate: float = 0.995
    seed: int = 0
    candidate_k: int = 8
    time_scale: float = 60.0
    prioritized: bool = False
    per_alpha: float = 0.6
    per_beta: float = 0.4

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigurationError("PlacementConfig.n_nodes must be set")
        if self.window_size < 1:
            raise ConfigurationError("window size must be positive")


class PlacementAgent(PlacementPolicy):
    """The learned routing policy: epsilon-greedy over nodes.

    Wraps a :class:`DuelingDoubleDQNAgent` whose action space is the
    node set. Acting is available both through the engine-facing
    :meth:`place` (observation built internally) and the env-facing
    :meth:`act` (observation supplied by :class:`PlacementEnv`). With
    ``prioritized=True`` the replay buffer is the seeded sum-tree
    :class:`PrioritizedReplayBuffer` and gradient steps apply the
    importance-sampling weights and refresh priorities from fresh TD
    errors; otherwise learning delegates to the DQN's uniform path
    unchanged.
    """

    name = "agent"

    def __init__(self, config: PlacementConfig) -> None:
        self.config = config
        self.observation = PlacementObservation(
            config.n_nodes, config.window_size, config.time_scale
        )
        self.dqn = DuelingDoubleDQNAgent(DQNConfig(
            n_inputs=self.observation.n_inputs,
            n_actions=config.n_nodes,
            hidden=config.hidden,
            gamma=config.gamma,
            lr=config.lr,
            batch_size=config.batch_size,
            replay_capacity=config.replay_capacity,
            warmup_transitions=config.warmup_transitions,
            target_sync_every=config.target_sync_every,
            grad_clip=config.grad_clip,
            epsilon_start=config.epsilon_start,
            epsilon_end=config.epsilon_end,
            epsilon_decay_rate=config.epsilon_decay_rate,
            seed=config.seed,
        ))
        if config.prioritized:
            self.dqn.replay = PrioritizedReplayBuffer(
                config.replay_capacity,
                seed=config.seed,
                alpha=config.per_alpha,
                beta=config.per_beta,
            )

    # ------------------------------------------------------------------
    # acting
    # ------------------------------------------------------------------
    def place(self, engine: FleetEngine, job: Job, now: float) -> int:
        obs = self.observation.observe(engine, job.benchmark_name)
        mask = self.observation.candidate_mask(engine, self.config.candidate_k)
        return int(self.dqn.act(obs, mask))

    def place_with_info(
        self, engine: FleetEngine, job: Job, now: float, top_k: int = 5
    ) -> tuple[int, dict]:
        """Route plus provenance: the epsilon-greedy choice (exactly one
        :meth:`act` call — the same RNG draw :meth:`place` makes) and the
        greedy top-k ``[node, q]`` ranking from a pure forward pass."""
        obs = self.observation.observe(engine, job.benchmark_name)
        mask = self.observation.candidate_mask(engine, self.config.candidate_k)
        chosen = int(self.dqn.act(obs, mask))
        q = self.dqn.online.infer(obs[None, :])[0]
        q = np.where(mask, q, -np.inf)
        order = np.argsort(-q, kind="stable")
        alternatives = [
            [int(i), float(q[i])] for i in order[:top_k] if np.isfinite(q[i])
        ]
        info = {
            "alternatives": alternatives,
            "epsilon": float(self.dqn.epsilon),
            "greedy": bool(alternatives) and alternatives[0][0] == chosen,
        }
        return chosen, info

    def act(self, state: np.ndarray, mask: np.ndarray | None = None) -> int:
        return self.dqn.act(state, mask)

    def freeze(self) -> None:
        self.dqn.freeze()

    def unfreeze(self) -> None:
        self.dqn.unfreeze()

    # ------------------------------------------------------------------
    # learning
    # ------------------------------------------------------------------
    def observe(
        self,
        state: np.ndarray,
        action: int,
        reward: float,
        next_state: np.ndarray,
        done: bool,
        next_mask: np.ndarray | None = None,
    ) -> float | None:
        """Store a transition and train when warm (PER-aware)."""
        replay = self.dqn.replay
        if not isinstance(replay, PrioritizedReplayBuffer):
            return self.dqn.observe(
                state, action, reward, next_state, done, next_mask
            )
        if next_mask is None:
            next_mask = np.ones(self.dqn.config.n_actions, dtype=bool)
        replay.push(state, action, reward, next_state, done, next_mask)
        if len(replay) < self.dqn._warm_threshold:
            return None
        return self.train_step_per()

    def train_step_per(self) -> float:
        """One prioritized minibatch update.

        Identical targets and loss to
        :meth:`DuelingDoubleDQNAgent.train_step`, with two PER
        additions (Schaul et al. 2016): gradients are scaled by the
        max-normalized importance-sampling weights, and the sampled
        rows' priorities are refreshed from the fresh ``|td|`` errors.
        """
        agent = self.dqn
        cfg = agent.config
        replay = agent.replay
        if not isinstance(replay, PrioritizedReplayBuffer):
            raise ConfigurationError(
                "train_step_per needs a PrioritizedReplayBuffer"
            )
        batch, rows, weights = replay.sample_prioritized(cfg.batch_size)

        dead = ~batch.next_masks.any(axis=1)
        q_next_target = agent.target.infer(batch.next_states)
        if cfg.use_double:
            q_sel = agent.online.infer(batch.next_states)
        else:
            q_sel = q_next_target
        q_sel = np.where(batch.next_masks, q_sel, _NEG_INF)
        a_star = np.argmax(q_sel, axis=1)
        bootstrap = q_next_target[np.arange(len(batch)), a_star]
        bootstrap[batch.dones | dead] = 0.0
        targets = batch.rewards + cfg.gamma * bootstrap

        q = agent.online.forward(batch.states)
        taken = q[np.arange(len(batch)), batch.actions]
        td = taken - targets

        delta = cfg.huber_delta
        grad_taken = weights * np.clip(td, -delta, delta) / len(batch)
        loss = float(
            np.mean(
                weights * np.where(
                    np.abs(td) <= delta,
                    0.5 * td**2,
                    delta * (np.abs(td) - 0.5 * delta),
                )
            )
        )

        grad_q = np.zeros_like(q)
        grad_q[np.arange(len(batch)), batch.actions] = grad_taken
        agent.online.zero_grad()
        agent.online.backward(grad_q)
        clip_grad_norm(agent.online.parameters(), cfg.grad_clip)
        agent.optimizer.step()

        replay.update_priorities(rows, np.abs(td))

        agent.train_steps += 1
        if agent.train_steps % cfg.target_sync_every == 0:
            agent.target.load_state_dict(agent.online.state_dict())
        agent.loss_history.append(loss)
        return loss

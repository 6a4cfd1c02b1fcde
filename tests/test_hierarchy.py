"""The two-level hierarchy: placement policies, observation, rollouts,
joint training, and the fleet wiring's bitwise-neutrality contracts.

Coverage layers:

* unit — observation features (pure reads), baseline policies, the
  DEHRL-style per-level rollout storage, and the prioritized-replay
  buffer's sum-tree (hypothesis properties of the inverse-CDF descent,
  plus a seeded sampling-frequency check);
* determinism — same seed implies a byte-identical placement trace,
  the PR's headline reproducibility contract;
* neutrality — with placement off, the fleet dispatch path stays
  bitwise-identical to the ``reference_dispatch`` oracle, and
  attaching a :class:`PowerModel` changes accounting only, never a
  schedule float;
* integration — a tiny :class:`JointTrainer` run end to end, with the
  checkpoint round-trip through :mod:`repro.rl.checkpoint`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.fleet import FleetEngine
from repro.cluster.node import ClusterState
from repro.cluster.policy import CoSchedulingPolicy, FcfsPolicy, PolicySelector
from repro.core.actions import ActionCatalog
from repro.core.optimizer import OnlineOptimizer
from repro.core.serving import DecisionCache, schedule_fingerprint
from repro.errors import ConfigurationError
from repro.hierarchy import (
    HierarchicalPolicy,
    JointTrainer,
    LeastLoadedPlacement,
    LevelRollout,
    N_GLOBAL_FEATURES,
    N_NODE_FEATURES,
    PlacementAgent,
    PlacementConfig,
    PlacementObservation,
    RandomPlacement,
    RoundRobinPlacement,
    evaluate_placement,
    job_class_index,
    load_joint,
    pair_affinity,
)
from repro.hierarchy.env import PlacementEnv
from repro.power.model import PowerModel
from repro.rl.replay import PrioritizedReplayBuffer, ReplayBuffer, SumTree
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.generator import MixCategory, QueueGenerator
from repro.workloads.jobs import Job
from tests.oracles.dispatch import reference_dispatch

pytestmark = pytest.mark.hierarchy

POOL = ["stream", "kmeans", "hotspot3D", "pathfinder"]


def fcfs_selector() -> PolicySelector:
    """A selector that always picks FCFS — no trained agent needed."""
    return PolicySelector(
        co_scheduling=CoSchedulingPolicy(None),  # type: ignore[arg-type]
        fcfs=FcfsPolicy(),
        crowding_threshold=10**9,
    )


@pytest.fixture(scope="module")
def selector_factory(tiny_training):
    """Fresh RL-backed selectors sharing one trained node agent."""
    trainer, result = tiny_training
    from repro.core.evaluation import profile_all_benchmarks

    repo = result.repository.copy()
    profile_all_benchmarks(repo)

    def make(crowding_threshold: int = 1) -> PolicySelector:
        optimizer = OnlineOptimizer(
            result.agent,
            repo,
            ActionCatalog(c_max=trainer.c_max),
            trainer.window_size,
            decision_cache=DecisionCache(),
        )
        return PolicySelector(
            co_scheduling=CoSchedulingPolicy(optimizer),
            fcfs=FcfsPolicy(),
            crowding_threshold=crowding_threshold,
        )

    return make


def backlog_names(n_windows: int, w: int = 6, seed: int = 5) -> list[str]:
    gen = QueueGenerator(seed=seed, training_only=True)
    names: list[str] = []
    for _ in range(n_windows):
        names.extend(gen.queue(MixCategory.BALANCED, w=w).benchmark_names)
    return names


def placed_engine(n_nodes: int = 3, window_size: int = 3) -> FleetEngine:
    """An engine in placement mode with a busy node 0 and queued work."""
    engine = FleetEngine(
        ClusterState.homogeneous(n_nodes),
        fcfs_selector(),
        window_size=window_size,
        placement=LeastLoadedPlacement(),
    )
    # first job dispatches immediately (node 0 idle); the rest queue
    for name in ("stream", "kmeans", "hotspot3D"):
        engine.place_job(0, Job.submit(name), at=0.0)
    return engine


# ----------------------------------------------------------------------
# observation features
# ----------------------------------------------------------------------
class TestFeatures:
    def test_observation_width(self):
        obs = PlacementObservation(n_nodes=5, window_size=4)
        assert obs.n_inputs == 5 * N_NODE_FEATURES + N_GLOBAL_FEATURES
        engine = FleetEngine(
            ClusterState.homogeneous(5),
            fcfs_selector(),
            window_size=4,
            placement=LeastLoadedPlacement(),
        )
        x = obs.observe(engine, "stream")
        assert x.shape == (obs.n_inputs,)

    def test_observe_is_a_pure_read(self):
        engine = placed_engine()
        obs = PlacementObservation(n_nodes=3, window_size=3)
        depths = [len(engine.node_queue(i)) for i in range(3)]
        a = obs.observe(engine, "kmeans")
        b = obs.observe(engine, "kmeans")
        assert np.array_equal(a, b)
        assert [len(engine.node_queue(i)) for i in range(3)] == depths

    def test_busy_and_queue_features(self):
        engine = placed_engine()
        obs = PlacementObservation(n_nodes=3, window_size=3)
        x = obs.observe(engine, "stream")
        # node 0 runs the first job with two more queued; nodes 1-2 idle
        assert x[0] == pytest.approx(2 / 3)  # queue depth in windows
        assert x[1] == 1.0  # busy flag
        assert x[N_NODE_FEATURES + 1] == 0.0
        # global idle fraction counts nodes 1 and 2
        g = 3 * N_NODE_FEATURES
        assert x[g + 1] == pytest.approx(2 / 3)
        # arriving-class one-hot is exactly one bit
        assert x[g + 2 : g + 5].sum() == 1.0

    def test_running_mix_tracks_dispatched_window(self):
        engine = placed_engine()
        ci, mi, us = engine.node_mix(0)
        assert ci + mi + us == 1  # exactly the one dispatched job
        assert engine.node_mix(1) == (0, 0, 0)

    def test_candidate_mask_counts(self):
        engine = placed_engine(n_nodes=4)
        obs = PlacementObservation(n_nodes=4, window_size=3)
        assert obs.candidate_mask(engine, 2).sum() == 2
        # node 0 is busy with backlog — never among the 2 earliest
        assert not obs.candidate_mask(engine, 2)[0]
        assert obs.candidate_mask(engine, 0).all()
        assert obs.candidate_mask(engine, 99).all()

    @pytest.mark.parametrize("observed, fleet", [(3, 6), (5, 3)])
    def test_fleet_size_mismatch_rejected(self, observed, fleet):
        engine = placed_engine(n_nodes=fleet)
        obs = PlacementObservation(n_nodes=observed, window_size=3)
        for read in (
            lambda: obs.observe(engine, "stream"),
            lambda: obs.candidate_mask(engine, 2),
        ):
            with pytest.raises(ConfigurationError) as exc:
                read()
            assert f"{observed} nodes" in str(exc.value)
            assert f"engine has {fleet}" in str(exc.value)

    def test_job_class_index_range(self):
        for name in POOL:
            assert job_class_index(name) in (0, 1, 2)
        assert job_class_index("no-such-program") == 2  # US fallback

    def test_pair_affinity_table(self):
        table = pair_affinity(["stream", "kmeans"])
        assert set(table) == {
            ("kmeans", "kmeans"),
            ("kmeans", "stream"),
            ("stream", "stream"),
        }
        for gain in table.values():
            assert 0.0 < gain < 4.0


# ----------------------------------------------------------------------
# baseline policies
# ----------------------------------------------------------------------
class TestBaselines:
    def test_least_loaded_prefers_empty_node(self):
        engine = placed_engine()
        job = Job.submit("stream")
        assert LeastLoadedPlacement().place(engine, job, 0.0) == 1

    def test_round_robin_cycles_and_resets(self):
        engine = placed_engine()
        rr = RoundRobinPlacement()
        job = Job.submit("stream")
        seq = [rr.place(engine, job, 0.0) for _ in range(4)]
        assert seq == [0, 1, 2, 0]
        rr.reset()
        assert rr.place(engine, job, 0.0) == 0

    def test_random_is_seeded_and_resettable(self):
        engine = placed_engine()
        job = Job.submit("stream")
        rand = RandomPlacement(seed=3)
        first = [rand.place(engine, job, 0.0) for _ in range(10)]
        rand.reset()
        assert [rand.place(engine, job, 0.0) for _ in range(10)] == first
        assert all(0 <= i < 3 for i in first)

    def test_hierarchical_policy_delegates(self, selector_factory):
        selector = selector_factory()
        policy = HierarchicalPolicy(
            placement=LeastLoadedPlacement(), selector=selector
        )
        assert policy.crowding_threshold == selector.crowding_threshold
        assert policy.fcfs is selector.fcfs
        assert policy.co_scheduling is selector.co_scheduling

    def test_engine_unwraps_hierarchical_policy(self, selector_factory):
        selector = selector_factory()
        placement = RoundRobinPlacement()
        engine = FleetEngine(
            ClusterState.homogeneous(2),
            HierarchicalPolicy(placement=placement, selector=selector),
            window_size=6,
        )
        assert engine.placement is placement
        assert engine.selector is selector
        assert engine._node_pending is not None


# ----------------------------------------------------------------------
# prioritized replay: sum tree + footguns
# ----------------------------------------------------------------------
def _push_rows(buffer: ReplayBuffer, n: int, dim: int = 3) -> None:
    for i in range(n):
        buffer.push(
            np.full(dim, float(i)), i % 2, float(i),
            np.full(dim, float(i + 1)), False, np.ones(2, dtype=bool),
        )


class TestSumTree:
    @settings(deadline=None, max_examples=50)
    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=100.0),
            min_size=1,
            max_size=64,
        ),
        st.floats(min_value=0.0, max_value=0.999999),
    )
    def test_find_is_the_inverse_cdf(self, priorities, fraction):
        tree = SumTree(len(priorities))
        for i, p in enumerate(priorities):
            tree.update(i, p)
        assert tree.total == pytest.approx(sum(priorities))
        mass = fraction * tree.total
        leaf = tree.find(mass)
        # the returned leaf is live (never a zero-priority padding leaf)
        # and its cumulative-priority interval contains the mass, up to
        # the ulp slack between pairwise (tree) and sequential (cumsum)
        # summation
        assert 0 <= leaf < len(priorities)
        assert priorities[leaf] > 0.0
        cum = np.cumsum(priorities)
        lo = cum[leaf - 1] if leaf > 0 else 0.0
        tol = 1e-9 * max(tree.total, 1.0)
        assert lo - tol <= mass <= cum[leaf] + tol

    @settings(deadline=None, max_examples=30)
    @given(st.lists(st.floats(min_value=0.01, max_value=50.0),
                    min_size=2, max_size=32))
    def test_update_repairs_sums(self, priorities):
        tree = SumTree(len(priorities))
        for i, p in enumerate(priorities):
            tree.update(i, p)
        tree.update(0, 0.0)
        assert tree.total == pytest.approx(sum(priorities[1:]))
        assert tree.get(0) == 0.0

    def test_sampling_frequency_tracks_priorities(self):
        # alpha=1, one row with 5x the priority mass of each other row:
        # its empirical draw share must approach 5/8
        buffer = PrioritizedReplayBuffer(
            4, seed=3, alpha=1.0, beta=1.0,
            beta_increment=0.0, epsilon=1e-9, td_clip=100.0,
        )
        _push_rows(buffer, 4)
        buffer.update_priorities(
            np.arange(4), np.array([1.0, 1.0, 1.0, 5.0])
        )
        counts = np.zeros(4)
        for _ in range(400):
            _, rows, weights = buffer.sample_prioritized(4)
            np.add.at(counts, rows, 1)
            assert weights.max() == pytest.approx(1.0)
            assert (weights > 0.0).all()
        share = counts[3] / counts.sum()
        assert 0.5 < share < 0.75

    def test_is_weights_downweight_frequent_rows(self):
        buffer = PrioritizedReplayBuffer(
            4, seed=0, alpha=1.0, beta=1.0,
            beta_increment=0.0, epsilon=1e-9, td_clip=100.0,
        )
        _push_rows(buffer, 4)
        buffer.update_priorities(
            np.arange(4), np.array([1.0, 1.0, 1.0, 9.0])
        )
        _, rows, weights = buffer.sample_prioritized(4)
        for row, weight in zip(rows, weights):
            if row == 3:
                assert weight < 1.0  # oversampled ⇒ corrected down

    def test_new_transitions_enter_at_max_priority(self):
        buffer = PrioritizedReplayBuffer(8, seed=0, td_clip=100.0)
        _push_rows(buffer, 2)
        buffer.update_priorities(np.array([0]), np.array([50.0]))
        _push_rows(buffer, 1)
        # the fresh row enters at the watermark — at least every
        # priority seen so far, so it is replayed before decaying
        assert buffer._tree.get(2) == pytest.approx(buffer._max_priority)
        assert buffer._tree.get(2) >= buffer._tree.get(0)
        assert buffer._tree.get(2) >= buffer._tree.get(1)


class TestReplayFootguns:
    def test_oversized_sample_is_a_clear_error(self):
        buffer = ReplayBuffer(16, seed=0)
        _push_rows(buffer, 3)
        with pytest.raises(ConfigurationError, match="cannot sample 8"):
            buffer.sample(8)
        with pytest.raises(ConfigurationError, match="empty buffer"):
            ReplayBuffer(16).sample(1)

    def test_clear_resets_the_write_cursor(self):
        buffer = ReplayBuffer(16, seed=0)
        _push_rows(buffer, 5)
        buffer.clear()
        assert len(buffer) == 0
        buffer.push(
            np.zeros(3), 1, 7.0, np.ones(3), True, np.ones(2, dtype=bool)
        )
        # the fresh push landed on row 0, not after the stale cursor
        assert buffer._next == 1
        assert buffer[0].reward == 7.0
        assert buffer.sample(1).rewards[0] == 7.0

    def test_prioritized_clear_resets_tree_and_beta(self):
        buffer = PrioritizedReplayBuffer(
            8, seed=0, beta=0.4, beta_increment=0.1
        )
        _push_rows(buffer, 4)
        buffer.sample_prioritized(2)
        assert buffer.beta > 0.4
        buffer.clear()
        assert buffer._tree.total == 0.0
        assert buffer.beta == 0.4
        with pytest.raises(ConfigurationError):
            buffer.sample_prioritized(1)


# ----------------------------------------------------------------------
# rollout storage
# ----------------------------------------------------------------------
class TestRollout:
    def test_returns_discount_and_reset_at_done(self):
        rollout = LevelRollout("placement", gamma=0.5)
        obs = np.zeros(2)
        for reward, done in ((1.0, False), (1.0, False), (1.0, True)):
            rollout.insert(obs, 0, reward, obs, done, None)
        assert rollout.returns() == pytest.approx([1.75, 1.5, 1.0])
        assert rollout.total_reward == pytest.approx(3.0)

    def test_replay_into_flushes_every_step(self):
        calls = []

        class Learner:
            def observe(self, *args):
                calls.append(args)
                return 0.25

        rollout = LevelRollout("placement")
        obs = np.zeros(2)
        rollout.insert(obs, 1, 0.5, obs, True, np.ones(2, dtype=bool))
        rollout.insert(obs, 0, 0.5, obs, False, None)
        assert rollout.replay_into(Learner()) == pytest.approx(0.25)
        assert len(calls) == 2
        rollout.clear()
        assert len(rollout) == 0


# ----------------------------------------------------------------------
# determinism: the byte-identical placement trace
# ----------------------------------------------------------------------
class TestDeterminism:
    def _trace(self, selector_factory, seed: int):
        agent = PlacementAgent(PlacementConfig(
            n_nodes=4, window_size=6, seed=seed,
            hidden=(32, 16), candidate_k=3,
        ))
        agent.freeze()
        result = evaluate_placement(
            agent,
            selector_factory(),
            4,
            PoissonArrivals(rate=3.0, pool=POOL, n_jobs=30, seed=5),
            window_size=6,
        )
        return result

    def test_same_seed_byte_identical_trace(self, selector_factory):
        a = self._trace(selector_factory, seed=11)
        b = self._trace(selector_factory, seed=11)
        assert a.placements == b.placements
        assert a.makespan == b.makespan  # exact, not approx
        assert a.stats.to_dict() == b.stats.to_dict()
        assert len(a.placements) == 30
        assert all(0 <= node < 4 for _, node in a.placements)

    def test_env_episode_is_deterministic(self, selector_factory):
        def run():
            env = PlacementEnv(
                n_nodes=3,
                selector=selector_factory(),
                arrival_factory=lambda ep: PoissonArrivals(
                    rate=2.0, pool=POOL, n_jobs=12, seed=9
                ),
                window_size=6,
                pool=POOL,
            )
            obs, info = env.reset()
            rewards = []
            done = False
            i = 0
            while not done:
                obs, reward, done, _, info = env.step(i % 3)
                rewards.append(reward)
                i += 1
            return rewards, info

        rewards_a, info_a = run()
        rewards_b, info_b = run()
        assert rewards_a == rewards_b
        assert info_a["makespan"] == info_b["makespan"]
        assert info_a["placements"] == info_b["placements"]
        assert [n for _, n in info_a["placements"]] == [
            i % 3 for i in range(12)
        ]


# ----------------------------------------------------------------------
# neutrality: flag-off dispatch and accounting-only energy
# ----------------------------------------------------------------------
class TestNeutrality:
    def test_flag_off_is_bitwise_identical_to_oracle(self, selector_factory):
        jobs = [Job.submit(name) for name in backlog_names(4)]
        oracle_records, oracle_schedules = reference_dispatch(
            ClusterState.homogeneous(2), selector_factory(), 6, jobs
        )

        engine = FleetEngine(
            ClusterState.homogeneous(2),
            selector_factory(),
            window_size=6,
            keep_history=True,
        )
        for job in jobs:
            engine.submit(job, at=0.0)
        result = engine.run()

        assert engine.placement is None
        assert engine._node_pending is None
        assert result.placements == []
        assert oracle_records == result.history
        assert [schedule_fingerprint(s) for s in oracle_schedules] == [
            schedule_fingerprint(s) for s in result.schedules
        ]

    def test_power_model_changes_accounting_only(self, selector_factory):
        def drain(power_model):
            engine = FleetEngine(
                ClusterState.homogeneous(2),
                selector_factory(),
                window_size=6,
                keep_history=True,
                power_model=power_model,
            )
            for name in backlog_names(3):
                engine.submit(Job.submit(name), at=0.0)
            return engine.run()

        plain = drain(None)
        powered = drain(PowerModel())
        assert plain.makespan == powered.makespan
        # job ids come from a process-global counter and differ between
        # the two drains — compare everything else in the fingerprints
        def anon(result):
            return [
                tuple(group[1:] for group in schedule_fingerprint(s))
                for s in result.schedules
            ]

        assert anon(plain) == anon(powered)
        assert plain.energy_joules == 0.0
        assert powered.energy_joules > 0.0
        assert powered.joules_per_job > 0.0
        assert powered.perf_per_watt > 0.0
        summary = {
            k: v for k, v in powered.stats.to_dict().items()
            if k not in ("energy_joules", "joules_per_job", "perf_per_watt")
        }
        plain_summary = {
            k: v for k, v in plain.stats.to_dict().items()
            if k not in ("energy_joules", "joules_per_job", "perf_per_watt")
        }
        assert summary == plain_summary


# ----------------------------------------------------------------------
# joint training end to end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_joint():
    trainer = JointTrainer(
        n_nodes=3,
        window_size=6,
        c_max=3,
        seed=7,
        jobs_per_episode=18,
        arrival_rate=2.0,
        pool=POOL,
        node_episodes=2,
        prioritized=True,
        placement_overrides={"hidden": (32, 16), "warmup_transitions": 8,
                             "batch_size": 8, "candidate_k": 2},
    )
    return trainer, trainer.train(episodes=2)


class TestJointTrainer:
    def test_training_curves_recorded(self, tiny_joint):
        _, result = tiny_joint
        assert len(result.episode_returns) == 2
        assert len(result.episode_makespans) == 2
        assert all(m > 0 for m in result.episode_makespans)
        assert all(0.0 < f <= 1.0 for f in result.episode_fairness)
        # trained placement agent ends frozen (greedy serving phase)
        assert result.placement.dqn.greedy

    def test_prioritized_buffer_in_the_loop(self, tiny_joint):
        _, result = tiny_joint
        replay = result.placement.dqn.replay
        assert isinstance(replay, PrioritizedReplayBuffer)
        assert len(replay) == 2 * 18  # every transition stored
        assert result.placement.dqn.train_steps > 0

    def test_evaluation_drains_everything(self, tiny_joint):
        trainer, result = tiny_joint
        fleet = evaluate_placement(
            result.placement,
            trainer.selector,
            trainer.n_nodes,
            PoissonArrivals(rate=2.0, pool=POOL, n_jobs=20, seed=42),
            window_size=trainer.window_size,
        )
        assert fleet.stats.completed == 20
        assert len(fleet.placements) == 20

    def test_checkpoint_roundtrip(self, tiny_joint, tmp_path):
        _, result = tiny_joint
        paths = result.save(tmp_path)
        assert paths["placement"].exists() and paths["node"].exists()
        placement_dqn, node_dqn = load_joint(tmp_path)
        for restored, original in (
            (placement_dqn, result.placement.dqn),
            (node_dqn, result.node.agent),
        ):
            assert restored.config.n_actions == original.config.n_actions
            for got, want in zip(
                restored.online.state_dict(), original.online.state_dict()
            ):
                assert np.array_equal(got, want)
            for got, want in zip(
                restored.target.state_dict(), original.target.state_dict()
            ):
                assert np.array_equal(got, want)
            assert restored.train_steps == original.train_steps

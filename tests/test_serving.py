"""The batched online serving fast path (tentpole of the serving PR).

Pins the three contracts the sub-millisecond serving path stands on:

* **bitwise identity** — ``optimize_many`` (batched inference, decision
  cache, intra-batch dedup) returns schedules bitwise-identical to the
  per-window ``optimize`` loop, for any mix of window sizes, permuted
  duplicate windows, and unprofiled jobs;
* **order-invariant memoization** — window/profile signatures ignore
  queue order, so permuted submissions of the same content replay one
  cached plan (and the env-level step memo transfers across
  environments and job objects);
* **honest accounting** — each window's ``decision_seconds`` carries
  its own compute plus a ``1/B`` share of batched forwards, never the
  whole batch's latency.
"""

import numpy as np
import pytest

from benchmarks import gate
from repro.clock import CountingClock
from repro.errors import SchedulingError
from repro.cluster.batch import BatchSystem, JobState
from repro.cluster.node import ClusterState
from repro.cluster.policy import CoSchedulingPolicy, FcfsPolicy, PolicySelector
from repro.cluster.fleet import FleetEngine
from repro.core.env import CoSchedulingEnv
from repro.core.optimizer import OnlineOptimizer
from repro.core.serving import (
    DecisionCache,
    SchedulePlan,
    canonical_order,
    profile_signature,
    schedule_fingerprint,
    window_signature,
)
from repro.gpu.device import SimulatedGpu
from repro.perfmodel.cache import CoRunCache
from repro.profiling.profiler import NsightProfiler
from repro.rl.dqn import DQNConfig, DuelingDoubleDQNAgent
from repro.workloads.generator import QueueGenerator
from repro.workloads.jobs import Job, JobQueue

pytestmark = pytest.mark.serving


def _training_windows(w: int, n: int, seed: int = 13) -> list[list[Job]]:
    gen = QueueGenerator(seed=seed, training_only=True)
    return [q.window(w) for q in gen.training_queues(n=n, w=w)]


def _permuted_copy(window: list[Job], seed: int) -> list[Job]:
    """Fresh submissions of the same benchmarks in a shuffled order."""
    rng = np.random.default_rng(seed)
    return [
        Job.submit(window[i].benchmark_name)
        for i in rng.permutation(len(window))
    ]


def _content_fingerprint(schedule) -> tuple:
    """Schedule fingerprint modulo job identity (names + floats)."""
    return tuple(entry[1:] for entry in schedule_fingerprint(schedule))


def _make_optimizer(tiny_training, cache=None, clock=None, repository=None):
    trainer, result = tiny_training
    kwargs = {} if clock is None else {"clock": clock}
    return OnlineOptimizer(
        result.agent,
        result.repository if repository is None else repository,
        trainer.catalog,
        trainer.window_size,
        reward_config=trainer.reward_config,
        decision_cache=cache,
        **kwargs,
    )


class TestSignatures:
    def test_profile_signature_is_content_keyed(self, tiny_training):
        # two independently profiled objects of the same benchmark carry
        # identical content, so their signatures must compare equal
        p1 = NsightProfiler(SimulatedGpu(), noise=0.01).profile(
            Job.submit("stream")
        )
        p2 = NsightProfiler(SimulatedGpu(), noise=0.01).profile(
            Job.submit("stream")
        )
        assert p1 is not p2
        assert profile_signature(p1) == profile_signature(p2)
        p3 = NsightProfiler(SimulatedGpu(), noise=0.01).profile(
            Job.submit("kmeans")
        )
        assert profile_signature(p1) != profile_signature(p3)

    def test_window_signature_order_invariant(self, tiny_training):
        trainer, result = tiny_training
        window = _training_windows(trainer.window_size, 1)[0]
        profiles = [result.repository.lookup(j) for j in window]
        perm = list(reversed(profiles))
        assert window_signature(profiles) == window_signature(perm)

    def test_canonical_order_aligns_permutations(self, tiny_training):
        trainer, result = tiny_training
        window = _training_windows(trainer.window_size, 1)[0]
        copy = _permuted_copy(window, seed=3)
        profs_a = [result.repository.lookup(j) for j in window]
        profs_b = [result.repository.lookup(j) for j in copy]
        names_a = [
            window[i].benchmark_name for i in canonical_order(profs_a)
        ]
        names_b = [copy[i].benchmark_name for i in canonical_order(profs_b)]
        assert names_a == names_b


class TestSchedulePlan:
    def test_round_trip_onto_permuted_window(self, tiny_training):
        opt = _make_optimizer(tiny_training)
        window = _training_windows(opt.window_size, 1)[0]
        schedule = opt.optimize(window).schedule
        profs = [opt.repository.lookup(j) for j in window]
        jobs_c = [window[i] for i in canonical_order(profs)]
        plan = SchedulePlan.from_groups(list(schedule.groups), jobs_c)

        # onto the same jobs: bitwise the original schedule
        same = plan.materialize(jobs_c)
        assert [
            (tuple(j.job_id for j in g.jobs), g.corun_time) for g in same
        ] == [
            (tuple(j.job_id for j in g.jobs), g.corun_time)
            for g in schedule.groups
        ]

        # onto a permuted fresh copy: identical content and floats,
        # bound to the new window's job objects
        copy = _permuted_copy(window, seed=5)
        profs_c = [opt.repository.lookup(j) for j in copy]
        copy_c = [copy[i] for i in canonical_order(profs_c)]
        replayed = plan.materialize(copy_c)
        assert [
            (tuple(j.benchmark_name for j in g.jobs), g.corun_time,
             g.solo_run_time)
            for g in replayed
        ] == [
            (tuple(j.benchmark_name for j in g.jobs), g.corun_time,
             g.solo_run_time)
            for g in schedule.groups
        ]
        new_ids = {j.job_id for g in replayed for j in g.jobs}
        assert new_ids == {j.job_id for j in copy}

    def test_foreign_job_rejected(self, tiny_training):
        opt = _make_optimizer(tiny_training)
        window = _training_windows(opt.window_size, 1)[0]
        schedule = opt.optimize(window).schedule
        with pytest.raises(SchedulingError):
            SchedulePlan.from_groups(list(schedule.groups), window[:-1])


class TestBatchedIdentity:
    def test_optimize_many_matches_sequential_bitwise(self, tiny_training):
        pool = _training_windows(tiny_training[0].window_size, 3)
        stream = (
            list(pool)
            + [_permuted_copy(w, seed=i) for i, w in enumerate(pool)]
            + [pool[0][:1], pool[1][:3]]  # solo and short windows
        )
        ref = [_make_optimizer(tiny_training).optimize(w) for w in stream]
        cache = DecisionCache()
        fast = _make_optimizer(tiny_training, cache=cache).optimize_many(
            stream
        )
        assert len(fast) == len(ref)
        for r, f in zip(ref, fast):
            assert schedule_fingerprint(f.schedule) == schedule_fingerprint(
                r.schedule
            )
            assert f.n_unprofiled == r.n_unprofiled
        # the permuted duplicates replayed plans instead of re-deciding
        assert any(f.cached for f in fast)
        assert cache.stats.hits > 0
        # one miss per distinct multi-job window: 3 pool windows + the
        # short window (the solo window bypasses the cache entirely)
        assert cache.stats.misses == 4

    def test_warm_cache_replays_bitwise(self, tiny_training):
        window = _training_windows(tiny_training[0].window_size, 1)[0]
        cache = DecisionCache()
        opt = _make_optimizer(tiny_training, cache=cache)
        cold = opt.optimize_many([window])[0]
        warm = opt.optimize_many([_permuted_copy(window, seed=9)])[0]
        assert not cold.cached
        assert warm.cached
        assert _content_fingerprint(warm.schedule) == _content_fingerprint(
            cold.schedule
        )

    def test_single_window_batch_matches_optimize(self, tiny_training):
        window = _training_windows(tiny_training[0].window_size, 1, seed=21)[0]
        a = _make_optimizer(tiny_training).optimize(window)
        b = _make_optimizer(
            tiny_training, cache=DecisionCache()
        ).optimize_many([window])[0]
        assert schedule_fingerprint(a.schedule) == schedule_fingerprint(
            b.schedule
        )

    def test_unprofiled_jobs_profile_in_submission_order(self, tiny_training):
        trainer, _ = tiny_training
        # two windows sharing an unseen benchmark: the sequential loop
        # profiles it in window 0 (solo) and co-schedules the copy in
        # window 1 — the batched path must split identically; separate
        # repositories keep the two passes independent
        base = _training_windows(trainer.window_size, 1, seed=31)[0]
        w0 = [Job.submit("huffman")] + base[:3]
        w1 = base[3:] + [Job.submit("huffman")]
        ref_opt = _make_optimizer(
            tiny_training, repository=trainer.build_repository()
        )
        ref = [ref_opt.optimize(w) for w in (w0, w1)]
        fast = _make_optimizer(
            tiny_training,
            cache=DecisionCache(),
            repository=trainer.build_repository(),
        ).optimize_many([w0, w1])
        assert [f.n_unprofiled for f in fast] == [1, 0]
        for r, f in zip(ref, fast):
            assert schedule_fingerprint(f.schedule) == schedule_fingerprint(
                r.schedule
            )

    def test_batch_validation(self, tiny_training):
        opt = _make_optimizer(tiny_training)
        assert opt.optimize_many([]) == []
        with pytest.raises(SchedulingError):
            opt.optimize_many([[]])
        too_big = _training_windows(opt.window_size, 1)[0] * 2
        with pytest.raises(SchedulingError):
            opt.optimize_many([too_big])


class TestAmortizedAccounting:
    def test_followers_charge_lookup_and_replay_only(self, tiny_training):
        window = _training_windows(tiny_training[0].window_size, 1)[0]
        clock = CountingClock(step=1.0)
        opt = _make_optimizer(
            tiny_training, cache=DecisionCache(), clock=clock
        )
        batch = [
            window,
            _permuted_copy(window, seed=1),
            _permuted_copy(window, seed=2),
        ]
        leader, f1, f2 = opt.optimize_many(batch)
        # follower cost: one timed signature lookup + one timed replay
        # (2 ticks of the counting clock each) — not a share of the
        # leader's episode, and NOT zero
        assert f1.cached and f2.cached
        assert f1.decision_seconds == pytest.approx(2.0)
        assert f2.decision_seconds == pytest.approx(2.0)
        assert not leader.cached
        assert leader.decision_seconds > f1.decision_seconds

    def test_batch_latency_amortized_per_window(self, tiny_training):
        # two identical-content windows, no cache: both run the lockstep
        # episode and must be charged the same amount — attributing a
        # whole batched forward to the first window would break this
        window = _training_windows(tiny_training[0].window_size, 1)[0]
        clock = CountingClock(step=1.0)
        opt = _make_optimizer(tiny_training, cache=None, clock=clock)
        d0, d1 = opt.optimize_many([window, _permuted_copy(window, seed=4)])
        assert not d0.cached and not d1.cached
        assert d0.decision_seconds == pytest.approx(d1.decision_seconds)
        # each window carries fractional forward shares, not whole ticks
        assert d0.decision_seconds != int(d0.decision_seconds)


class TestBatchedInference:
    @pytest.mark.parametrize("dueling", [True, False])
    @pytest.mark.parametrize("double", [True, False])
    def test_q_values_many_bitwise(self, dueling, double):
        cfg = DQNConfig(
            n_inputs=20,
            n_actions=11,
            hidden=(32, 16),
            seed=4,
            use_dueling=dueling,
            use_double=double,
        )
        agent = DuelingDoubleDQNAgent(cfg)
        agent.freeze()
        rng = np.random.default_rng(0)
        for b in (1, 3, 7, 16):  # includes single-row and ragged sizes
            states = rng.normal(size=(b, cfg.n_inputs))
            qs = agent.q_values_many(states)
            assert qs.shape == (b, cfg.n_actions)
            for i in range(b):
                assert np.array_equal(qs[i], agent.q_values(states[i]))

    @pytest.mark.parametrize("dueling", [True, False])
    @pytest.mark.parametrize("double", [True, False])
    def test_act_many_matches_act_greedy(self, dueling, double):
        cfg = DQNConfig(
            n_inputs=14,
            n_actions=9,
            hidden=(24, 12),
            seed=11,
            use_dueling=dueling,
            use_double=double,
        )
        agent = DuelingDoubleDQNAgent(cfg)
        agent.freeze()
        rng = np.random.default_rng(2)
        for b in (1, 5, 12):
            states = rng.normal(size=(b, cfg.n_inputs))
            masks = rng.random((b, cfg.n_actions)) < 0.6
            masks[np.arange(b), rng.integers(0, cfg.n_actions, b)] = True
            batch_actions = agent.act_many(states, masks)
            singles = [
                agent.act(states[i], masks[i]) for i in range(b)
            ]
            assert batch_actions.tolist() == singles


class TestEnvDecisionMemo:
    def test_memo_transfers_across_envs_and_permutations(self, tiny_training):
        trainer, result = tiny_training
        window = _training_windows(trainer.window_size, 1, seed=41)[0]
        memo = CoRunCache(maxsize=1024)

        def drain(win):
            env = CoSchedulingEnv(
                windows=[win],
                repository=result.repository,
                catalog=trainer.catalog,
                window_size=trainer.window_size,
                reward_config=trainer.reward_config,
                shuffle_windows=False,
                decision_memo=memo,
            )
            obs, info = env.reset(options={"window_index": 0})
            done = False
            while not done:
                action = int(np.flatnonzero(info["action_mask"])[0])
                obs, _, term, trunc, info = env.step(action)
                done = term or trunc
            return info["schedule"]

        s1 = drain(window)
        before = memo.stats
        s2 = drain(_permuted_copy(window, seed=8))
        delta = memo.stats.delta(before)
        # a permuted window of fresh job objects replays the memoized
        # decisions: content-keyed, order-invariant, object-independent
        assert delta.hits > 0
        assert delta.misses == 0
        assert _content_fingerprint(s2) == _content_fingerprint(s1)


class TestPolicyBatch:
    def test_fcfs_schedule_many(self):
        windows = _training_windows(4, 2)
        scheds = FcfsPolicy().schedule_many(windows)
        assert len(scheds) == 2
        assert all(
            g.concurrency == 1 for s in scheds for g in s.groups
        )

    def test_co_scheduling_schedule_many_bitwise(self, tiny_training):
        windows = _training_windows(tiny_training[0].window_size, 2, seed=17)
        ref_policy = CoSchedulingPolicy(_make_optimizer(tiny_training))
        fast_policy = CoSchedulingPolicy(
            _make_optimizer(tiny_training, cache=DecisionCache())
        )
        ref = [ref_policy.schedule(w) for w in windows]
        fast = fast_policy.schedule_many(windows)
        for r, f in zip(ref, fast):
            assert schedule_fingerprint(f) == schedule_fingerprint(r)

    def test_schedule_batch_falls_back_per_window(self):
        class Boom:
            name = "boom"

            def schedule(self, window):
                raise SchedulingError("boom")

            def schedule_many(self, windows):
                raise SchedulingError("boom")

        sel = PolicySelector(
            co_scheduling=Boom(), fcfs=FcfsPolicy(), crowding_threshold=1
        )
        windows = _training_windows(4, 2)
        results = sel.schedule_batch(
            [(windows[0], sel.co_scheduling), (windows[1], sel.fcfs)]
        )
        assert len(results) == 2
        (s0, fell0), (s1, fell1) = results
        assert fell0 and not fell1
        assert all(g.concurrency == 1 for g in s0.groups)
        assert all(g.concurrency == 1 for g in s1.groups)


class TestClusterBatchedDispatch:
    def _selector(self, tiny_training, cache):
        opt = _make_optimizer(tiny_training, cache=cache)
        return PolicySelector(
            co_scheduling=CoSchedulingPolicy(opt),
            fcfs=FcfsPolicy(),
            crowding_threshold=1,  # always co-schedule
        )

    def test_scheduler_batches_across_ready_nodes(self, tiny_training):
        trainer, _ = tiny_training
        w = trainer.window_size
        cache = DecisionCache()
        engine = FleetEngine(
            ClusterState.homogeneous(3),
            self._selector(tiny_training, cache),
            window_size=w,
            keep_history=True,
        )
        names = []
        for win in _training_windows(w, 6, seed=23):
            names.extend(j.benchmark_name for j in win)
        engine.submit_queue(JobQueue.from_benchmarks(names))
        result = engine.run()
        records = result.history
        assert len(records) == 6
        assert sum(r.window_size for r in records) == 6 * w
        assert {r.node_name for r in records} == {"gpu00", "gpu01", "gpu02"}
        # the first round dispatched one window per free node, through
        # one batched serving pass: the decision cache saw every window
        assert cache.stats.lookups >= 6
        assert result.stats.windows == 6

    def test_batch_system_batched_tick(self, tiny_training):
        trainer, _ = tiny_training
        w = trainer.window_size
        bs = BatchSystem(
            cluster=ClusterState.homogeneous(2),
            selector=self._selector(tiny_training, DecisionCache()),
            window_size=w,
            min_batch=1,
        )
        submitted = []
        for win in _training_windows(w, 4, seed=29):
            for job in win:
                submitted.append(bs.sbatch(job.benchmark_name))
        bs.drain()
        assert len(bs.history) == 4
        assert {r.node_name for r in bs.history} == {"gpu00", "gpu01"}
        states = {jid: r.state for jid, r in bs._records.items()}
        assert all(
            states[jid] is JobState.COMPLETED for jid in submitted
        )
        acct = bs.sacct()
        assert acct["completed"] == len(submitted)
        assert acct["failed"] == 0


class TestServingGate:
    BASE = {
        "serving": {
            "decisions_per_sec_batched": 1000.0,
            "speedup": 20.0,
            "p99_decision_latency_s": 5e-4,
            "identical_schedules": True,
        }
    }

    @staticmethod
    def _variant(**overrides):
        doc = {"serving": dict(TestServingGate.BASE["serving"])}
        doc["serving"].update(overrides)
        return doc

    @classmethod
    def regressed(cls, candidate, tolerance=0.5) -> list[str]:
        checks = gate.compare("serving", cls.BASE, candidate, tolerance)
        return [c.key for c in checks if c.regressed]

    def test_passes_on_equal_docs(self):
        assert self.regressed(self.BASE, gate.LOCAL_BOUNDS[0]) == []

    def test_latency_is_lower_is_better(self):
        slower = self._variant(p99_decision_latency_s=5e-3)
        assert self.regressed(slower) == ["serving.p99_decision_latency_s"]
        faster = self._variant(p99_decision_latency_s=5e-5)
        assert self.regressed(faster) == []

    def test_throughput_drop_regresses(self):
        worse = self._variant(decisions_per_sec_batched=100.0, speedup=2.0)
        assert self.regressed(worse) == [
            "serving.decisions_per_sec_batched",
            "serving.speedup",
        ]

    def test_identity_loss_regresses(self):
        broken = self._variant(identical_schedules=False)
        assert self.regressed(broken) == ["serving.identical_schedules"]

"""The env's one binder and the decisions built on it.

* **differential** — ``optimize_many`` (rerank and step on the window
  tables, bindings memoized) returns schedules bitwise-identical to the
  serial ``optimize()`` under ``corun_cache_disabled()`` (reference
  ``_bind`` + predictor), for random windows over all 27 programs, every
  window size and several ``rerank_top_k``; the same holds for the
  power-capped optimizer, fallback count included;
* **binding-memo key** — envs in different binding modes share one
  ``window_context_cache`` and still get their own reference bindings at
  every availability;
* **policy digest** — two agents sharing one repository and one
  ``DecisionCache`` are never served each other's plans.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.env import CoSchedulingEnv
from repro.core.features import FeatureExtractor
from repro.core.optimizer import OnlineOptimizer
from repro.core.rewards import RewardConfig
from repro.core.serving import DecisionCache, schedule_fingerprint
from repro.gpu.partition import format_partition
from repro.perfmodel.cache import corun_cache_disabled
from repro.power.capping import PowerCappedOptimizer
from repro.rl.dqn import DQNConfig, DuelingDoubleDQNAgent
from repro.workloads.generator import QueueGenerator
from repro.workloads.jobs import Job
from repro.workloads.suite import BENCHMARKS

pytestmark = pytest.mark.serving

WINDOW = 6
PROGRAMS = sorted(BENCHMARKS)

_AGENTS: dict[int, DuelingDoubleDQNAgent] = {}


def _agent(seed: int) -> DuelingDoubleDQNAgent:
    """An untrained (random-weight) agent: its Q ranking is arbitrary,
    which is what a differential test of the rerank wants."""
    agent = _AGENTS.get(seed)
    if agent is None:
        agent = DuelingDoubleDQNAgent(
            DQNConfig(
                n_inputs=FeatureExtractor(WINDOW).n_inputs,
                hidden=(32, 16),
                seed=seed,
            )
        )
        _AGENTS[seed] = agent
    return agent


def _groups(schedule) -> list[tuple]:
    return [
        (
            tuple(j.job_id for j in g.jobs),
            format_partition(g.partition),
            repr(g.corun_time),
        )
        for g in schedule.groups
    ]


windows_st = st.lists(
    st.lists(st.sampled_from(PROGRAMS), min_size=2, max_size=WINDOW),
    min_size=1,
    max_size=3,
)


class TestRerankDifferential:
    @settings(deadline=None, max_examples=25)
    @given(
        names=windows_st,
        top_k=st.sampled_from([1, 3, 5]),
        seed=st.integers(0, 3),
    )
    def test_optimize_many_matches_reference(
        self, full_repository, catalog, names, top_k, seed
    ):
        windows = [[Job.submit(n) for n in w] for w in names]

        def make():
            return OnlineOptimizer(
                _agent(seed), full_repository, catalog, WINDOW,
                rerank_top_k=top_k,
            )

        fast = make().optimize_many(windows)
        with corun_cache_disabled():
            ref = [make().optimize(w) for w in windows]
        for f, r in zip(fast, ref):
            assert _groups(f.schedule) == _groups(r.schedule)

    @settings(deadline=None, max_examples=20)
    @given(
        names=windows_st,
        top_k=st.sampled_from([1, 3, 5]),
        seed=st.integers(0, 3),
        cap=st.sampled_from([60.0, 140.0, 180.0, 1000.0]),
    )
    def test_power_capped_matches_reference(
        self, full_repository, catalog, names, top_k, seed, cap
    ):
        windows = [[Job.submit(n) for n in w] for w in names]

        def make():
            return PowerCappedOptimizer(
                _agent(seed), full_repository, catalog, WINDOW,
                rerank_top_k=top_k, power_cap_watts=cap,
            )

        fast_opt = make()
        fast = fast_opt.optimize_many(windows)
        ref_opt = make()
        with corun_cache_disabled():
            ref = [ref_opt.optimize(w) for w in windows]
        for f, r in zip(fast, ref):
            assert _groups(f.schedule) == _groups(r.schedule)
        assert (
            fast_opt.cap_violation_fallbacks == ref_opt.cap_violation_fallbacks
        )

    def test_capped_batched_path_applies_the_cap(
        self, full_repository, catalog
    ):
        # a cap just above idle admits no co-run template: every decision
        # on the batched path must fall back, as on the serial path
        opt = PowerCappedOptimizer(
            _agent(0), full_repository, catalog, WINDOW, power_cap_watts=60.0,
        )
        window = [Job.submit(n) for n in PROGRAMS[:WINDOW]]
        opt.optimize_many([window])
        assert opt.cap_violation_fallbacks > 0


def _bindings(env: CoSchedulingEnv) -> list[dict[int, tuple[int, ...]]]:
    """Every valid template's binding at each state of one drain (the
    drain always steps the highest valid action)."""
    _, info = env.reset(options={"window_index": 0})
    states = []
    for _ in range(WINDOW):  # every step binds >= 2 jobs
        valid = [int(a) for a in np.flatnonzero(info["action_mask"])]
        states.append({a: env.bind(a) for a in valid})
        _, _, terminated, _, info = env.step(valid[-1])
        if terminated:
            return states
    raise AssertionError("the drain did not terminate")


class TestBindingMemoKey:
    def test_modes_sharing_one_context_cache(self, full_repository, catalog):
        names = ["stream", "kmeans", "lud_B", "qs_Coral_P1", "lavaMD",
                 "hotspot3D"]
        window = [Job.submit(n) for n in names]

        def env(binding, cache=None):
            return CoSchedulingEnv(
                windows=[window],
                repository=full_repository,
                catalog=catalog,
                window_size=WINDOW,
                shuffle_windows=False,
                binding=binding,
                window_context_cache=cache,
            )

        with corun_cache_disabled():
            ref_auto = _bindings(env("auto"))
            ref_opt = _bindings(env("optimal"))
        # non-vacuous: the two modes disagree somewhere, and a template
        # binds differently as the availability changes
        assert ref_auto != ref_opt
        assert ref_auto[0][0] != ref_auto[1][0]

        shared: dict = {}
        assert _bindings(env("auto", shared)) == ref_auto
        assert _bindings(env("optimal", shared)) == ref_opt
        assert _bindings(env("auto", shared)) == ref_auto
        assert len(shared) == 1  # one window context served both modes


class TestPolicyDigest:
    def test_agents_sharing_a_cache_get_their_own_plans(
        self, full_repository, catalog
    ):
        gen = QueueGenerator(seed=5, training_only=False)
        windows = [q.window(WINDOW) for q in gen.training_queues(n=40, w=WINDOW)]
        cache = DecisionCache()

        def make(seed, decision_cache=None):
            return OnlineOptimizer(
                _agent(seed), full_repository, catalog, WINDOW,
                decision_cache=decision_cache,
            )

        served_a = make(1, cache).optimize_many(windows)
        served_b = make(2, cache).optimize_many(windows)
        own_b = [make(2).optimize(w) for w in windows]
        fp = [schedule_fingerprint(d.schedule) for d in served_b]
        assert fp == [schedule_fingerprint(d.schedule) for d in own_b]
        # non-vacuous: the two policies disagree on some windows, so a
        # key blind to the weights would have served B wrong plans
        assert fp != [schedule_fingerprint(d.schedule) for d in served_a]

    def test_digest_covers_weights_and_config(self, full_repository, catalog):
        def sig(agent, **kwargs):
            return OnlineOptimizer(
                agent, full_repository, catalog, WINDOW, **kwargs
            )._policy_sig

        assert sig(_agent(1)) == sig(_agent(1))
        assert sig(_agent(1)) != sig(_agent(2))
        assert sig(_agent(1)) != sig(
            _agent(1), reward_config=RewardConfig(fairness_weight=0.5)
        )
        capped = PowerCappedOptimizer(
            _agent(1), full_repository, catalog, WINDOW, power_cap_watts=200.0
        )
        assert capped._policy_sig != sig(_agent(1))

"""The in-tree LSAP solver against scipy's ``linear_sum_assignment``.

:func:`repro.core.assignment.optimal_slot_binding` (and through it
:func:`~repro.core.assignment.assign_optimal`) must return scipy's
exact binding — not just an optimum of equal total — because every
binding the environment makes, and so every training digest, goes
through it. Tied optima are common in real binder inputs (identical
slot shapes duplicate columns, repeated programs duplicate rows), so
the draws here are tie-heavy on purpose: small-integer entries and
duplicated rows and columns. A ``(job, slot)`` reward matrix always has
at least as many jobs as slots, so the shapes are square (solved with
jobs as the rows) and tall (solved transposed, slots as the rows).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import (
    assign_optimal,
    optimal_slot_binding,
    reward_matrix,
)
from repro.core.rewards import WindowStats
from repro.errors import ProfileError, SchedulingError
from repro.profiling.repository import ProfileRepository
from repro.workloads.jobs import Job
from repro.workloads.suite import BENCHMARKS
from tests.oracles.lsap import scipy_slot_binding

pytestmark = pytest.mark.serving


@st.composite
def rewards(draw) -> np.ndarray:
    """A square or tall ``(job, slot)`` matrix up to 12x4, with entries
    drawn to tie: small integers, a few repeated floats, or rows/columns
    duplicated from a smaller base."""
    nc = draw(st.integers(1, 4))
    nr = draw(st.sampled_from([nc, draw(st.integers(nc, 12))]))
    kind = draw(st.sampled_from(["ints", "floats", "dup_rows", "dup_cols"]))
    if kind == "ints":
        elems = st.integers(-2, 2).map(float)
    elif kind == "floats":
        elems = st.floats(-1e3, 1e3, allow_nan=False)
    else:
        pool = st.floats(-5.0, 5.0, allow_nan=False)
        elems = st.sampled_from(draw(st.lists(pool, min_size=1, max_size=4)))
    if kind == "dup_rows":
        base_rows = draw(st.integers(1, nr))
        base = [draw(st.lists(elems, min_size=nc, max_size=nc)) for _ in range(base_rows)]
        picks = draw(st.lists(st.integers(0, base_rows - 1), min_size=nr, max_size=nr))
        return np.array([base[p] for p in picks], dtype=float)
    if kind == "dup_cols":
        base_cols = draw(st.integers(1, nc))
        base = [draw(st.lists(elems, min_size=nr, max_size=nr)) for _ in range(base_cols)]
        picks = draw(st.lists(st.integers(0, base_cols - 1), min_size=nc, max_size=nc))
        return np.array([base[p] for p in picks], dtype=float).T
    rows = [draw(st.lists(elems, min_size=nc, max_size=nc)) for _ in range(nr)]
    return np.array(rows, dtype=float)


class TestSlotBinding:
    @settings(deadline=None, max_examples=400)
    @given(reward=rewards())
    def test_whole_window_matches_scipy(self, reward):
        binding = optimal_slot_binding(
            (-reward.T).tolist(), list(range(reward.shape[0]))
        )
        assert binding == scipy_slot_binding(reward)

    @settings(deadline=None, max_examples=200)
    @given(reward=rewards(), data=st.data())
    def test_candidate_subset_matches_scipy(self, reward, data):
        """Negated per-slot rows over a whole window, solved for an
        ascending subset of its jobs (the window tables' call)."""
        n_jobs, n_slots = reward.shape
        candidates = sorted(
            data.draw(
                st.sets(
                    st.integers(0, n_jobs - 1),
                    min_size=n_slots,
                    max_size=n_jobs,
                )
            )
        )
        binding = optimal_slot_binding((-reward.T).tolist(), candidates)
        assert binding == scipy_slot_binding(reward[candidates, :])

    def test_constant_matrix_is_the_identity(self):
        assert optimal_slot_binding([[-1.0] * 3] * 3, [0, 1, 2]) == [0, 1, 2]


def test_assign_optimal_is_scipy_on_real_windows(full_repository, catalog):
    """Every template, windows of repeated and distinct programs: the
    binding equals scipy's on the same reward matrix."""
    names = sorted(BENCHMARKS)
    windows = [
        names[:6],
        names[3:7],
        ["stream"] * 3 + ["lavaMD"] * 3,
        ["kmeans", "kmeans", "hotspot3D", "hotspot3D"],
    ]
    for window in windows:
        profiles = [full_repository.lookup(Job.submit(n)) for n in window]
        stats = WindowStats.from_profiles(profiles)
        for action in range(catalog.n_actions):
            tree = catalog.variant(action).tree
            slots = tree.slots()
            if len(slots) > len(profiles):
                continue
            expected = scipy_slot_binding(reward_matrix(profiles, slots, stats))
            assert assign_optimal(tree, profiles, stats) == expected


def test_assign_optimal_rejects_a_non_finite_reward(full_repository, catalog):
    """scipy raised a bare ``ValueError`` here; the binder raises one
    line of ``SchedulingError``."""
    profiles = [full_repository.lookup(Job.submit(n)) for n in ("stream", "kmeans")]
    stats = WindowStats(
        mean_compute_pct=50.0, mean_memory_pct=50.0, mean_solo_time=float("nan")
    )
    tree = catalog.variant(catalog.actions_with_concurrency(2)[0]).tree
    with pytest.raises(SchedulingError) as err:
        assign_optimal(tree, profiles, stats)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("field", ["solo_time", "one_gpc_time"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_repository_rejects_a_non_finite_time(full_repository, tmp_path, field, bad):
    """A repository file may carry a NaN or infinite time (Python's JSON
    reads and writes both); loading it fails instead of making every
    ``r_i`` of a window non-finite."""
    path = tmp_path / "profiles.json"
    full_repository.save(path)
    payload = json.loads(path.read_text())
    for profile in payload.values():
        if profile["benchmark_name"] == "stream":
            profile[field] = bad
    path.write_text(json.dumps(payload))
    with pytest.raises(ProfileError, match=f"stream: {field} must be finite"):
        ProfileRepository.load(path)

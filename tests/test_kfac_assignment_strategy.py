"""Tests for the greedy factor assignment (section 3.2) and the work placement of section 3.1."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kfac import (
    InverseSolveStrategy,
    KFACConfig,
    LayerShapeInfo,
    assign_workers,
    greedy_lpt_assignment,
    makespan,
    round_robin_assignment,
)
from repro.kfac.assignment import staggered_refresh_offsets
from repro.kfac.strategy import num_grad_workers


def layer(name, a_dim, g_dim):
    return LayerShapeInfo.dense(name, a_dim, g_dim)


LAYERS = [layer("l0", 64, 32), layer("l1", 128, 64), layer("l2", 32, 16), layer("l3", 256, 128), layer("l4", 16, 8)]


def make_plan(layers, world, frac, balance="compute", factor_update_freq=1, inv_update_freq=1):
    """The plan a config with these knobs builds; the cadences are explicit (the config defaults to 10 / 100)."""
    config = KFACConfig(
        grad_worker_frac=frac,
        assignment_balance=balance,
        factor_update_freq=factor_update_freq,
        inv_update_freq=inv_update_freq,
    )
    return config.distribution_plan(layers, world)


class TestGreedyLPT:
    def test_all_jobs_assigned(self):
        costs = {f"job{i}": float(i + 1) for i in range(7)}
        result = greedy_lpt_assignment(costs, 3)
        assert set(result.assignment) == set(costs)
        assert all(0 <= worker < 3 for worker in result.assignment.values())

    def test_single_worker_gets_everything(self):
        costs = {"a": 2.0, "b": 5.0}
        result = greedy_lpt_assignment(costs, 1)
        assert result.makespan == pytest.approx(7.0)

    def test_largest_job_lower_bound(self):
        costs = {"big": 100.0, "s1": 1.0, "s2": 1.0}
        result = greedy_lpt_assignment(costs, 2)
        assert result.makespan == pytest.approx(100.0)

    def test_balanced_jobs_spread_evenly(self):
        costs = {f"j{i}": 1.0 for i in range(8)}
        result = greedy_lpt_assignment(costs, 4)
        assert result.makespan == pytest.approx(2.0)

    def test_deterministic_across_calls(self):
        costs = {f"j{i}": float((i * 7) % 5 + 1) for i in range(20)}
        a = greedy_lpt_assignment(costs, 4).assignment
        b = greedy_lpt_assignment(costs, 4).assignment
        assert a == b

    def test_better_or_equal_to_round_robin_on_skewed_input(self):
        costs = {f"j{i}": float(2 ** (i % 6)) for i in range(24)}
        lpt = greedy_lpt_assignment(costs, 6).makespan
        rr = round_robin_assignment(costs, 6).makespan
        assert lpt <= rr

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            greedy_lpt_assignment({"a": 1.0}, 0)

    def test_jobs_for_worker(self):
        costs = {"a": 5.0, "b": 1.0}
        result = greedy_lpt_assignment(costs, 2)
        assert result.jobs_for(result.assignment["a"]) == ["a"]

    @given(
        st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=30),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_lpt_within_theoretical_bound(self, costs_list, workers):
        """Graham's list-scheduling bound: makespan <= total/m + (1 - 1/m) * largest.

        (LPT's sharper 4/3 - 1/(3m) guarantee is relative to the true optimum,
        which can exceed the cheap lower bound max(largest, total/m) — e.g. five
        unit jobs on four workers — so only the list-scheduling bound is
        checkable without solving the NP-hard scheduling problem.)"""
        costs = {f"j{i}": c for i, c in enumerate(costs_list)}
        result = greedy_lpt_assignment(costs, workers)
        largest = max(costs_list)
        bound = sum(costs_list) / workers + (1.0 - 1.0 / workers) * largest
        assert result.makespan <= bound + 1e-9

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_loads_sum_to_total_cost(self, workers, jobs):
        costs = {f"j{i}": float(i % 4 + 1) for i in range(jobs)}
        result = greedy_lpt_assignment(costs, workers)
        assert sum(result.loads) == pytest.approx(sum(costs.values()))
        assert makespan(costs, result.assignment, workers) == pytest.approx(result.makespan)


def workload_shapes(name):
    """Every layer K-FAC registers for a ``repro.experiments`` workload (tiny BERT, CIFAR ResNet-20)."""
    from repro.experiments import build_workload
    from repro.experiments.model_shapes import collect_layer_shapes

    built = build_workload(name, seed=0)
    return collect_layer_shapes(built.model, skip_modules=built.kfac_skip_modules)


class TestStaggeredRefreshOffsets:
    """The packing rule of README "Scheduling": the plan's ``refresh_offsets``."""

    COSTS = {layer.name: layer.eigen_cost for layer in LAYERS}

    @pytest.mark.parametrize(
        "cadence",
        [(1, 1), (1, 2), (1, 10), (2, 4), (2, 8), (3, 6), (3, 10), (4, 10), (3, 3), (4, 4), (10, 5)],
        ids=lambda cadence: "{}-{}".format(*cadence),
    )
    def test_degenerate_cadences_keep_one_refresh_step(self, cadence):
        """An interval of 1, not a multiple of the fold cadence, or with no fold-free step left under
        'fewer than half the steps carry work': every offset is 0."""
        for world in (1, 2, 4):
            assert set(staggered_refresh_offsets(self.COSTS, world, *cadence).values()) == {0}

    def test_slots_are_fold_free_steps_nearest_after_a_fold_first(self):
        costs = {f"l{i}": 1.0 for i in range(8)}
        assert sorted(set(staggered_refresh_offsets(costs, 1, 5, 10).values())) == [1, 6]
        assert sorted(set(staggered_refresh_offsets(costs, 1, 4, 8).values())) == [1]
        assert sorted(set(staggered_refresh_offsets(costs, 1, 5, 5).values())) == [1]
        assert sorted(set(staggered_refresh_offsets(costs, 1, 5, 20).values())) == [1, 6, 11, 16]
        ten = {f"l{i}": 1.0 for i in range(10)}  # a fifth step lowers the heaviest from 3 to 2: second after a fold
        assert sorted(set(staggered_refresh_offsets(ten, 1, 5, 20).values())) == [1, 2, 6, 11, 16]
        assert sorted(set(staggered_refresh_offsets(costs, 1, 10, 100).values())) == [1, 11, 21, 31, 41, 51, 61, 71]
        # Groups of world_size: eight equal layers at world 4 are two groups, so two steps.
        assert sorted(set(staggered_refresh_offsets(costs, 4, 10, 100).values())) == [1, 11]

    def test_fewest_steps_that_minimise_the_heaviest_one(self):
        # One job as heavy as the rest together: a third step could not lower the heaviest.
        costs = {"big": 8.0, **{f"s{i}": 1.0 for i in range(8)}}
        offsets = staggered_refresh_offsets(costs, 1, 10, 100)
        assert sorted(set(offsets.values())) == [1, 11]
        assert [job for job, offset in offsets.items() if offset == offsets["big"]] == ["big"]

    def test_neighbours_in_cost_share_a_step(self):
        """Groups are ``world_size`` consecutive layers of the cost order: where they cost alike (a
        network's repeated blocks) LPT put them on different ranks, so a step's solves run side by side."""
        layers = [layer("a", 128, 64), layer("b", 128, 64), layer("c", 64, 32), layer("d", 64, 32), layer("e", 16, 8)]
        offsets = staggered_refresh_offsets({entry.name: entry.eigen_cost for entry in layers}, 2, 5, 10)
        assert offsets["a"] == offsets["b"] and offsets["c"] == offsets["d"]
        groups = assign_workers(layers, 2, 0.5)
        for first, second in ("ab", "cd"):
            assert groups[first].eigen_worker_a != groups[second].eigen_worker_a

    @pytest.mark.parametrize("world", [1, 2, 4])
    @pytest.mark.parametrize("workload", ["bert", "cifar_resnet"])
    def test_workload_intervals(self, workload, world):
        """Tiny BERT and ResNet-20 at cadence 5 / 10: every layer once per interval, fewer than half the
        steps touched, the heaviest step within the LPT bound, the same offsets whatever the placement."""
        shapes = workload_shapes(workload)
        costs = {shape.name: shape.eigen_cost for shape in shapes}
        plans = [
            make_plan(shapes, world, frac, balance, factor_update_freq=5, inv_update_freq=10)
            for frac in sorted({1.0 / world, min(1.0, 2.0 / world), 1.0})
            for balance in ("compute", "memory")
        ]
        offsets = plans[0].refresh_offsets
        assert all(plan.refresh_offsets == offsets for plan in plans)
        assert offsets == staggered_refresh_offsets(costs, world, 5, 10)
        assert len({plan.digest() for plan in plans}) == len({(plan.scheme, str(plan.groups)) for plan in plans})

        actions = [plans[0].actions(step) for step in range(10, 20)]
        interval = [step_actions.refresh for step_actions in actions]
        assert sorted(name for due in interval for name in due) == sorted(costs)  # each layer exactly once
        assert [step for step, step_actions in enumerate(actions) if step_actions.fold] == [0, 5]
        touched = {step for step, step_actions in enumerate(actions) if step_actions.fold or step_actions.refresh}
        assert touched == {0, 1, 5, 6} and len(touched) < 10 / 2
        loads = [sum(costs[name] for name in due) for due in interval if due]
        ordered = sorted(costs.values(), reverse=True)
        largest_group = sum(ordered[:world])
        assert max(loads) <= sum(ordered) / len(loads) + largest_group
        if world < 4:  # at world 4 BERT's four big layers are one group: one step carries them all
            assert max(loads) <= 0.6 * sum(ordered)

    def test_offsets_are_part_of_the_digest(self):
        staggered = make_plan(LAYERS, 2, 0.5, factor_update_freq=5, inv_update_freq=10)
        one_step = make_plan(LAYERS, 2, 0.5, factor_update_freq=2, inv_update_freq=4)
        assert set(one_step.refresh_offsets.values()) == {0} != set(staggered.refresh_offsets.values())
        assert staggered.digest() != one_step.digest()
        assert staggered.digest() == make_plan(LAYERS, 2, 0.5, factor_update_freq=5, inv_update_freq=10).digest()

    def test_a_full_update_prices_one_eigen_round_per_touched_step(self):
        """``messages()`` buckets the eigen round per step: same bytes as one refresh step, more messages."""
        staggered = make_plan(LAYERS, 2, 1.0, factor_update_freq=5, inv_update_freq=10)
        one_step = make_plan(LAYERS, 2, 1.0, factor_update_freq=2, inv_update_freq=4)
        spread, single = staggered.messages()["eigen"], one_step.messages()["eigen"]
        assert sum(nbytes for _, nbytes in spread) == sum(nbytes for _, nbytes in single)
        assert len(single) == 2 < len(spread) <= 4  # one fused bucket per source rank, per touched step
        assert staggered.messages(step=0) == one_step.messages(step=0)  # step 0 decomposes everything at once
        per_step = [staggered.messages(step=step) for step in range(10, 20)]
        assert [m for messages in per_step for m in messages["eigen"]] == spread
        assert [bool(messages["factor"]) for messages in per_step] == [step % 5 == 0 for step in range(10, 20)]
        assert staggered.messages(step=1)["eigen"] == []  # nothing folded since step 0: passed over

    def test_actions_hand_over_the_rounds_of_their_layers(self):
        """A step's actions carry the factor round of ``fold`` (in reverse layer order, the order backward
        produces it), the eigen round of ``refresh`` and every gradient round (in registration order); a
        revision of either tuple takes its rounds along."""
        import dataclasses

        plan = make_plan(LAYERS, 4, 0.5, factor_update_freq=5, inv_update_freq=10)
        names = list(plan.groups)
        for step in range(25):
            actions = plan.actions(step)
            assert actions.fold == (tuple(names) if step % 5 == 0 else ())
            assert actions.factor_round() == tuple(
                spec for name in reversed(actions.fold) for spec in plan.factor_round[name]
            )
            assert actions.eigen_round == tuple(spec for name in actions.refresh for spec in plan.eigen_round[name])
            assert actions.gradient_round == tuple(spec for name in names for spec in plan.gradient_round[name])
        revised = dataclasses.replace(plan.actions(3), refresh=(names[1],))
        assert revised.eigen_round == plan.eigen_round[names[1]] and revised.fold == ()
        # Every layer decomposed on step 0, then once in each of the two intervals after it.
        assert sum(len(plan.actions(step).refresh) for step in range(25)) == len(names) * 3


class TestDistributionStrategy:
    """Placement of MEM-OPT, HYBRID-OPT and COMM-OPT (section 3.1): ``assign_workers`` and the plans built on it."""

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            assign_workers(LAYERS, 0, 1.0)
        with pytest.raises(ValueError):
            make_plan(LAYERS, 0, 1.0)
        with pytest.raises(ValueError):
            make_plan(LAYERS, 4, 0.0)
        with pytest.raises(ValueError):
            make_plan(LAYERS, 4, 1.5)
        with pytest.raises(ValueError):
            make_plan(LAYERS, 4, 0.5, balance="latency")

    def test_strategy_names(self):
        assert make_plan(LAYERS, 8, 1 / 8).scheme == "MEM-OPT"
        assert make_plan(LAYERS, 8, 1.0).scheme == "COMM-OPT"
        assert make_plan(LAYERS, 8, 0.5).scheme == "HYBRID-OPT"
        assert make_plan(LAYERS, 1, 1.0).scheme == "COMM-OPT"

    def test_num_grad_workers_formula(self):
        assert num_grad_workers(64, 1 / 64) == 1
        assert num_grad_workers(64, 0.5) == 32
        assert num_grad_workers(64, 1.0) == 64
        assert num_grad_workers(1, 1.0) == 1
        assert num_grad_workers(8, 0.01) == 1  # never fewer than one
        # HYBRID-OPT's blocks are num_grad_workers ranks wide.
        for group in assign_workers(LAYERS, 8, 0.5).values():
            assert len(group.grad_workers) == num_grad_workers(8, 0.5)

    def test_mem_opt_single_grad_worker_per_layer(self):
        groups = assign_workers(LAYERS, 8, 1 / 8)
        for group in groups.values():
            assert len(group.grad_workers) == 1
            assert group.eigen_worker_a == group.eigen_worker_g
            assert group.grad_workers == (group.eigen_worker_a,)
            receivers = group.receivers_of(group.grad_workers[0])
            assert len(receivers) == 7

    def test_comm_opt_every_rank_is_grad_worker(self):
        groups = assign_workers(LAYERS, 8, 1.0)
        for group in groups.values():
            assert group.grad_workers == tuple(range(8))
            assert group.receiver_map == {}

    def test_comm_opt_distributes_a_and_g_separately(self):
        groups = assign_workers(LAYERS, 16, 1.0)
        placements = set()
        for group in groups.values():
            placements.add(group.eigen_worker_a)
            placements.add(group.eigen_worker_g)
        assert len(placements) > 1  # factors spread across more than one rank

    @pytest.mark.parametrize("world", [2, 3, 4, 16])
    def test_comm_opt_pairs_an_inverted_layers_factors_and_moves_nothing_else(self, world):
        """A damped inverse reads both traces: where LPT split an inverted layer, the cheaper factor follows."""
        unpaired = assign_workers(LAYERS, world, 1.0)
        split = [name for name, group in unpaired.items() if group.eigen_worker_a != group.eigen_worker_g]
        assert split  # the per-factor LPT splits layers at every one of these worlds
        paired = assign_workers(LAYERS, world, 1.0, paired=[layer.name for layer in LAYERS])
        for info in LAYERS:
            before, after = unpaired[info.name], paired[info.name]
            assert after.eigen_worker_a == after.eigen_worker_g
            leader = before.eigen_worker_a if info.a_repr.eigen_flops() >= info.g_repr.eigen_flops() else before.eigen_worker_g
            assert after.eigen_worker_a == leader
        # The default solve path pairs every layer, and the plan builder holds it to that.
        plan = make_plan(LAYERS, world, 1.0)
        for group in plan.groups.values():
            assert group.decomposer("a") == group.decomposer("g")
        assert plan.solver is InverseSolveStrategy and not plan.state_bytes_per_rank("eigen").any()

    def test_hybrid_partitions_receivers_among_grad_workers(self):
        groups = assign_workers(LAYERS, 8, 0.5)
        for group in groups.values():
            assert len(group.grad_workers) == 4
            all_receivers = [r for worker in group.grad_workers for r in group.receivers_of(worker)]
            assert sorted(all_receivers + list(group.grad_workers)) == list(range(8))
            # Figure 4: each gradient worker serves exactly one receiver at frac=1/2.
            assert all(len(group.receivers_of(w)) == 1 for w in group.grad_workers)

    def test_every_rank_covered_exactly_once_per_layer(self):
        for frac in (1 / 8, 1 / 4, 1 / 2, 1.0):
            groups = assign_workers(LAYERS, 8, frac)
            for group in groups.values():
                covered = set(group.grad_workers)
                for worker in group.grad_workers:
                    covered.update(group.receivers_of(worker))
                assert covered == set(range(8))

    def test_gradient_round_reaches_every_rank_from_one_grad_worker(self):
        plan = make_plan(LAYERS, 8, 0.25)
        for name, group in plan.groups.items():
            for rank in range(8):
                senders = [spec.src for spec in plan.gradient_round[name] if rank in spec.group]
                assert len(senders) == 1 and senders[0] in group.grad_workers
                assert (senders[0] == rank) == (rank in group.grad_workers)

    def test_eigen_workers_balanced_across_layers(self):
        # With many equal-cost layers, eigen work must not pile onto one rank.
        layers = [layer(f"l{i}", 64, 64) for i in range(16)]
        groups = assign_workers(layers, 4, 0.25)
        counts = np.zeros(4)
        for group in groups.values():
            counts[group.eigen_worker_g] += 1
        assert counts.max() - counts.min() <= 1

    def test_assignment_deterministic(self):
        a = assign_workers(LAYERS, 8, 0.5)
        b = assign_workers(LAYERS, 8, 0.5)
        for name in a:
            assert a[name].grad_workers == b[name].grad_workers
            assert (a[name].eigen_worker_a, a[name].eigen_worker_g) == (b[name].eigen_worker_a, b[name].eigen_worker_g)

    def test_memory_balance_mode(self):
        groups = assign_workers(LAYERS, 4, 0.25, "memory")
        assert len(groups) == len(LAYERS)

    def test_empty_layer_list(self):
        assert assign_workers([], 4, 0.5) == {}

    def test_world_size_one(self):
        groups = assign_workers(LAYERS, 1, 1.0)
        for group in groups.values():
            assert group.grad_workers == (0,)

    def test_broadcast_group_size_shrinks_with_more_grad_workers(self):
        sizes = {}
        for frac in (1 / 8, 1 / 4, 1 / 2):
            groups = assign_workers(LAYERS, 8, frac)
            sizes[frac] = max(1 + len(g.receivers_of(w)) for g in groups.values() for w in g.grad_workers)
        assert sizes[1 / 8] > sizes[1 / 4] > sizes[1 / 2]

    @given(
        st.integers(min_value=1, max_value=32),
        st.floats(min_value=0.01, max_value=1.0),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_roles_partition_property(self, world_size, frac, num_layers):
        """For every configuration, each rank is either a gradient worker or the
        receiver of exactly one gradient worker for every layer; the plan's scheme
        is MEM-OPT iff one gradient worker, COMM-OPT iff all ranks, HYBRID-OPT otherwise."""
        layers = [layer(f"l{i}", 8 * (i + 1), 4 * (i + 1)) for i in range(num_layers)]
        groups = assign_workers(layers, world_size, frac)
        workers = max(1, round(frac * world_size))  # section 3.1's num_grad_workers
        scheme = "COMM-OPT" if workers >= world_size else "MEM-OPT" if workers == 1 else "HYBRID-OPT"
        assert make_plan(layers, world_size, frac).scheme == scheme
        assert len(groups) == num_layers
        for group in groups.values():
            assert 1 <= len(group.grad_workers) <= min(workers, world_size)
            assert (len(group.grad_workers) == world_size) == (scheme == "COMM-OPT")
            seen = {}
            for worker in group.grad_workers:
                for receiver in group.receivers_of(worker):
                    assert receiver not in seen
                    seen[receiver] = worker
            assert set(seen) | set(group.grad_workers) == set(range(world_size))


class TestLayerShapeInfo:
    def test_cost_proxies(self):
        info = layer("x", 10, 4)
        assert info.eigen_cost == 10 ** 3 + 4 ** 3
        assert info.memory_cost == 10 * 11 // 2 + 4 * 5 // 2  # what is stored: one triangle each

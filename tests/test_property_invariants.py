"""Property-based tests (hypothesis) for core invariants of the tensor engine and K-FAC.

These complement the example-based tests with randomized coverage of the
algebraic identities the system relies on: broadcasting-consistent gradients,
softmax normalisation, symmetric-positive-semidefiniteness of Kronecker
factors, damping monotonicity, the memory model's linearity in
``grad_worker_frac``, strategy equivalence on generated layer shapes, the
sharded factor layout (each running factor stored once, bit-identical resume)
on generated shapes, worlds, strategies and cadences, whole ``Trainer``
trajectories on the block-fused optimizers against the per-parameter loops of
``optimizer_oracle.py`` (worlds, accumulation), and the cost and memory
models' counts against the engine's on generated shapes and knobs (messages,
bytes and per-rank state: residual 0), the staggered refresh (the plan's
``refresh_offsets``: strategy equivalence, kill-and-resume between two
staggered steps, per-step messages against the log), the refresh's read point (each
decomposition is of the factors its step began with, on generated cadences and worlds), and
packed factor storage against the
square-path oracle of ``kernel_oracle.py`` (trajectories bit for bit, per-rank
state and the factor round's bytes).  The multi-rank suites run a fixed,
derandomized set of examples, so their time is the same in every CI
configuration.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro import nn, optim
from repro.distributed import DistributedDataParallel, gradient_specs, run_spmd
from repro.distributed.collectives import BucketManager
from repro.kfac import (
    KFAC,
    FactorRepr,
    KFACConfig,
    IterationTimeModel,
    KFACWorkloadSpec,
    EigenSolveStrategy,
    KernelBackend,
    LayerShapeInfo,
    model_comm_schedule,
    precondition_with_eigen,
    symmetric_eigen,
)
from repro.kfac.kmath import split_damping, tikhonov_pi
from repro.kfac.layers import make_kfac_layer
from repro.kfac.refresh import RefreshQueue
from repro.memory import overhead_bytes
from repro.nn import functional as F
from repro.tensor import PrecisionPolicy, Tensor

from counters import comm_counts
from kernel_oracle import force_blocks, kfac_class

small_floats = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False, width=32)


def float_arrays(shape):
    return hnp.arrays(np.float32, shape, elements=small_floats)


def memory_spec(layers, param_count=0, config=None):
    """A spec that only the memory reads take: no batch, no compute time."""
    config = config if config is not None else KFACConfig()
    return KFACWorkloadSpec("generated", layers, param_count, local_batch_size=0, baseline_compute_time=0.0, config=config)


def fewest_paired_elements(dims):
    """The fewest elements that hold symmetric matrices of ``dims``, two to a row-major buffer or one alone.

    Two whose dimensions ``m <= n`` differ by at most one share ``(m+1) × n`` (one triangle each); one alone is
    its square.  The best matching over the sorted dimensions, by dynamic programming: the model's pairing
    rule must reach it.
    """
    dims, best = sorted(dims), [0]
    for k, n in enumerate(dims):
        options = [best[k] + n * n]
        if k and n - dims[k - 1] <= 1:
            options.append(best[k - 1] + (dims[k - 1] + 1) * n)
        best.append(min(options))
    return best[-1]


class TestTensorProperties:
    @given(float_arrays((3, 4)), float_arrays((3, 4)))
    @settings(max_examples=30, deadline=None)
    def test_addition_gradient_is_identity_for_both_operands(self, a, b):
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta + tb).sum().backward()
        np.testing.assert_allclose(ta.grad, np.ones_like(a))
        np.testing.assert_allclose(tb.grad, np.ones_like(b))

    @given(float_arrays((4, 3)), st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=30, deadline=None)
    def test_scaling_loss_scales_gradient_linearly(self, a, scale):
        t1 = Tensor(a, requires_grad=True)
        t2 = Tensor(a, requires_grad=True)
        (t1 * t1).sum().backward()
        ((t2 * t2).sum() * scale).backward()
        np.testing.assert_allclose(t2.grad, t1.grad * scale, rtol=1e-4, atol=1e-4)

    @given(float_arrays((2, 5)))
    @settings(max_examples=30, deadline=None)
    def test_softmax_rows_form_a_distribution(self, logits):
        out = F.softmax(Tensor(logits), axis=-1).numpy()
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-4)

    @given(float_arrays((3, 6)))
    @settings(max_examples=30, deadline=None)
    def test_log_softmax_is_log_of_softmax(self, logits):
        soft = F.softmax(Tensor(logits), axis=-1).numpy()
        log_soft = F.log_softmax(Tensor(logits), axis=-1).numpy()
        np.testing.assert_allclose(log_soft, np.log(soft + 1e-12), atol=1e-3)

    @given(float_arrays((2, 3, 6, 6)), st.integers(min_value=1, max_value=3), st.sampled_from([0, 1]))
    @settings(max_examples=20, deadline=None)
    def test_unfold_preserves_total_patch_content(self, images, kernel, padding):
        cols, oh, ow = F.im2col(images, (kernel, kernel), 1, padding)
        assert cols.shape == (2, 3 * kernel * kernel, oh * ow)
        # Each column is an actual patch: its values are a subset of the padded image values.
        padded = np.pad(images, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        assert np.all(np.isin(cols.round(4), np.append(padded.round(4), 0.0)))

    @given(float_arrays((5, 4)))
    @settings(max_examples=30, deadline=None)
    def test_mean_and_sum_consistency(self, a):
        t = Tensor(a)
        np.testing.assert_allclose(t.mean().item() * a.size, t.sum().item(), rtol=1e-3, atol=1e-3)


class TestKFACFactorProperties:
    @given(float_arrays((6, 5)))
    @settings(max_examples=25, deadline=None)
    def test_linear_factors_are_symmetric_positive_semidefinite(self, x):
        layer = nn.Linear(5, 3, rng=np.random.default_rng(0))
        handler = make_kfac_layer("l", layer, PrecisionPolicy.fp32(), lambda: True, lambda: 1.0)
        out = layer(Tensor(x))
        out.mean().backward()
        a_new, g_new = handler.compute_batch_factors()
        for repr_, packed in ((handler.a_repr, a_new), (handler.g_repr, g_new)):
            assert packed.shape == (repr_.dim * (repr_.dim + 1) // 2,)  # one triangle: symmetric by construction
            factor = repr_.to_dense(packed)
            eigenvalues = np.linalg.eigvalsh(factor.astype(np.float64))
            assert eigenvalues.min() >= -1e-5

    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_eigen_reconstruction_property(self, n, seed):
        rng = np.random.default_rng(seed)
        root = rng.standard_normal((n, n)).astype(np.float32)
        factor = root @ root.T / n
        eig = symmetric_eigen(factor)
        recon = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
        np.testing.assert_allclose(recon, factor, atol=1e-3, rtol=1e-2)

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=500))
    @settings(max_examples=25, deadline=None)
    def test_preconditioning_shrinks_with_damping(self, n, seed):
        rng = np.random.default_rng(seed)
        root_a = rng.standard_normal((n, n)).astype(np.float32)
        root_g = rng.standard_normal((n, n)).astype(np.float32)
        eig_a = symmetric_eigen(root_a @ root_a.T / n)
        eig_g = symmetric_eigen(root_g @ root_g.T / n)
        grad = rng.standard_normal((n, n)).astype(np.float32)
        norms = [
            np.linalg.norm(precondition_with_eigen(grad, eig_a, eig_g, damping))
            for damping in (1e-3, 1e-1, 1e1)
        ]
        assert norms[0] >= norms[1] >= norms[2]


class TestStrategyEquivalenceProperties:
    """MEM-OPT, HYBRID-OPT and COMM-OPT are one algorithm (section 3.1) whatever the layer shapes."""

    WORLD = 4
    STEPS = 6

    @given(
        leading=st.lists(st.integers(min_value=1, max_value=3), min_size=0, max_size=2),
        in_features=st.integers(min_value=1, max_value=9),
        hidden=st.integers(min_value=2, max_value=40),  # up to and past the stacked-eigh threshold
        out_features=st.integers(min_value=1, max_value=5),
        bias=st.booleans(),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @pytest.mark.parametrize("solver", ["inverse", "eigen"])
    @settings(max_examples=8, deadline=None, derandomize=True)
    def test_strategies_agree_after_six_steps(self, solver, leading, in_features, hidden, out_features, bias, seed):
        """Linear -> LayerNorm -> Linear on ``(batch, *leading, features)`` activations: the fused
        nodes flatten them, the handlers read the nodes, and every strategy ends on the same parameters,
        on either solve path."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((16, *leading, in_features)).astype(np.float32)
        target = rng.standard_normal((16, *leading, out_features)).astype(np.float32)

        def program(comm, frac):
            net_rng = np.random.default_rng(seed + 1)
            model = nn.Sequential(
                nn.Linear(in_features, hidden, bias=bias, rng=net_rng),
                nn.LayerNorm(hidden),
                nn.Tanh(),
                nn.Linear(hidden, out_features, bias=bias, rng=net_rng),
            )
            ddp = DistributedDataParallel(model, comm)
            optimizer = optim.SGD(model.parameters(), lr=0.05, momentum=0.9)
            pre = KFAC(
                model, factor_update_freq=2, inv_update_freq=4, grad_worker_frac=frac, solve_strategy=solver, comm=comm
            )
            loss_fn = nn.MSELoss()
            for step in range(self.STEPS):
                local = np.arange(16)[(step + comm.rank) % 2 :: 2][comm.rank // 2 :: 2]
                optimizer.zero_grad()
                loss_fn(model(Tensor(x[local])), target[local]).backward()
                ddp.sync_gradients()
                pre.step(lr=0.05)
                optimizer.step()
            return np.concatenate([p.data.ravel() for p in model.parameters()])

        results = {frac: run_spmd(self.WORLD, lambda comm, frac=frac: program(comm, frac)) for frac in (0.25, 0.5, 1.0)}
        for frac, replicas in results.items():
            assert np.all(np.isfinite(replicas[0]))
            for replica in replicas[1:]:
                np.testing.assert_array_equal(replica, replicas[0], err_msg=f"replicas diverged at frac={frac}")
        # Across strategies the same numbers sit in different buffers (a broadcast lands in a bucket
        # view, a local result in its own allocation) and BLAS rounds by alignment; generated factors
        # are often rank-deficient, where 1/damping amplifies that, so this is not a bitwise claim.
        np.testing.assert_allclose(results[0.25][0], results[0.5][0], rtol=1e-3, atol=2e-4)
        np.testing.assert_allclose(results[0.5][0], results[1.0][0], rtol=1e-3, atol=2e-4)


class TestShardedFactorLayoutProperties:
    """A running factor lives only where it is decomposed, whatever the shapes, world, strategy and cadence."""

    @given(
        world=st.integers(min_value=1, max_value=4),
        workers=st.integers(min_value=1, max_value=4),  # gradient workers per layer, capped at the world size
        balance=st.sampled_from(["compute", "memory"]),
        in_features=st.integers(min_value=1, max_value=9),
        hidden=st.lists(st.integers(min_value=2, max_value=40), min_size=1, max_size=3),
        out_features=st.integers(min_value=1, max_value=5),
        bias=st.booleans(),
        factor_freq=st.integers(min_value=1, max_value=3),
        inv_multiple=st.integers(min_value=1, max_value=3),
        resume_at=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @pytest.mark.parametrize("solver", ["inverse", "eigen"])
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_each_factor_is_stored_once_and_kill_and_resume_is_bit_identical(
        self, solver, world, workers, balance, in_features, hidden, out_features, bias, factor_freq, inv_multiple,
        resume_at, seed,
    ):  # fmt: skip
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((16, in_features)).astype(np.float32)
        target = rng.standard_normal((16, out_features)).astype(np.float32)
        frac = min(workers, world) / world
        loss_fn = nn.MSELoss()

        def build(comm):
            net_rng = np.random.default_rng(seed + 1)
            widths = [in_features, *hidden]
            blocks = []
            for fan_in, fan_out in zip(widths, widths[1:]):
                blocks += [nn.Linear(fan_in, fan_out, bias=bias, rng=net_rng), nn.LayerNorm(fan_out), nn.Tanh()]
            model = nn.Sequential(*blocks, nn.Linear(widths[-1], out_features, bias=bias, rng=net_rng))
            optimizer = optim.SGD(model.parameters(), lr=0.05, momentum=0.9)
            pre = KFAC(
                model,
                factor_update_freq=factor_freq,
                inv_update_freq=factor_freq * inv_multiple,
                grad_worker_frac=frac,
                assignment_balance=balance,
                solve_strategy=solver,
                comm=comm,
            )
            return model, optimizer, pre

        def train(comm, model, optimizer, pre, first, last):
            ddp = DistributedDataParallel(model, comm)
            for step in range(first, last):
                local = np.arange(16)[(step + comm.rank) % world :: world]
                optimizer.zero_grad()
                loss_fn(model(Tensor(x[local])), target[local]).backward()
                ddp.sync_gradients()
                pre.step(lr=0.05)
                optimizer.step()
            return np.concatenate([p.data.ravel() for p in model.parameters()])

        def program(comm):
            model, optimizer, pre = build(comm)
            train(comm, model, optimizer, pre, 0, resume_at)
            checkpoint = (model.state_dict(), optimizer.state_dict(), pre.state_dict())
            uninterrupted = train(comm, model, optimizer, pre, resume_at, resume_at + 4)

            model2, optimizer2, pre2 = build(comm)  # the process was killed: everything is rebuilt
            for target_object, state in zip((model2, optimizer2, pre2), checkpoint):
                target_object.load_state_dict(state)
            resumed = train(comm, model2, optimizer2, pre2, resume_at, resume_at + 4)

            layout = {}
            for name, layer in pre2.layers.items():
                for which in ("a", "g"):
                    held = getattr(layer, f"factor_{which}") is not None
                    decomposes = pre2.groups[name].decomposer(which) == comm.rank
                    layout[(name, which)] = (held, decomposes, pre2.holds_factor(name, which))
            registered = sum(group.layer.factor_bytes(pre2.plan.precision) for group in pre2.groups.values())
            return uninterrupted, resumed, layout, pre2.memory_usage()["factors"], registered

        ranks = run_spmd(world, program)
        for uninterrupted, resumed, layout, _, _ in ranks:
            np.testing.assert_array_equal(resumed, uninterrupted)
            np.testing.assert_array_equal(resumed, ranks[0][1])  # and the replicas agree to the bit
            assert all(held == decomposes == rule for held, decomposes, rule in layout.values())
        for key in ranks[0][2]:
            assert sum(layout[key][0] for _, _, layout, _, _ in ranks) == 1, f"{key} is not held exactly once"
        assert sum(held_bytes for *_, held_bytes, _ in ranks) == ranks[0][4]


class TestStaggeredRefreshProperties:
    """The plan says *when* each layer is decomposed; every strategy, every rank and a resumed run follow it.

    Linear -> LayerNorm -> Tanh blocks of generated widths under MEM-, HYBRID- and COMM-OPT: replicas
    agree to the bit, the strategies agree, a run killed between two staggered steps resumes to the
    bit, every step folds and decomposes exactly the layers of its actions (``plan.actions(step)``),
    and every step's K-FAC messages and bytes are the plan's for that step.
    """

    # world, (factor_update_freq, inv_update_freq), resume at, poison the window of the fold on
    # step inv_update_freq (the staggered step after it then reads the factors as last accepted),
    # solve strategy: the plan's cadence is the same on both paths.
    ROWS = [
        (1, (5, 10), 8, False, "inverse"),  # resumed between step 6's refresh and step 11's
        (2, (5, 10), 3, True, "inverse"),  # between the passed-over step 1 and step 6
        (3, (5, 10), 8, False, "eigen"),
        (4, (5, 10), 7, True, "inverse"),
        (2, (4, 8), 3, False, "inverse"),  # one fold-free step may carry work
        (3, (5, 5), 6, True, "inverse"),  # every fold is followed by the interval's one staggered step
        (2, (6, 12), 9, True, "eigen"),
        (4, (3, 7), 4, False, "inverse"),  # not nested: every offset 0, a refresh forces its fold
        (3, (2, 4), 3, True, "inverse"),  # no fold-free step left: one refresh step
        (1, (3, 10), 5, False, "eigen"),  # not nested, at world 1
    ]

    @pytest.mark.parametrize("row", ROWS, ids=lambda row: "w{}-{}-{}-at{}{}{}".format(
        row[0], *row[1], row[2], "-poisoned" if row[3] else "",
        "" if row[4] == "inverse" else f"-{row[4]}"))  # fmt: skip
    @given(
        in_features=st.integers(min_value=1, max_value=9),
        hidden=st.lists(st.integers(min_value=2, max_value=24), min_size=2, max_size=4),
        out_features=st.integers(min_value=1, max_value=5),
        bias=st.booleans(),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=2, deadline=None, derandomize=True)
    def test_strategies_agree_resume_is_bit_identical_and_each_step_posts_the_plans_messages(
        self, row, in_features, hidden, out_features, bias, seed
    ):
        world, (factor_freq, inv_freq), resume_at, poisoned, solve_strategy = row
        last = resume_at + inv_freq + 3  # past one whole interval after the resume
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((24, in_features)).astype(np.float32)
        target = rng.standard_normal((24, out_features)).astype(np.float32)
        loss_fn = nn.MSELoss()

        def build(comm, frac):
            net_rng = np.random.default_rng(seed + 1)
            widths = [in_features, *hidden]
            blocks = []
            for fan_in, fan_out in zip(widths, widths[1:]):
                blocks += [nn.Linear(fan_in, fan_out, bias=bias, rng=net_rng), nn.LayerNorm(fan_out), nn.Tanh()]
            model = nn.Sequential(*blocks, nn.Linear(widths[-1], out_features, bias=bias, rng=net_rng))
            optimizer = optim.SGD(model.parameters(), lr=0.05, momentum=0.9)
            config = KFACConfig(
                factor_update_freq=factor_freq, inv_update_freq=inv_freq, grad_worker_frac=frac,
                solve_strategy=solve_strategy,
            )  # fmt: skip
            return model, optimizer, KFAC(model, config, comm=comm)

        def train(comm, model, optimizer, pre, first, last):
            ddp = DistributedDataParallel(model, comm, broadcast_initial=False)
            posted = {}
            for step in range(first, last):
                local = np.arange(24)[(step + comm.rank) % world :: world]
                optimizer.zero_grad()
                loss_fn(model(Tensor(x[local])), target[local]).backward()
                before = comm_counts(comm.tracer)  # the gradient averaging included
                ddp.sync_gradients()
                if poisoned and step == inv_freq and comm.rank == 0:
                    list(pre.layers.values())[-1].accumulators()[1][0] = np.inf  # one rank's window: rejected on every rank
                taken, events = pre.actions(), decisions(comm)  # the actions the hooks read in this forward pass
                pre.step(lr=0.05)
                after = comm_counts(comm.tracer)
                posted[step] = {op: (after[op][0] - before[op][0], after[op][1] - before[op][1]) for op in after}
                posted[step]["actions"] = taken
                posted[step]["done"] = {
                    key: value - events.get(key, 0.0) for key, value in decisions(comm).items() if value != events.get(key)
                }
                optimizer.step()
            return np.concatenate([p.data.ravel() for p in model.parameters()]), posted

        def decisions(comm):
            return {key: value for key, value in comm.tracer.counters().items() if key.startswith("kfac/")}

        def program(comm, frac):
            model, optimizer, pre = build(comm, frac)
            _, before_kill = train(comm, model, optimizer, pre, 0, resume_at)
            at_kill = decisions(comm)
            checkpoint = (model.state_dict(), optimizer.state_dict(), pre.state_dict())
            uninterrupted, posted = train(comm, model, optimizer, pre, resume_at, last)
            counted = decisions(comm)

            model2, optimizer2, pre2 = build(comm, frac)  # the process was killed: everything is rebuilt
            for target_object, state in zip((model2, optimizer2, pre2), checkpoint):
                target_object.load_state_dict(state)
            resumed, posted_again = train(comm, model2, optimizer2, pre2, resume_at, last)
            assert posted_again == posted
            # The resumed run decides what the uninterrupted one decided over the same steps.
            again = decisions(comm)
            assert {key: again[key] - counted.get(key, 0.0) for key in again} == {
                key: value - at_kill.get(key, 0.0) for key, value in counted.items()
            }
            grad_sync = gradient_specs(model, world)  # what sync_gradients posts
            grad_buckets = BucketManager(25.0).build([(s.key, s.shape, s.dtype) for s in grad_sync])
            grad_sync = (len(grad_buckets), sum(bucket.nbytes for bucket in grad_buckets))
            return uninterrupted, resumed, {**before_kill, **posted}, pre.plan, counted, grad_sync

        fractions = sorted({1.0 / world, min(2, world) / world, 1.0})
        results = {frac: run_spmd(world, lambda comm, frac=frac: program(comm, frac)) for frac in fractions}
        offsets = results[1.0][0][3].refresh_offsets
        staggers = factor_freq >= 3 and inv_freq % factor_freq == 0 and (inv_freq - 1) // 2 > inv_freq // factor_freq
        assert (set(offsets.values()) != {0}) == staggers, offsets
        for frac, ranks in results.items():
            for rank, (uninterrupted, resumed, posted, plan, counted, grad_sync) in enumerate(ranks):
                assert np.all(np.isfinite(resumed))
                np.testing.assert_array_equal(resumed, uninterrupted)
                np.testing.assert_array_equal(resumed, ranks[0][1])  # and the replicas agree to the bit
                assert plan.refresh_offsets == offsets  # the same steps under every placement
                rejected = sum(value for key, value in counted.items() if key.startswith("kfac/factor_windows_rejected/"))
                assert rejected == (1 if poisoned else 0)
                for step in range(last):
                    # Each layer folded / decomposed on this step once, or not at all: the step's actions, the
                    # plan's own -- what the hooks read.
                    taken, done = posted[step]["actions"], posted[step]["done"]
                    performed = {
                        event: tuple(name for name in plan.groups if done.get(f"kfac/{event}/{name}", 0.0))
                        for event in ("factor_updates", "eigen_updates")
                    }
                    assert {done.get(f"kfac/{event}/{name}", 0.0) for event in performed
                            for name in plan.groups} <= {0.0, 1.0}, step  # fmt: skip
                    expected = plan.actions(step)
                    assert taken == expected, step
                    assert (performed["factor_updates"], performed["eigen_updates"]) == (expected.fold, expected.refresh), step
                for step in range(last):
                    modeled = plan.messages(step=step)
                    # This rank's slice of the plan (the channels that contain it), plus the gradient averaging.
                    for op, rounds, extra in (("allreduce", ("factor",), grad_sync), ("broadcast", ("eigen", "gradient"), (0, 0))):
                        sent = [nbytes for label in rounds for members, nbytes in modeled[label] if rank in members]
                        assert posted[step][op] == (len(sent) + extra[0], sum(sent) + extra[1]), (frac, step, op)
        # Across strategies the same numbers sit in different buffers and BLAS rounds by alignment
        # (see TestStrategyEquivalenceProperties): agreement, not a bitwise claim.
        for frac in fractions[:-1]:
            np.testing.assert_allclose(results[frac][0][1], results[1.0][0][1], rtol=1e-3, atol=2e-4)


class _PostFoldQueue(RefreshQueue):
    """Every submit replaces what is pending, so ``take`` solves the last one: the eigen stage's, after the fold."""

    def submit(self, factors):
        self.cancel()
        super().submit(factors)


class _PostFoldKFAC(KFAC):
    """The read point before the eigen worker: every refresh decomposes its factors after its step's fold."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.refresh = _PostFoldQueue(self.refresh.make_task, self.refresh.tracer, self.refresh.name)
        for layer in self.layers.values():
            layer.queue = None if layer.queue is None else self.refresh


class TestRefreshReadPointProperties:
    """A refresh decomposes -- or inverts -- the running factors as they stood when its step began (step 0,
    with none yet, after its fold), on every rank and cadence: never the same fold history twice, and on
    cadences whose later refreshes are all fold-free, to the bit what solving after the fold gives."""

    @given(
        world=st.integers(min_value=1, max_value=3),
        comm_opt=st.booleans(),
        cadence=st.one_of(
            st.sampled_from([(1, 1), (3, 3), (3, 7), (5, 10)]),  # F = K, not nested, staggered
            st.tuples(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=8)),
        ),
        in_features=st.integers(min_value=1, max_value=9),
        hidden=st.lists(st.integers(min_value=2, max_value=40), min_size=1, max_size=3),  # both eigen paths
        seed=st.integers(min_value=0, max_value=10_000),
        solver=st.sampled_from(["eigen", "inverse"]),
    )
    @example(world=3, comm_opt=False, cadence=(3, 3), in_features=5, hidden=[36, 7], seed=1, solver="eigen")
    @example(world=3, comm_opt=True, cadence=(5, 10), in_features=3, hidden=[40, 12, 9], seed=2, solver="eigen")
    @example(world=3, comm_opt=True, cadence=(3, 7), in_features=4, hidden=[36, 7], seed=3, solver="inverse")
    @example(world=1, comm_opt=False, cadence=(1, 1), in_features=6, hidden=[40, 9], seed=4, solver="inverse")
    @example(world=2, comm_opt=False, cadence=(1, 1), in_features=3, hidden=[36, 12], seed=5, solver="eigen")
    @example(world=1, comm_opt=True, cadence=(5, 10), in_features=5, hidden=[33, 8], seed=6, solver="eigen")
    @example(world=2, comm_opt=True, cadence=(5, 10), in_features=4, hidden=[40, 7], seed=7, solver="inverse")
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_each_refresh_decomposes_the_factors_its_step_began_with(
        self, world, comm_opt, cadence, in_features, hidden, seed, solver
    ):
        factor_freq, inv_freq = cadence
        steps = 2 * inv_freq + factor_freq + 2
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((8 * world, in_features)).astype(np.float32)
        target = rng.standard_normal((8 * world, 2)).astype(np.float32)
        config = KFACConfig(
            factor_update_freq=factor_freq, inv_update_freq=inv_freq,
            grad_worker_frac=1.0 if comm_opt else 1.0 / world,
            solve_strategy=solver,
        )  # fmt: skip

        def program(comm, cls):
            net_rng = np.random.default_rng(seed + 1)
            widths = [in_features, *hidden]
            blocks = []
            for fan_in, fan_out in zip(widths, widths[1:]):
                blocks += [nn.Linear(fan_in, fan_out, rng=net_rng), nn.Tanh()]
            model = nn.Sequential(*blocks, nn.Linear(widths[-1], 2, rng=net_rng))
            ddp = DistributedDataParallel(model, comm)
            optimizer = optim.SGD(model.parameters(), lr=0.05, momentum=0.9)
            pre = cls(model, config, comm=comm)
            taken, solved = [], []
            for step in range(steps):
                local = np.arange(8 * world)[(step + comm.rank) % world :: world]
                optimizer.zero_grad()
                nn.MSELoss()(model(Tensor(x[local])), target[local]).backward()
                ddp.sync_gradients()
                taken.append(pre.actions())
                found = {name: (layer.factor_a, layer.factor_g) for name, layer in pre.layers.items()}
                found = {name: tuple(None if f is None else f.copy() for f in pair) for name, pair in found.items()}
                published = [f for layer in pre.layers.values() for f in (layer.factor_a, layer.factor_g) if f is not None]
                pre.step(lr=0.05)
                # A published running factor is never written: the fold makes a new array, so a refresh task
                # holding the old one solves what its step began with.
                assert [f.tobytes() for f in published] == [
                    f.tobytes() for pair in found.values() for f in pair if f is not None
                ], step
                optimizer.step()
                for name in taken[-1].refresh if cls is KFAC else ():
                    # A decomposer holds its factor (an inverse layer's both), a gradient worker what was solved.
                    layer, held = pre.layers[name], pre.groups[name].is_grad_worker(comm.rank)
                    read = (layer.factor_a, layer.factor_g) if step == 0 else found[name]
                    strategy = pre.solvers[name]
                    if solver == "inverse":  # read out now: a later refresh installs into the same triangle
                        installed = held and (strategy.inv_a.packed(), strategy.inv_g.packed())
                    else:
                        installed = (strategy.eigen_a, strategy.eigen_g)
                    solved.append((step, name, read, installed if held else None, layer.a_repr, layer.g_repr))
            pre.remove()
            return np.concatenate([p.data.ravel() for p in model.parameters()]), taken, solved

        ranks = run_spmd(world, lambda comm: program(comm, KFAC))
        taken, checked, policy = ranks[0][1], 0, config.precision_policy()
        factors = {
            (step, name, which): factor
            for rank in ranks
            for step, name, read, *_ in rank[2]
            for which, factor in zip("ag", read)
            if factor is not None
        }
        for step, name, _, installed, *reprs in (entry for rank in ranks for entry in rank[2] if entry[3] is not None):
            read = tuple(factors[step, name, which] for which in "ag")
            if solver == "inverse":
                dampings = split_damping(config.damping, tikhonov_pi(*read, *reprs))
                for factor, damping, inverse, repr_ in zip(read, dampings, installed, reprs):
                    (alone,) = KernelBackend().inverse_task([factor], repr_, [damping])()
                    alone = alone.astype(policy.inverse_dtype)
                    assert inverse.tobytes() == alone.tobytes(), f"{name} {step}"
                    checked += 1
                continue
            for factor, eigen in zip(read, installed):
                (alone,) = KernelBackend().batched_eigen_task([factor], compute_dtype=policy.compute_dtype)()
                alone = alone.astype(policy.inverse_dtype)
                np.testing.assert_array_equal(eigen.eigenvalues, alone.eigenvalues, err_msg=f"{name} {step}")
                np.testing.assert_array_equal(eigen.eigenvectors, alone.eigenvectors, err_msg=f"{name} {step}")
                checked += 1
        assert checked > 0
        for name in taken[0].refresh:
            # The folds a refresh's factors hold: those of the steps before it (step 0: its own).
            histories = [
                max(1, sum(name in actions.fold for actions in taken[:step]))
                for step, actions in enumerate(taken)
                if name in actions.refresh
            ]
            assert histories == sorted(set(histories)), (name, histories)
        if all(not actions.fold for actions in taken[1:] if actions.refresh):
            post_fold = run_spmd(world, lambda comm: program(comm, _PostFoldKFAC))
            for (params, *_), (reference, *_) in zip(ranks, post_fold):
                np.testing.assert_array_equal(params, reference)


class _NetWithASpare(nn.Module):
    """Linear -> LayerNorm -> Tanh -> Linear, plus a layer no forward uses: its parameters never get a gradient."""

    def __init__(self, in_features, hidden, out_features, bias, rng):
        super().__init__()
        self.first = nn.Linear(in_features, hidden, bias=bias, rng=rng)
        self.spare = nn.Linear(hidden, 3, rng=rng)
        self.norm = nn.LayerNorm(hidden)
        self.tanh = nn.Tanh()
        self.last = nn.Linear(hidden, out_features, bias=bias, rng=rng)

    def forward(self, x):
        return self.last(self.tanh(self.norm(self.first(x))))


class TestFusedOptimizerProperties:
    """A ``Trainer`` on the block-fused optimizers follows the per-parameter loops (``optimizer_oracle``) to the bit."""

    #: name (also the oracle's) -> (repro.optim class, hyperparameters)
    OPTIMIZERS = {
        "sgd": (optim.SGD, dict(lr=0.05, momentum=0.9, nesterov=True, weight_decay=1e-3)),
        "adamw": (optim.AdamW, dict(lr=0.01, weight_decay=0.01)),
        "lamb": (optim.LAMB, dict(lr=0.02, weight_decay=0.01)),
    }
    STEPS = 6

    @given(
        world=st.integers(min_value=1, max_value=4),
        workers=st.integers(min_value=1, max_value=4),
        name=st.sampled_from(sorted(OPTIMIZERS)),
        micro_batches=st.integers(min_value=1, max_value=3),
        in_features=st.integers(min_value=1, max_value=9),
        hidden=st.integers(min_value=2, max_value=40),
        out_features=st.integers(min_value=1, max_value=5),
        bias=st.booleans(),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_trajectory_is_the_oracle_optimizers(
        self, world, workers, name, micro_batches, in_features, hidden, out_features, bias, seed
    ):
        from optimizer_oracle import LoopOptimizer

        from repro.training import Trainer

        rng = np.random.default_rng(seed)
        x = rng.standard_normal((24, in_features)).astype(np.float32)
        target = rng.standard_normal((24, out_features)).astype(np.float32)
        loss_fn = nn.MSELoss()
        optimizer_cls, hyper = self.OPTIMIZERS[name]

        def program(comm, fused):
            model = _NetWithASpare(in_features, hidden, out_features, bias, np.random.default_rng(seed + 1))
            params = list(model.parameters())
            optimizer = optimizer_cls(params, **hyper) if fused else LoopOptimizer(name, params, **hyper)
            pre = KFAC(
                model,
                factor_update_freq=2,
                inv_update_freq=4,
                grad_worker_frac=min(workers, world) / world,
                comm=comm,
                skip_modules=[model.spare],
            )
            trainer = Trainer(
                model,
                optimizer,
                lambda m, batch: loss_fn(m(Tensor(batch[0])), batch[1]),
                preconditioner=pre,
                comm=comm,
            )
            losses = []
            for step in range(self.STEPS):
                local = np.arange(24)[(step + comm.rank) % world :: world]
                batches = [(x[part], target[part]) for part in np.array_split(local, micro_batches)]
                losses.append(trainer.train_step(batches))
            assert all(param.grad is None for param in model.spare.parameters())
            return losses, np.concatenate([p.data.ravel() for p in model.parameters()])

        fused = run_spmd(world, lambda comm: program(comm, True))
        oracle = run_spmd(world, lambda comm: program(comm, False))
        for (losses, params), (oracle_losses, oracle_params) in zip(fused, oracle):
            assert np.all(np.isfinite(params))
            assert losses == oracle_losses
            np.testing.assert_array_equal(params, oracle_params)
            np.testing.assert_array_equal(params, fused[0][1])


class TestModelEqualsEngineProperties:
    """The cost and memory models read the plan the engine follows, so their counts are the engine's.

    One full update (factor + eigen + gradient round) of Embedding -> LayerNorm -> Linear -> Linear ->
    Linear -> Linear (the table left to the optimizer, a diagonal G, the first Linear's square G
    optionally block-diagonal through ``kernel_oracle.force_blocks``, dense factors) with nothing else on
    the wire: every rank's plan must be the one a ``KFACWorkloadSpec`` of the same config builds, the
    communication log the plan's messages and ``model_comm_schedule``'s, the modeled decompositions
    the decomposers the plan's groups name, and every rank's ``memory_usage()`` the memory model -- for every knob
    that sizes, routes or places state.  The two ``hidden``-wide Linear layers give a rank that holds
    both an odd count of one dimension (``hidden`` three times without a bias) or ``n+1`` beside ``n``
    (with one), so the inverse path's pairing leaves one square alone beside its paired triangles, at
    every point, HYBRID-OPT at world 4 included.
    """

    KNOBS = {
        "default": {},
        "eigen": {"solve_strategy": "eigen"},
        "inverse": {"solve_strategy": "inverse"},
    }

    # (world, gradient workers per layer): MEM-, HYBRID- and COMM-OPT at every world size that has them.
    POINTS = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (4, 4)]
    # bucket_cap_mb, precision, assignment_balance, knob: every pair of values of two knobs appears
    # in some row, and each row runs at every point.
    WIRES = [
        (0.001, "fp32", "compute", "default"),
        (25.0, "fp16", "memory", "default"),
        (0.001, "fp64", "compute", "eigen"),
        (25.0, "fp16", "compute", "eigen"),
        (25.0, "fp32", "memory", "eigen"),
        (0.001, "fp16", "compute", "eigen"),
        (25.0, "fp64", "compute", "inverse"),
        (0.001, "fp32", "memory", "eigen"),
        (0.001, "fp32", "memory", "inverse"),
        (0.001, "fp16", "compute", "inverse"),
        (0.001, "fp64", "memory", "default"),
        (25.0, "fp64", "memory", "eigen"),
        (25.0, "fp64", "memory", "inverse"),
        (1.0, "fp32", "compute", "default"),
        (1.0, "fp64", "memory", "default"),
        (1.0, "fp16", "compute", "eigen"),
        (1.0, "fp16", "memory", "inverse"),
    ]

    @pytest.mark.parametrize("wire", WIRES, ids=lambda wire: "-".join(str(value) for value in wire))
    @pytest.mark.parametrize("point", POINTS, ids=lambda point: "w{}gw{}".format(*point))
    @given(
        vocab=st.integers(min_value=3, max_value=12),
        blocks=st.sampled_from([None, 1, 2, 4]),  # first Linear's G: dense, or block-diagonal with this many blocks
        block_size=st.integers(min_value=1, max_value=6),
        hidden=st.integers(min_value=2, max_value=40),
        out_features=st.integers(min_value=1, max_value=5),
        bias=st.booleans(),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=3, deadline=None, derandomize=True)
    def test_messages_bytes_and_per_rank_memory_have_residual_zero(
        self, point, wire, vocab, blocks, block_size, hidden, out_features, bias, seed
    ):
        world, workers = point
        bucket_cap_mb, precision, balance, knob = wire
        dim = block_size * (blocks or 2)
        config = KFACConfig(
            factor_update_freq=1,
            inv_update_freq=1,
            grad_worker_frac=workers / world,
            assignment_balance=balance,
            bucket_cap_mb=bucket_cap_mb,
            precision=precision,
            **self.KNOBS[knob],
        )
        rng = np.random.default_rng(seed)
        tokens = rng.integers(0, vocab, size=(4 * world, 3))
        target = rng.standard_normal((4 * world, 3, out_features)).astype(np.float32)

        class BlockedKFAC(KFAC):
            def _register_model(self, model):
                super()._register_model(model)
                if blocks is not None:
                    force_blocks(self.layers["2"], "g", block_size)

        def program(comm):
            net_rng = np.random.default_rng(seed + 1)
            model = nn.Sequential(
                nn.Embedding(vocab, dim, rng=net_rng),
                nn.LayerNorm(dim),
                nn.Linear(dim, dim, bias=bias, rng=net_rng),
                nn.Tanh(),
                nn.Linear(dim, hidden, bias=bias, rng=net_rng),
                nn.Tanh(),
                nn.Linear(hidden, hidden, bias=bias, rng=net_rng),
                nn.Tanh(),
                nn.Linear(hidden, out_features, bias=bias, rng=net_rng),
            )
            pre = BlockedKFAC(model, config, comm=comm)
            local = slice(comm.rank, None, world)
            nn.MSELoss()(model(tokens[local]), target[local]).backward()
            pre.step(lr=0.1)  # no gradient averaging: K-FAC's collectives are the only ones in the registry
            return pre.memory_usage(), list(pre.layers), comm_counts(comm.tracer), pre.plan.digest()

        ranks = run_spmd(world, program)

        # The models' input: shapes written down from the architecture, not read off the engine.
        blocked_g = FactorRepr(dim, dim if blocks is None else block_size)
        extra = 1 if bias else 0
        shapes = [
            LayerShapeInfo("1", FactorRepr.dense(2), FactorRepr.diagonal(dim)),
            LayerShapeInfo("2", FactorRepr.dense(dim + extra), blocked_g),
            LayerShapeInfo.dense("4", dim + extra, hidden),
            LayerShapeInfo.dense("6", hidden + extra, hidden),
            LayerShapeInfo.dense("8", hidden + extra, out_features),
        ]
        assert ranks[0][1] == [shape.name for shape in shapes]

        spec = KFACWorkloadSpec("generated", shapes, param_count=0, local_batch_size=4, baseline_compute_time=1.0,
                                config=config)  # fmt: skip
        plan = spec.plan(world, config.grad_worker_frac)
        assert [digest for *_, digest in ranks] == [plan.digest()] * world  # placement, rounds, cadence and cap
        messages = plan.messages()
        modeled = {
            "allreduce": messages["factor"],
            "broadcast": messages["eigen"] + messages["gradient"],
        }
        # Every rank counted exactly its slice of the plan: the channels that contain it.
        for rank, (_, _, counted, _) in enumerate(ranks):
            for op, sent in modeled.items():
                mine = [nbytes for members, nbytes in sent if rank in members]
                assert counted[op][:2] == (len(mine), sum(mine)), (rank, op)
        # Each message is counted once by each of its members.
        members = [len(group) for sent in modeled.values() for group, _ in sent]
        assert sum(sum(entry[0] for entry in counted.values()) for _, _, counted, _ in ranks) == sum(members)

        # The cost model prices those messages, round by round, and charges decompositions where the plan puts them.
        schedule = model_comm_schedule(spec, world, config.grad_worker_frac)
        assert schedule.rounds == {label: (len(sent), sum(size for _, size in sent)) for label, sent in messages.items()}
        assert schedule.messages_per_update == sum(len(sent) for sent in modeled.values())
        assert schedule.comm_bytes_per_update == sum(nbytes for sent in modeled.values() for _, nbytes in sent)
        stages = IterationTimeModel().stage_times_per_rank(spec, world, config.grad_worker_frac)
        decomposers = {group.decomposer(which) for group in plan.groups.values() for which in ("a", "g")}
        assert set(np.flatnonzero(stages["eigen_decomposition"])) == decomposers

        # Each rank's whole memory_usage(): its running factors and its layers' solve-strategy state.
        modeled = {
            "factors": plan.factor_bytes_per_rank(),
            "eigen": plan.state_bytes_per_rank("eigen"),
            "solver": plan.state_bytes_per_rank("solver"),
        }
        modeled["total"] = modeled["factors"] + plan.state_bytes_per_rank()
        for rank, (usage, *_) in enumerate(ranks):
            assert usage == {key: per_rank[rank] for key, per_rank in modeled.items()}, f"rank {rank}: {usage}"


class TestPackedStorageProperties:
    """Packed storage changes where a symmetric factor's bytes live, never a result.

    Embedding -> LayerNorm -> Linear -> Linear through the ``Trainer`` (the table left to the optimizer, a
    diagonal G, dense factors up to and past the stacked-``eigh`` threshold; under the dense oracle all of them dense):
    the trajectory equals the square-path oracle's (``kernel_oracle.use_square_path``: every
    decomposition taken over the full symmetrised matrix) to the bit -- these
    handlers' windows are ``syrk`` products, exactly symmetric -- every rank's ``memory_usage()`` is the
    memory model's, and the allreduce traffic is the plan's factor round plus the gradient averaging.
    """

    KNOBS = {
        "default": {},
        "eigen": {"solve_strategy": "eigen"},
        "inverse": {"solve_strategy": "inverse"},
    }
    STEPS = 5

    # world, gradient workers, bucket_cap_mb, dense oracle, knob, hidden width: every
    # world size, MEM- / HYBRID- / COMM-OPT, both caps and both storage modes meet every
    # knob's reader; the hidden Linear's factors sit below, at and past the stacked-``eigh`` threshold.
    ROWS = [
        (1, 1, 25.0, False, "default", 33),
        (2, 1, 0.001, False, "default", 40),
        (2, 2, 25.0, True, "default", 5),
        (3, 2, 0.001, False, "default", 32),
        (4, 1, 25.0, True, "default", 7),
        (3, 3, 25.0, False, "eigen", 34),
        (2, 1, 0.001, True, "eigen", 9),
        (4, 2, 0.001, False, "eigen", 36),
        (2, 2, 0.001, False, "eigen", 35),
        (4, 4, 25.0, False, "inverse", 38),
        (3, 1, 0.001, True, "inverse", 6),
        (1, 1, 0.001, False, "inverse", 12),
        (4, 3, 25.0, True, "inverse", 4),
    ]

    @pytest.mark.parametrize("row", ROWS, ids=lambda row: "w{}gw{}-{}-{}-{}-h{}".format(
        *row[:3], "dense" if row[3] else "structured", *row[4:]))  # fmt: skip
    @given(
        vocab=st.integers(min_value=3, max_value=12),
        dim=st.integers(min_value=2, max_value=8),
        out_features=st.integers(min_value=1, max_value=5),
        bias=st.booleans(),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=2, deadline=None, derandomize=True)
    def test_trajectory_memory_and_factor_round_equal_the_square_path_and_the_models(
        self, row, vocab, dim, out_features, bias, seed
    ):
        world, workers, bucket_cap_mb, dense_factors, knob, hidden = row
        from kernel_oracle import use_square_path

        from repro.training import Trainer

        config = KFACConfig(
            factor_update_freq=1,
            inv_update_freq=2,
            grad_worker_frac=workers / world,
            bucket_cap_mb=bucket_cap_mb,
            **self.KNOBS[knob],
        )
        rng = np.random.default_rng(seed)
        tokens = rng.integers(0, vocab, size=(24, 3))
        target = rng.standard_normal((24, 3, out_features)).astype(np.float32)
        loss_fn = nn.MSELoss()

        def program(comm, oracle):
            net_rng = np.random.default_rng(seed + 1)
            model = nn.Sequential(
                nn.Embedding(vocab, dim, rng=net_rng),
                nn.LayerNorm(dim),
                nn.Linear(dim, hidden, bias=bias, rng=net_rng),
                nn.Tanh(),
                nn.Linear(hidden, out_features, bias=bias, rng=net_rng),
            )
            pre = kfac_class(dense_factors)(model, config, comm=comm)
            if oracle:
                use_square_path(pre)
            trainer = Trainer(
                model,
                optim.SGD(model.parameters(), lr=0.05, momentum=0.9),
                lambda m, batch: loss_fn(m(batch[0]), batch[1]),
                preconditioner=pre,
                comm=comm,
            )
            losses = []
            for step in range(self.STEPS):
                local = np.arange(24)[(step + comm.rank) % world :: world]
                losses.append(trainer.train_step((tokens[local], target[local])))
            averaging = gradient_specs(model, world)
            grad_buckets = BucketManager(bucket_cap_mb).build([(s.key, s.shape, s.dtype) for s in averaging])
            return {
                "losses": losses,
                "params": np.concatenate([p.data.ravel() for p in model.parameters()]),
                "memory": pre.memory_usage(),
                "shapes": [layer.shape_info() for layer in pre.layers.values()],
                "factor_round": pre.plan.messages()["factor"],
                "grad_sync": (len(grad_buckets), sum(bucket.nbytes for bucket in grad_buckets)),
                "counted": comm_counts(comm.tracer)["allreduce"],
            }

        packed = run_spmd(world, lambda comm: program(comm, oracle=False))
        oracle = run_spmd(world, lambda comm: program(comm, oracle=True))
        for rank, (ours, theirs) in enumerate(zip(packed, oracle)):
            assert np.all(np.isfinite(ours["params"]))
            assert ours["losses"] == theirs["losses"], f"rank {rank}"
            np.testing.assert_array_equal(ours["params"], theirs["params"])
            np.testing.assert_array_equal(ours["params"], packed[0]["params"])  # and the replicas agree

        # Per-rank state: the memory model from the registered shapes, and from the dimensions themselves.
        shapes = packed[0]["shapes"]
        assert all(shape.a_repr.num_blocks == shape.g_repr.num_blocks == 1 for shape in shapes) == dense_factors
        plan = memory_spec(shapes, config=config).plan(world, config.grad_worker_frac)
        factors, eigen = plan.factor_bytes_per_rank(), plan.state_bytes_per_rank("eigen")
        for rank, entry in enumerate(packed):
            usage = entry["memory"]
            assert (usage["factors"], usage["eigen"]) == (factors[rank], eigen[rank]), f"rank {rank}: {usage}"
            assert usage["total"] == factors[rank] + plan.state_bytes_per_rank()[rank], f"rank {rank}: {usage}"
        if knob == "default":  # every factor held once in the world: b(b+1)/2 elements per block
            once = sum(
                r.dim // r.block_size * r.block_size * (r.block_size + 1) // 2 for s in shapes for r in (s.a_repr, s.g_repr)
            )
            assert sum(entry["memory"]["factors"] for entry in packed) == 4 * once

        # Every rank's allreduces are the factor round and the gradient averaging, both every step.
        (grad_messages, grad_bytes), factor_round = packed[0]["grad_sync"], packed[0]["factor_round"]
        for entry in packed:
            messages, nbytes, _ = entry["counted"]
            assert messages == self.STEPS * (len(factor_round) + (grad_messages if world > 1 else 0))
            assert nbytes == self.STEPS * (sum(nbytes for _, nbytes in factor_round) + (grad_bytes if world > 1 else 0))
        if world > 1:
            itemsize = 4
            assert sum(nbytes for _, nbytes in factor_round) == itemsize * sum(
                shape.a_repr.packed_numel + shape.g_repr.packed_numel for shape in shapes
            )


class TestMemoryModelProperties:
    @given(
        st.lists(st.tuples(st.integers(min_value=2, max_value=64), st.integers(min_value=2, max_value=64)), min_size=1, max_size=8),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_factors_are_stored_once_and_the_busiest_rank_counts_them_with_its_eigen_state(self, dims, world_size, workers):
        layers = [LayerShapeInfo.dense(f"l{i}", a, g) for i, (a, g) in enumerate(dims)]
        spec = memory_spec(layers, param_count=10_000, config=KFACConfig(solve_strategy="eigen"))
        frac = min(workers, world_size) / world_size
        plan = spec.plan(world_size, frac)
        factors, eigen = plan.factor_bytes_per_rank(), plan.state_bytes_per_rank("eigen")
        assert factors.sum() == spec.factor_bytes == sum(a * (a + 1) // 2 + g * (g + 1) // 2 for a, g in dims) * 4
        assert np.all(eigen[factors > 0] > 0)  # whoever decomposes a factor is one of its gradient workers
        assert overhead_bytes(spec, world_size, frac, rank="max") == (factors + eigen).max()
        assert overhead_bytes(spec, world_size, frac, rank="max") <= spec.factor_bytes + eigen.max()

    @given(
        st.lists(st.tuples(st.integers(min_value=2, max_value=64), st.integers(min_value=2, max_value=64)), min_size=1, max_size=8),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=16),
    )
    @example(dims=[(129, 128), (129, 128), (513, 128), (129, 512)], world_size=2, workers=1)
    @example(dims=[(5, 4), (4, 4), (6, 5), (3, 2)], world_size=4, workers=2)
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_the_inverse_path_keeps_factors_on_one_decomposer_and_paired_inverse_triangles_on_the_gradient_workers(
        self, dims, world_size, workers
    ):
        """A rank's dense inverses cost the fewest elements that hold them two to a buffer, pairs differing in
        dimension by at most one: ``(n+1)·n`` for two of ``n``, ``(n+1)²`` for ``n+1`` and ``n``, ``n²`` alone."""
        layers = [LayerShapeInfo.dense(f"l{i}", a, g) for i, (a, g) in enumerate(dims)]
        spec = memory_spec(layers, param_count=10_000)  # the default solve path
        frac = min(workers, world_size) / world_size
        plan = spec.plan(world_size, frac)
        factors, solver = plan.factor_bytes_per_rank(), plan.state_bytes_per_rank("solver")
        assert factors.sum() == spec.factor_bytes and not plan.state_bytes_per_rank("eigen").any()
        held: list = [[] for _ in range(world_size)]
        for name, group in plan.groups.items():
            for rank in group.grad_workers:
                held[rank] += [group.layer.a_dim, group.layer.g_dim]
            decomposer = group.decomposer("a")
            assert group.decomposer("g") == decomposer and decomposer in group.grad_workers
        np.testing.assert_array_equal(solver, [4 * fewest_paired_elements(rank_dims) for rank_dims in held])
        assert overhead_bytes(spec, world_size, frac, rank="max") == (factors + solver).max()

    @given(
        st.lists(st.tuples(st.integers(min_value=2, max_value=64), st.integers(min_value=2, max_value=64)), min_size=1, max_size=8),
        st.integers(min_value=2, max_value=32),
    )
    @pytest.mark.parametrize("solver", ["inverse", "eigen"])
    @settings(max_examples=30, deadline=None)
    def test_mean_overhead_monotone_in_grad_worker_frac(self, solver, dims, world_size):
        layers = [LayerShapeInfo.dense(f"l{i}", a, g) for i, (a, g) in enumerate(dims)]
        spec = memory_spec(layers, param_count=10_000, config=KFACConfig(solve_strategy=solver))
        overheads = [overhead_bytes(spec, world_size, frac, rank="mean") for frac in (1 / world_size, 0.5, 1.0)]
        assert overheads[0] <= overheads[1] <= overheads[2]

    @given(
        st.lists(st.tuples(st.integers(min_value=2, max_value=64), st.integers(min_value=2, max_value=64)), min_size=1, max_size=8),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=30, deadline=None)
    def test_total_eigen_bytes_conserved_across_ranks_in_mem_opt(self, dims, world_size):
        """Under MEM-OPT every layer's eigen state exists exactly once in the world."""
        layers = [LayerShapeInfo.dense(f"l{i}", a, g) for i, (a, g) in enumerate(dims)]
        spec = memory_spec(layers, param_count=10_000, config=KFACConfig(solve_strategy="eigen"))
        per_rank = spec.plan(world_size, 1.0 / world_size).state_bytes_per_rank("eigen")
        assert per_rank.sum() == sum(EigenSolveStrategy.state_bytes([layer], spec.config.precision_policy()) for layer in layers)


class TestNoDeadKnobProperties:
    """Every ``KFACConfig`` field at a non-default value moves a bit, a byte or a message -- or is refused.

    One row per field: the value, and the context (other fields) in which its reader acts on a tiny MLP at
    world 2.  Against the same context at the field's default, the run must differ in the parameters after
    a few Listing 1 steps, ``plan.digest()``, a rank's ``memory_usage()`` or its comm messages / bytes;
    a value no reachable solve path reads is refused at construction, naming the field.  A field with no
    row fails, so a field added later needs a row here -- or is a deletion candidate.
    """

    COMMON = dict(factor_update_freq=1, inv_update_freq=2)
    ROWS = {
        "factor_decay": ({}, dict(factor_decay=0.5)),
        "damping": ({}, dict(damping=0.05)),
        "kl_clip": ({}, dict(kl_clip=1e-6)),
        "factor_update_freq": ({}, dict(factor_update_freq=2)),
        "inv_update_freq": ({}, dict(inv_update_freq=3)),
        "grad_worker_frac": ({}, dict(grad_worker_frac=0.5)),
        "precision": ({}, dict(precision="fp16")),
        "assignment_balance": ({"grad_worker_frac": 0.5}, dict(assignment_balance="memory")),
        "bucket_cap_mb": ({}, dict(bucket_cap_mb=1e-6)),
        "adaptive_damping": ({}, dict(adaptive_damping=True)),
        "solve_strategy": ({}, dict(solve_strategy="eigen")),
    }
    STEPS = 4
    _observed = {}

    @classmethod
    def observe(cls, config):
        """Per rank: the parameters' bytes after ``STEPS`` steps, the plan digest, ``memory_usage()`` and comm counts."""
        key = tuple(sorted(config.to_dict().items()))
        if key not in cls._observed:
            from repro.models import MLP

            rng = np.random.default_rng(3)
            x = rng.standard_normal((32, 6)).astype(np.float32)
            y = rng.integers(0, 3, size=32)
            loss_fn = nn.CrossEntropyLoss()

            def program(comm):
                model = MLP(6, [8, 30], 3, rng=np.random.default_rng(4))  # factor dims 7 / 8, 9 / 30, 31 / 3
                pre = KFAC(model, config, comm=comm)
                ddp, optimizer = DistributedDataParallel(model, comm), optim.SGD(model.parameters(), lr=0.05)
                for step in range(cls.STEPS):  # Listing 1
                    local = np.arange(32)[(step + comm.rank) % 2 :: 2]
                    optimizer.zero_grad()
                    loss = loss_fn(model(Tensor(x[local])), y[local])
                    loss.backward()
                    ddp.sync_gradients()
                    pre.step(lr=optimizer.param_groups[0]["lr"], loss=float(loss.item()))
                    optimizer.step()
                params = np.concatenate([p.data.ravel() for p in model.parameters()]).tobytes()
                observed = params, pre.plan.digest(), pre.memory_usage(), comm_counts(comm.tracer)
                pre.remove()
                return observed

            cls._observed[key] = run_spmd(2, program)
        return cls._observed[key]

    @pytest.mark.parametrize("field", [field.name for field in dataclasses.fields(KFACConfig)])
    def test_every_field_moves_a_bit_a_byte_or_a_message_or_is_refused(self, field):
        assert field in self.ROWS, f"KFACConfig.{field} has no row: give it a value its reader acts on"
        context, value = self.ROWS[field]
        assert set(value) == {field}
        base = KFACConfig(**dict(self.COMMON, **context))
        try:
            config = base.replace(**value)
        except ValueError as error:
            assert str(error).startswith(field), error
            return
        assert getattr(config, field) != getattr(base, field)
        before, after = self.observe(base), self.observe(config)
        moved = [what for index, what in enumerate(("parameters", "plan", "state bytes", "comm"))
                 if [rank[index] for rank in before] != [rank[index] for rank in after]]  # fmt: skip
        assert moved, f"{field}={value[field]!r} moved nothing on its path"

"""Tests for the one gradient-sync path, ``DistributedDataParallel.sync_gradients``.

Covers the acceptance criterion that a ``Trainer`` step is the paper's
Listing 1: a hand-written loop of ``sync_gradients`` -> ``KFAC.step`` ->
``optimizer.step`` reaches the same parameters bit for bit, for
MEM/HYBRID/COMM-OPT on the threaded backend at any bucket cap, under gradient
accumulation and at world 1.  Also what the sync point puts on the wire
(which gradients travel, in what order and dtype, the 1/n scale applied once,
one message per planned bucket, the sanitizer's drained check), the
registry-driven LayerNorm coverage exercised through the hooks.
"""

import numpy as np
import pytest

from repro import nn, optim
from repro.distributed import (
    BucketManager,
    DistributedDataParallel,
    gradient_specs,
    run_spmd,
)
from repro.kfac import KFAC, LAYER_HANDLERS, KFACConfig, KFACLayerNormLayer
from repro.models import MLP
from repro.tensor import Tensor
from repro.training import Trainer

from counters import comm_counts, total_messages


def make_problem(seed=0, samples=64, in_dim=6, classes=3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((samples, in_dim)).astype(np.float32)
    w = rng.standard_normal((in_dim, classes)).astype(np.float32)
    y = (x @ w).argmax(axis=1)
    return x, y


class NormNet(nn.Module):
    """Linear -> LayerNorm -> Linear, exercising the LayerNorm K-FAC handler."""

    def __init__(self, rng):
        super().__init__()
        self.fc1 = nn.Linear(6, 12, rng=rng)
        self.norm = nn.LayerNorm(12)
        self.act = nn.ReLU()
        self.fc2 = nn.Linear(12, 3, rng=rng)

    def forward(self, x):
        return self.fc2(self.act(self.norm(self.fc1(x))))


def build_model(kind, seed=0):
    rng = np.random.default_rng(seed)
    if kind == "norm":
        return NormNet(rng)
    return MLP(6, [12, 8], 3, rng=rng)


def listing_one_step(model, optimizer, forward_loss, ddp, pre, batches, rate=None):
    """The paper's Listing 1 by hand: backward over the micro-batches, sync, ``KFAC.step``, ``optimizer.step``.

    ``KFAC.step`` takes the rate the optimizer is about to apply, or ``rate`` when one is given."""
    model.train()
    optimizer.zero_grad()
    total = 0.0
    for batch in batches:
        loss = forward_loss(model, batch)
        total += float(loss.item())
        loss.backward()
    ddp.sync_gradients(1.0 / len(batches))
    if pre is not None:
        pre.step(lr=optimizer.param_groups[0]["lr"] if rate is None else rate, loss=total / len(batches))
    optimizer.step()
    return total / len(batches)


class TestListingOneParity:
    """Acceptance: ``Trainer.train_step`` == a hand-written Listing-1 loop, bitwise, on every rank."""

    WORLD = 4
    STEPS = 3

    def _train(
        self, frac, cap, by_hand, kind="mlp", factor_freq=1, micro=1, world=WORLD, seed=11, kl_clip=0.001, steps=STEPS,
        schedule=False, rate=None,
    ):  # fmt: skip
        x, y = make_problem(seed=seed)
        loss_fn = nn.CrossEntropyLoss()

        def forward_loss(m, batch):
            return loss_fn(m(Tensor(batch[0])), batch[1])

        def program(comm):
            model = build_model(kind)
            config = KFACConfig(
                grad_worker_frac=frac,
                factor_update_freq=factor_freq,
                inv_update_freq=factor_freq,
                bucket_cap_mb=cap,
                kl_clip=kl_clip,
            )
            pre = KFAC.from_config(model, config, comm=comm)
            optimizer = optim.SGD(model.parameters(), lr=0.05, momentum=0.9)
            scheduler = optim.WarmupCosine(optimizer, total_steps=10, warmup_steps=3) if schedule else None
            if by_hand:
                ddp = DistributedDataParallel(model, comm, broadcast_initial=False, bucket_cap_mb=pre.plan.bucket_cap_mb)

                def step(batches):
                    loss = listing_one_step(model, optimizer, forward_loss, ddp, pre, batches, rate)
                    if scheduler is not None:
                        scheduler.step()
                    return loss

            else:
                trainer = Trainer(model, optimizer, forward_loss, preconditioner=pre, lr_scheduler=scheduler, comm=comm)
                step = trainer.train_step
            n = x.shape[0] // comm.world_size
            xs, ys = x[comm.rank * n : (comm.rank + 1) * n], y[comm.rank * n : (comm.rank + 1) * n]
            size = xs.shape[0] // micro
            batches = [(xs[i * size : (i + 1) * size], ys[i * size : (i + 1) * size]) for i in range(micro)]
            losses = [step(batches) for _ in range(steps)]
            return losses, np.concatenate([p.data.ravel() for p in model.parameters()])

        return run_spmd(world, program)

    def _assert_same(self, *args, **kwargs):
        trainer = self._train(*args, by_hand=False, **kwargs)
        by_hand = self._train(*args, by_hand=True, **kwargs)
        for rank, ((losses, params), (hand_losses, hand_params)) in enumerate(zip(trainer, by_hand)):
            assert losses == hand_losses, f"rank {rank}"
            np.testing.assert_array_equal(params, hand_params, err_msg=f"rank {rank} Trainer != Listing 1")
            np.testing.assert_array_equal(params, trainer[0][1], err_msg=f"rank {rank} replicas differ")

    @pytest.mark.parametrize("cap", [1e-6, 0.001], ids=["per-tensor", "fused"])
    @pytest.mark.parametrize("frac", [0.25, 0.5, 1.0], ids=["mem-opt", "hybrid-opt", "comm-opt"])
    def test_trainer_is_listing_one_bitwise(self, frac, cap):
        self._assert_same(frac, cap)

    def test_infrequent_factor_updates(self):
        # A factor window every 2 steps: off-iterations carry only the gradient buckets.
        self._assert_same(0.5, 0.001, factor_freq=2)

    @pytest.mark.parametrize("world", [1, 2])
    def test_a_scheduled_rate_reaches_the_kl_clip_as_the_trainer_passes_it(self, world):
        """Under ``WarmupCosine`` the hand-written loop passes ``optimizer.param_groups[0]["lr"]`` to
        ``KFAC.step``, as the ``Trainer`` does, and gets its bits; passing the base rate instead moves them."""
        self._assert_same(1.0, 0.001, world=world, schedule=True, steps=8)
        trainer = self._train(1.0, 0.001, by_hand=False, world=world, schedule=True, steps=8)
        base_rate = self._train(1.0, 0.001, by_hand=True, world=world, schedule=True, steps=8, rate=0.05)
        assert not np.array_equal(trainer[0][1], base_rate[0][1])

    def test_grad_accumulation(self):
        # A KL clip this wide never binds, so the update carries the 1/n scale (a binding clip would absorb it).
        self._assert_same(1.0, 1e-6, micro=2, kl_clip=10.0)

    def test_layernorm_model(self):
        self._assert_same(0.5, 1e-6, kind="norm")

    def test_single_process(self):
        self._assert_same(1.0, 25.0, world=1)


class TestTrainerSync:
    def test_frozen_parameter_is_not_averaged(self):
        x, y = make_problem(seed=13)
        loss_fn = nn.CrossEntropyLoss()

        def program(comm):
            model = build_model("mlp")
            frozen = list(model.parameters())[0]
            frozen.requires_grad = False
            trainer = Trainer(
                model,
                optim.SGD(model.parameters(), lr=0.1),
                lambda m, batch: loss_fn(m(Tensor(batch[0])), batch[1]),
                comm=comm,
            )
            sl = slice(comm.rank * 32, (comm.rank + 1) * 32)
            trainer.train_step((x[sl], y[sl]))
            return frozen.grad is None, comm_counts(comm.tracer)["allreduce"]

        for untouched, (messages, _, tensors) in run_spmd(2, program):
            assert untouched and (messages, tensors) == (1, 5)

    def test_branch_skipped_in_final_microbatch_still_averaged(self):
        """A parameter with gradients from earlier micro-batches only is scaled and averaged like any other."""
        x, y = make_problem(seed=19)
        loss_fn = nn.CrossEntropyLoss()

        class TwoHead(nn.Module):
            def __init__(self):
                super().__init__()
                r = np.random.default_rng(0)
                self.trunk = nn.Linear(6, 8, rng=r)
                self.head_a = nn.Linear(8, 3, rng=r)
                self.head_b = nn.Linear(8, 3, rng=r)

            def forward(self, inputs, use_b):
                hidden = self.trunk(inputs)
                logits = self.head_a(hidden)
                if use_b:
                    logits = logits + self.head_b(hidden)
                return logits

        def program(comm):
            model = TwoHead()
            local = {}

            class Spy(optim.SGD):
                def step(self):
                    local.update(averaged=np.concatenate([p.grad.ravel() for p in model.parameters()]))

            trainer = Trainer(
                model,
                Spy(model.parameters(), lr=0.1),
                lambda m, batch: loss_fn(m(Tensor(batch[0]), batch[2]), batch[1]),
                comm=comm,
            )
            sync = trainer.ddp.sync_gradients

            def spy(grad_scale):
                local["summed"] = np.concatenate([p.grad.ravel() for p in model.parameters()])
                sync(grad_scale)

            trainer.ddp.sync_gradients = spy
            n = x.shape[0] // comm.world_size
            sl = slice(comm.rank * n, (comm.rank + 1) * n)
            # head_b takes part in the first micro-batch only.
            trainer.train_step([(x[sl], y[sl], True), (x[sl], y[sl], False)])
            return local

        results = run_spmd(2, program)
        expected = ((results[0]["summed"] * 0.5 + results[1]["summed"] * 0.5) / 2).astype(np.float32)
        for local in results:
            np.testing.assert_array_equal(local["averaged"], expected)

    def test_trainer_without_comm_averages_nothing_and_does_not_raise(self):
        """``Trainer(comm=None)`` means no gradient averaging, whatever the
        preconditioner communicates over: the sync must not borrow K-FAC's
        multi-rank communicator, and must not refuse the configuration."""
        x, y = make_problem(seed=31)
        loss_fn = nn.CrossEntropyLoss()

        def program(comm):
            model = build_model("mlp")
            pre = KFAC(model, factor_update_freq=1, inv_update_freq=1, comm=comm)
            trainer = Trainer(
                model,
                optim.SGD(model.parameters(), lr=0.1),
                lambda m, batch: loss_fn(m(Tensor(batch[0])), batch[1]),
                preconditioner=pre,
                comm=None,
            )
            assert trainer.ddp.comm.world_size == 1
            sl = slice(comm.rank * 16, (comm.rank + 1) * 16)
            trainer.train_step((x[sl], y[sl]))
            # K-FAC's own collectives ran -- its factor round is every allreduce byte -- and nothing carried the gradients.
            factor_round = pre.plan.messages(step=0)["factor"]
            counted = comm_counts(comm.tracer)
            assert counted["allreduce"][:2] == (len(factor_round), sum(nbytes for _, nbytes in factor_round))
            assert counted["broadcast"][0] > 0
            assert comm_counts(trainer.ddp.comm.tracer) == {"allreduce": (0, 0, 0), "broadcast": (0, 0, 0)}

        run_spmd(2, program)

    def test_sync_gradients_averages_every_existing_gradient_once(self):
        """One call posts every gradient that exists, once, in one fused message under the default cap."""
        x, y = make_problem(seed=33)
        loss_fn = nn.CrossEntropyLoss()

        def program(comm):
            model = build_model("mlp")
            frozen = list(model.parameters())[0]
            frozen.requires_grad = False
            ddp = DistributedDataParallel(model, comm)
            for _ in range(2):
                for p in model.parameters():
                    p.grad = None
                n = x.shape[0] // comm.world_size
                loss_fn(model(Tensor(x[comm.rank * n : (comm.rank + 1) * n])), y[comm.rank * n : (comm.rank + 1) * n]).backward()
                local = [p.grad.copy() for p in model.parameters() if p.grad is not None]
                ddp.sync_gradients()
                averaged = [p.grad for p in model.parameters() if p.grad is not None]
                assert len(averaged) == len(local) == 5 and frozen.grad is None
            averaged, local = (np.concatenate([g.ravel() for g in grads]) for grads in (averaged, local))
            return averaged, local, comm_counts(comm.tracer)["allreduce"]

        results = run_spmd(2, program)
        mean_of_locals = (results[0][1] + results[1][1]) / 2
        for averaged, _, (messages, _, tensors) in results:
            np.testing.assert_array_equal(averaged, mean_of_locals.astype(np.float32))
            # Two steps, one fused message each, five tensors in it.
            assert (messages, tensors) == (2, 10)

    def test_trainer_uses_the_plans_cap(self):
        model = build_model("mlp")
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1, bucket_cap_mb=0.004)
        trainer = Trainer(
            model,
            optim.SGD(model.parameters(), lr=0.1),
            lambda m, batch: m(Tensor(batch)).sum(),
            preconditioner=pre,
        )
        assert trainer.ddp.scheduler.buckets.bucket_cap_mb == pre.plan.bucket_cap_mb

    def test_step_posts_the_plan_factor_buckets(self):
        """``KFAC.step`` posts the ``(members, nbytes)`` buckets of ``plan.messages(step=t)``, in order.

        MLP 6-16-12-3 at world 2 under a 0.0005 MB cap, which splits the round: in reverse
        layer order it is 4 buckets (in registration order it would be 5).
        """
        x, y = make_problem(seed=41)
        loss_fn = nn.CrossEntropyLoss()

        def program(comm):
            posted, post = [], comm.iallreduce_average

            def recording(array, group=None, fused_count=1):
                posted.append((tuple(range(comm.world_size)) if group is None else tuple(group), array.nbytes))
                return post(array, group=group, fused_count=fused_count)

            comm.iallreduce_average = recording
            model = MLP(6, [16, 12], 3, rng=np.random.default_rng(0))
            pre = KFAC(model, factor_update_freq=1, inv_update_freq=1, bucket_cap_mb=0.0005, comm=comm)
            sl = slice(comm.rank * 16, (comm.rank + 1) * 16)
            rounds = []
            for _ in range(2):
                posted.clear()
                loss_fn(model(Tensor(x[sl])), y[sl]).backward()
                expected = pre.plan.messages(step=pre.steps)["factor"]
                pre.step(lr=0.1)
                rounds.append((list(posted), expected))
                for param in model.parameters():
                    param.grad = None
            return rounds

        everyone = (0, 1)
        split = [(everyone, 388), (everyone, 612), (everyone, 424), (everyone, 544)]
        for rounds in run_spmd(2, program):
            for posted, expected in rounds:
                assert posted == expected == split


class TestDefaultSeam:
    """What a ``Trainer`` does at its one sync point."""

    STEPS = 3

    def _run(self, with_kfac, micro=1, traced=True):
        x, y = make_problem(seed=37)
        loss_fn = nn.CrossEntropyLoss()

        def program(comm):
            comm.tracer.enabled = traced
            model = build_model("mlp")
            pre = None
            if with_kfac:
                pre = KFAC(model, factor_update_freq=1, inv_update_freq=1, grad_worker_frac=0.5, comm=comm)
            trainer = Trainer(
                model,
                optim.SGD(model.parameters(), lr=0.05),
                lambda m, batch: loss_fn(m(Tensor(batch[0])), batch[1]),
                preconditioner=pre,
                comm=comm,
            )
            sl = slice(comm.rank * 32, (comm.rank + 1) * 32)
            batch = (x[sl], y[sl])
            for _ in range(self.STEPS):
                trainer.train_step([batch] * micro if micro > 1 else batch)
            return trainer

        return run_spmd(2, program)

    @pytest.mark.parametrize("with_kfac", [False, True], ids=["first-order", "kfac"])
    @pytest.mark.parametrize("micro", [1, 2], ids=["one-batch", "two-micro-batches"])
    def test_one_flat_gradient_allreduce_per_step_before_any_kfac_collective(self, with_kfac, micro):
        trainers = self._run(with_kfac, micro=micro)
        grad_nbytes = 4 * sum(p.data.size for p in trainers[0].model.parameters())
        n_tensors = len(list(trainers[0].model.parameters()))
        for trainer in trainers:
            # The rank's messages in posting order, from its traced comm spans.
            spans = sorted((s for s in trainer.tracer.spans if s.category == "comm"), key=lambda s: s.start)
            assert len(spans) == total_messages(trainer.tracer)
            signature = ("allreduce", grad_nbytes, n_tensors)
            grad = [i for i, s in enumerate(spans) if (s.attrs["op"], s.attrs["nbytes"], s.attrs["fused_count"]) == signature]
            assert len(grad) == self.STEPS
            if not with_kfac:
                assert len(spans) == self.STEPS
                continue
            # Each step's traffic opens with the gradient bucket: the K-FAC
            # collectives of step k all sit between gradient message k and k+1.
            assert grad[0] == 0
            per_step = np.diff(grad + [len(spans)])
            assert np.all(per_step > 1) and len(set(per_step)) == 1

    def test_traced_run_records_one_grad_sync_span_per_step(self):
        """The gradient bucket goes through the OverlapScheduler like every
        other collective, so measured-comm reporting sees it; the sync point's
        own span is not a collective."""
        trainers = self._run(with_kfac=False)
        grad_nbytes = 4 * sum(p.data.size for p in trainers[0].model.parameters())
        for trainer in trainers:
            spans = [s for s in trainer.tracer.spans if s.name == "comm/allreduce"]
            assert [s.attrs["nbytes"] for s in spans] == [grad_nbytes] * self.STEPS
            syncs = [s for s in trainer.tracer.spans if s.name == "trainer/grad_sync"]
            assert len(syncs) == self.STEPS and all(s.category != "comm" for s in syncs)
            assert comm_counts(trainer.tracer)["allreduce"][0] == self.STEPS

    @pytest.mark.parametrize("micro", [1, 2], ids=["one-batch", "two-micro-batches"])
    def test_single_rank_keeps_gradient_dtype(self, micro):
        """One rank has nobody to average with: float64 gradients stay float64,
        scaled by 1/n under accumulation and nothing else."""
        rng = np.random.default_rng(0)
        x, y = make_problem(seed=41)
        model = MLP(6, [8], 3, rng=rng)
        for p in model.parameters():
            p.data = p.data.astype(np.float64)
        seen = {}

        class Spy(optim.SGD):
            def step(self):
                seen.update({id(p): p.grad for p in model.parameters()})
                super().step()

        loss_fn = nn.CrossEntropyLoss()

        def forward_loss(m, batch):
            return loss_fn(m(Tensor(batch[0].astype(np.float64))), batch[1])

        trainer = Trainer(model, Spy(model.parameters(), lr=0.0), forward_loss)
        batch = (x[:16], y[:16])
        trainer.train_step([batch] * micro if micro > 1 else batch)
        # Reference: the same gradient by hand, summed over micro-batches.
        for p in model.parameters():
            p.grad = None
        for _ in range(micro):
            forward_loss(model, batch).backward()
        for p in model.parameters():
            got = seen[id(p)]
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, p.grad * (1.0 / micro) if micro > 1 else p.grad)

    def test_single_rank_unscaled_step_leaves_gradient_arrays_alone(self):
        x, y = make_problem(seed=43)
        model = build_model("mlp")
        loss_fn = nn.CrossEntropyLoss()
        after_backward = {}
        at_step = {}

        class Spy(optim.SGD):
            def step(self):
                at_step.update({id(p): p.grad for p in model.parameters()})

        trainer = Trainer(model, Spy(model.parameters(), lr=0.1), lambda m, b: loss_fn(m(Tensor(b[0])), b[1]))
        sync = trainer.ddp.sync_gradients

        def spy(grad_scale):
            after_backward.update({id(p): p.grad for p in model.parameters()})
            sync(grad_scale)

        trainer.ddp.sync_gradients = spy
        trainer.train_step((x[:16], y[:16]))
        assert after_backward and all(at_step[key] is after_backward[key] for key in after_backward)
        assert total_messages(trainer.tracer) == 0


def model_with_gradients(rank=0, dtype=np.float32, frozen=(), missing=()):
    """MLP 6-16-8-3 whose parameters carry a rank-specific gradient, except ``frozen`` / ``missing`` indices."""
    model = MLP(6, [16, 8], 3, rng=np.random.default_rng(0))
    rng = np.random.default_rng(100 + rank)
    for index, param in enumerate(model.parameters()):
        param.data = param.data.astype(dtype)
        param.requires_grad = index not in frozen
        grad = rng.standard_normal(param.data.shape).astype(dtype)
        param.grad = None if index in frozen or index in missing else grad
    return model


class TestGradientSpecs:
    """``gradient_specs``: the one description of the traffic ``sync_gradients`` posts."""

    @pytest.mark.parametrize("world", [2, 4])
    def test_specs_run_in_reverse_parameter_order(self, world):
        model = model_with_gradients()
        params = list(model.parameters())
        specs = gradient_specs(model, world)
        assert [spec.key for spec in specs] == [f"grad/{i}" for i in reversed(range(len(params)))]
        assert [spec.shape for spec in specs] == [p.data.shape for p in reversed(params)]
        assert all(spec.group is None for spec in specs)  # the whole world

    def test_a_single_unscaled_rank_posts_nothing(self):
        assert gradient_specs(model_with_gradients(), 1) == []

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_a_single_scaled_rank_keeps_the_parameter_dtype(self, dtype):
        model = model_with_gradients(dtype=dtype)
        specs = gradient_specs(model, 1, grad_scale=0.5)
        assert len(specs) == len(list(model.parameters()))
        for spec, param in zip(specs, reversed(list(model.parameters()))):
            payload = spec.payload()
            assert spec.dtype == np.dtype(dtype) and payload.dtype == np.dtype(dtype) and spec.scale == 0.5
            np.testing.assert_array_equal(payload, param.grad)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_ranks_exchange_float32(self, dtype):
        model = model_with_gradients(dtype=dtype)
        for spec, param in zip(gradient_specs(model, 2), reversed(list(model.parameters()))):
            payload = spec.payload()
            assert spec.dtype == np.float32 and payload.dtype == np.float32
            np.testing.assert_array_equal(payload, param.grad.astype(np.float32))

    @pytest.mark.parametrize("world, scale", [(1, 0.5), (2, 1.0)], ids=["one-rank-scaled", "two-ranks"])
    def test_only_existing_trainable_gradients_travel(self, world, scale):
        """A frozen parameter and a trainable one without a gradient post no spec."""
        model = model_with_gradients(frozen=(0,), missing=(3,))
        travelling = [p for i, p in enumerate(model.parameters()) if i not in (0, 3)]
        specs = gradient_specs(model, world, grad_scale=scale)
        assert len(specs) == len(travelling) == 4
        for spec, param in zip(specs, reversed(travelling)):
            assert spec.shape == param.data.shape
            np.testing.assert_array_equal(spec.payload(), param.grad)

    @pytest.mark.parametrize("micro", [1, 2, 4])
    def test_every_spec_carries_the_micro_batch_scale_unapplied(self, micro):
        """The engine applies ``1/n`` once per fused buffer; the payload is the raw gradient."""
        model = model_with_gradients()
        for spec, param in zip(gradient_specs(model, 2, grad_scale=1.0 / micro), reversed(list(model.parameters()))):
            assert spec.scale == 1.0 / micro
            np.testing.assert_array_equal(spec.payload(), param.grad)

    def test_payload_reads_the_gradient_when_packed(self):
        model = model_with_gradients()
        specs = gradient_specs(model, 2)
        last = list(model.parameters())[-1]
        last.grad = np.full(last.data.shape, 3.0, dtype=np.float32)
        np.testing.assert_array_equal(specs[0].payload(), last.grad)

    def test_completion_binds_a_view_of_the_reduced_array(self):
        model = model_with_gradients()
        last = list(model.parameters())[-1]
        before = last.grad
        kept = before.copy()
        (spec,) = gradient_specs(model, 2)[:1]
        reduced = np.arange(last.data.size, dtype=np.float32)
        spec.on_complete(reduced)
        assert last.grad.shape == last.data.shape and last.grad.dtype == np.float32
        assert np.shares_memory(last.grad, reduced)  # installed, not copied
        np.testing.assert_array_equal(before, kept)  # the array param.grad was bound to is not written


class TestSyncGradientsContract:
    """``DistributedDataParallel.sync_gradients``: bucketed, scaled once, checked drained; and how the ``Trainer`` uses it."""

    CAPS = (1e-6, 0.0005, 25.0)  # a bucket per tensor, a split round, one fused bucket

    @pytest.mark.parametrize("scale", [1.0, 0.5], ids=["unscaled", "half"])
    @pytest.mark.parametrize("world", [2, 3, 4])
    def test_averages_are_the_mean_of_the_scaled_gradients_at_every_cap(self, world, scale):
        def program(comm):
            out = []
            for cap in self.CAPS:
                model = model_with_gradients(comm.rank)
                DistributedDataParallel(model, comm, broadcast_initial=False, bucket_cap_mb=cap).sync_gradients(scale)
                out.append([p.grad.copy() for p in model.parameters()])
            return out

        results = run_spmd(world, program)
        locals_ = [[p.grad for p in model_with_gradients(rank).parameters()] for rank in range(world)]
        for index in range(len(locals_[0])):
            scaled = [grads[index].astype(np.float32) * np.float32(scale) for grads in locals_]
            expected = np.mean(np.stack(scaled), axis=0)
            for rank, per_cap in enumerate(results):
                for cap, grads in zip(self.CAPS, per_cap):
                    np.testing.assert_array_equal(grads[index], expected, err_msg=f"rank {rank} cap {cap}")

    @pytest.mark.parametrize("cap", CAPS, ids=["per-tensor", "split", "fused"])
    def test_one_message_per_planned_bucket(self, cap):
        def program(comm):
            model = model_with_gradients(comm.rank)
            specs = gradient_specs(model, comm.world_size)
            planned = BucketManager(cap).build([(s.key, s.shape, s.dtype) for s in specs])
            DistributedDataParallel(model, comm, broadcast_initial=False, bucket_cap_mb=cap).sync_gradients()
            return len(planned), len(specs), comm_counts(comm.tracer)["allreduce"]

        for planned, n_specs, (messages, nbytes, tensors) in run_spmd(2, program):
            assert (messages, tensors) == (planned, n_specs)
            assert nbytes == 4 * sum(p.data.size for p in model_with_gradients().parameters())
            assert messages == {1e-6: n_specs, 0.0005: 3, 25.0: 1}[cap]

    @pytest.mark.parametrize("by_trainer", [False, True], ids=["listing-one", "trainer"])
    def test_every_sync_checks_the_rank_is_drained(self, by_trainer):
        """Under the sanitizer a hand-written loop gets the same ``assert_drained`` as a ``Trainer`` step."""
        x, y = make_problem(seed=47)
        loss_fn = nn.CrossEntropyLoss()
        steps = 3

        def program(comm):
            comm.tracer.enabled = True
            model = build_model("mlp")
            optimizer = optim.SGD(model.parameters(), lr=0.05)
            forward_loss = lambda m, batch: loss_fn(m(Tensor(batch[0])), batch[1])
            sl = slice(comm.rank * 32, (comm.rank + 1) * 32)
            if by_trainer:
                trainer = Trainer(model, optimizer, forward_loss, comm=comm)
                step = trainer.train_step
            else:
                ddp = DistributedDataParallel(model, comm, broadcast_initial=False)
                step = lambda batches: listing_one_step(model, optimizer, forward_loss, ddp, None, batches)
            for _ in range(steps):
                step([(x[sl], y[sl])])
            return [i.attrs for i in comm.tracer.instants if i.name == "sanitize/flush_check"]

        for checks in run_spmd(2, program, sanitize=True):
            assert checks == [{"where": "ddp/sync_gradients", "pending": 0}] * steps

    @pytest.mark.parametrize("micro", [2, 4])
    def test_trainer_without_comm_still_scales_by_one_over_n(self, micro):
        """``Trainer(comm=None)`` next to a two-rank K-FAC: no gradient message, the ``1/n`` scale applied once."""
        x, y = make_problem(seed=53)
        loss_fn = nn.CrossEntropyLoss()
        forward_loss = lambda m, batch: loss_fn(m(Tensor(batch[0])), batch[1])

        def program(comm):
            model = build_model("mlp")
            pre = KFAC(model, factor_update_freq=1, inv_update_freq=1, comm=comm)
            trainer = Trainer(model, optim.SGD(model.parameters(), lr=0.0), forward_loss, preconditioner=pre, comm=None)
            synced = {}
            sync = trainer.ddp.sync_gradients

            def spy(grad_scale):
                summed = [p.grad.copy() for p in model.parameters()]
                sync(grad_scale)
                synced.update(summed=summed, scaled=[p.grad.copy() for p in model.parameters()], scale=grad_scale)

            trainer.ddp.sync_gradients = spy
            sl = slice(comm.rank * 32, (comm.rank + 1) * 32)
            size = 32 // micro
            trainer.train_step([(x[sl][i * size : (i + 1) * size], y[sl][i * size : (i + 1) * size]) for i in range(micro)])
            return synced, total_messages(trainer.ddp.comm.tracer)

        for synced, gradient_messages in run_spmd(2, program):
            assert synced["scale"] == 1.0 / micro and gradient_messages == 0
            for summed, scaled in zip(synced["summed"], synced["scaled"]):
                assert scaled.dtype == summed.dtype
                np.testing.assert_array_equal(scaled, summed * (1.0 / micro))

    @pytest.mark.parametrize("cap", [None, 0.001, 1.0], ids=["no-preconditioner", "0.001", "1.0"])
    def test_trainer_caps_buckets_at_the_plan_cap(self, cap):
        model = build_model("mlp")
        pre = None if cap is None else KFAC(model, factor_update_freq=1, inv_update_freq=1, bucket_cap_mb=cap)
        trainer = Trainer(model, optim.SGD(model.parameters(), lr=0.1), lambda m, b: m(Tensor(b)).sum(), preconditioner=pre)
        assert trainer.ddp.scheduler.buckets.bucket_cap_mb == (25.0 if cap is None else cap)


class TestLayerNormRegistry:
    def test_layernorm_resolves_to_handler(self):
        assert LAYER_HANDLERS[nn.LayerNorm] is KFACLayerNormLayer

    def test_layernorm_preconditioned_via_hooks(self):
        rng = np.random.default_rng(0)
        model = NormNet(rng)
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1)
        (norm_layer,) = [l for l in pre.layers.values() if isinstance(l, KFACLayerNormLayer)]
        assert norm_layer.a_dim == 2 and norm_layer.g_dim == 12
        x, y = make_problem(seed=1)
        loss = nn.CrossEntropyLoss()(model(Tensor(x[:32])), y[:32])
        loss.backward()
        # The forward hook captured A stats; the tensor hook it armed on the output captured G.
        assert norm_layer.has_accumulated_data
        before = model.norm.weight.grad.copy()
        pre.step(lr=0.1)
        after = model.norm.weight.grad
        assert np.all(np.isfinite(after))
        assert not np.array_equal(before, after)  # actually preconditioned
        # G statistics are accumulated on the diagonal only.
        assert norm_layer.factor_g is not None
        off_diag = norm_layer.factor_g - np.diag(np.diag(norm_layer.factor_g))
        np.testing.assert_array_equal(off_diag, 0.0)

    def test_layernorm_factor_shapes_in_memory_report(self):
        rng = np.random.default_rng(0)
        model = NormNet(rng)
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1)
        x, y = make_problem(seed=1)
        nn.CrossEntropyLoss()(model(Tensor(x[:32])), y[:32]).backward()
        pre.step(lr=0.1)
        measured = pre.memory_usage()
        expected_factors = sum(group.layer.factor_bytes(pre.plan.precision) for group in pre.groups.values())
        assert measured["factors"] == expected_factors

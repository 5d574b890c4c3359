"""Tests for the gradient pipeline, the trainer's one gradient-sync seam.

Covers the GradientPipeline lifecycle (un-armed flush, arm/flush,
event-driven bucket posting, partial buckets), gradient accumulation
semantics (hooks fire once per micro-batch but buckets post once), the
acceptance criterion that an armed pipeline (a supplied instance, buckets
posted during backward) is bitwise identical to the default un-armed one
(everything posted at ``flush()``) for MEM/HYBRID/COMM-OPT on the threaded
backend, what the default seam puts on the wire, the registry-driven
LayerNorm coverage exercised through the hooks, the adaptive
``bucket_cap_mb="auto"`` selection, and the cost model's exposed-vs-hidden
communication split for hooked schedules.
"""

import numpy as np
import pytest

from repro import nn, optim
from repro.distributed import (
    EDR_INFINIBAND,
    ETHERNET_10G,
    DistributedDataParallel,
    GradientAveragingSubscriber,
    SingleProcessCommunicator,
    choose_bucket_cap,
    run_spmd,
)
from repro.experiments import paper_workload_spec
from repro.kfac import KFAC, LAYER_HANDLERS, KFACConfig, KFACLayerNormLayer, model_comm_schedule
from repro.models import MLP
from repro.tensor import Tensor
from repro.training import GradientPipeline, Trainer

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


def posted(tracer):
    """``(buckets posted from backward events, buckets posted at flush)`` the rank's registry counted."""
    counters = tracer.counters()
    return tuple(int(counters.get(f"pipeline/buckets_posted_{phase}", 0)) for phase in ("backward", "flush"))


class TestPipelineParity:
    """Acceptance: armed instance == default un-armed seam, at any bucket cap, bitwise.

    Modes: ``"sync"`` and ``"overlap"`` run the default trainer (pipeline
    never armed, everything posted at ``flush()``) with one message per tensor
    and with fused buckets; ``"hooked"`` hands the trainer a pipeline
    instance, which it arms so buckets post during backward.
    """

    WORLD = 4
    STEPS = 3

    def _train(self, frac, mode, kind="mlp", factor_freq=1, micro=1, seed=11):
        x, y = make_problem(seed=seed)
        loss_fn = nn.CrossEntropyLoss()

        def program(comm):
            model = build_model(kind)
            config = KFACConfig(
                grad_worker_frac=frac,
                factor_update_freq=factor_freq,
                inv_update_freq=factor_freq,
                # "sync": a cap below any tensor, one message per tensor;
                # otherwise a cap that fuses a few tensors per bucket.
                bucket_cap_mb=1e-6 if mode == "sync" else 0.001,
            )
            pre = KFAC.from_config(model, config, comm=comm)
            optimizer = optim.SGD(model.parameters(), lr=0.05, momentum=0.9)
            pipeline = None
            if mode == "hooked":
                pipeline = GradientPipeline(model, comm=comm, bucket_cap_mb=0.001)
            trainer = Trainer(
                model,
                optimizer,
                lambda m, batch: loss_fn(m(Tensor(batch[0])), batch[1]),
                preconditioner=pre,
                comm=comm,
                pipeline=pipeline,  # None: the trainer's own pipeline, never armed
            )
            n = x.shape[0] // comm.world_size
            sl = slice(comm.rank * n, (comm.rank + 1) * n)
            xs, ys = x[sl], y[sl]
            for _ in range(self.STEPS):
                if micro > 1:
                    size = xs.shape[0] // micro
                    batches = [(xs[i * size : (i + 1) * size], ys[i * size : (i + 1) * size]) for i in range(micro)]
                    trainer.train_step(batches)
                else:
                    trainer.train_step((xs, ys))
            return np.concatenate([p.data.ravel() for p in model.parameters()])

        return run_spmd(self.WORLD, program)

    @pytest.mark.parametrize("frac", [0.25, 0.5, 1.0], ids=["mem-opt", "hybrid-opt", "comm-opt"])
    def test_hooked_bitwise_identical_to_sync_and_overlap(self, frac):
        sync = self._train(frac, "sync")
        overlap = self._train(frac, "overlap")
        hooked = self._train(frac, "hooked")
        for rank in range(self.WORLD):
            np.testing.assert_array_equal(sync[rank], overlap[rank], err_msg=f"rank {rank} sync!=overlap")
            np.testing.assert_array_equal(sync[rank], hooked[rank], err_msg=f"rank {rank} sync!=hooked")

    def test_infrequent_factor_updates_stay_identical(self):
        # factor window every 2 steps: off-iterations post only DDP buckets.
        sync = self._train(0.5, "sync", factor_freq=2)
        hooked = self._train(0.5, "hooked", factor_freq=2)
        for a, b in zip(sync, hooked):
            np.testing.assert_array_equal(a, b)

    def test_grad_accumulation_parity(self):
        sync = self._train(1.0, "sync", micro=2)
        hooked = self._train(1.0, "hooked", micro=2)
        for a, b in zip(sync, hooked):
            np.testing.assert_array_equal(a, b)

    def test_layernorm_model_parity(self):
        sync = self._train(0.5, "sync", kind="norm")
        hooked = self._train(0.5, "hooked", kind="norm")
        for a, b in zip(sync, hooked):
            np.testing.assert_array_equal(a, b)

    def test_single_process_parity(self):
        x, y = make_problem(seed=5)
        loss_fn = nn.CrossEntropyLoss()

        def run(hooked):
            model = build_model("mlp")
            pre = KFAC(model, factor_update_freq=1, inv_update_freq=1)
            pipeline = GradientPipeline(model, comm=pre.comm) if hooked else None
            trainer = Trainer(
                model,
                optim.SGD(model.parameters(), lr=0.1),
                lambda m, batch: loss_fn(m(Tensor(batch[0])), batch[1]),
                preconditioner=pre,
                pipeline=pipeline,
            )
            for _ in range(3):
                trainer.train_step((x[:32], y[:32]))
            return np.concatenate([p.data.ravel() for p in model.parameters()])

        np.testing.assert_array_equal(run(False), run(True))


class TestPipelineMechanics:
    def _sharded_loss(self, comm, model, x, y, loss_fn):
        n = x.shape[0] // comm.world_size
        sl = slice(comm.rank * n, (comm.rank + 1) * n)
        return loss_fn(model(Tensor(x[sl])), y[sl])

    def test_buckets_post_during_backward(self):
        """The overlap claim: buckets fly before flush() is reached."""
        x, y = make_problem(seed=3)
        loss_fn = nn.CrossEntropyLoss()

        def program(comm):
            model = build_model("mlp")
            pipeline = GradientPipeline(model, comm=comm, bucket_cap_mb=0.0005)
            pipeline.add_subscriber(GradientAveragingSubscriber(model))
            pipeline.arm()
            loss = self._sharded_loss(comm, model, x, y, loss_fn)
            loss.backward()
            posted_during_backward = posted(comm.tracer)[0]
            pipeline.flush()
            return posted_during_backward, posted(comm.tracer)[1]

        for in_backward, at_flush in run_spmd(2, program):
            assert in_backward > 0
            assert at_flush == 0  # every param got a gradient; nothing left over

    def test_grad_accumulation_hooks_fire_per_microbatch_buckets_post_once(self):
        x, y = make_problem(seed=7)
        loss_fn = nn.CrossEntropyLoss()
        fired = {0: 0, 1: 0}

        def program(comm):
            model = build_model("mlp")
            params = list(model.parameters())
            params[0].register_grad_ready_hook(
                lambda p, rank=comm.rank: fired.__setitem__(rank, fired[rank] + 1)
            )
            pipeline = GradientPipeline(model, comm=comm, bucket_cap_mb=25.0)
            pipeline.add_subscriber(GradientAveragingSubscriber(model))
            for index in range(3):  # three micro-batches, pipeline armed on the last
                if index == 2:
                    pipeline.arm(grad_scale=1.0 / 3.0)
                loss = self._sharded_loss(comm, model, x, y, loss_fn)
                loss.backward()
            pipeline.flush()
            return sum(posted(comm.tracer)), comm_counts(comm.tracer)["allreduce"]

        results = run_spmd(2, program)
        # The grad-ready hook fired once per micro-batch backward...
        assert fired == {0: 3, 1: 3}
        # ...but the whole step issued exactly ONE fused allreduce message
        # (6 small tensors under a 25 MB cap), posted once.
        for buckets, (messages, _, tensors) in results:
            assert (buckets, messages, tensors) == (1, 1, 6)

    def test_pipeline_matches_explicit_allreduce_bitwise(self):
        """Armed pipeline == ``DistributedDataParallel.sync_gradients`` in a hand-written loop."""
        x, y = make_problem(seed=9)
        loss_fn = nn.CrossEntropyLoss()

        def run(hooked):
            def program(comm):
                model = build_model("mlp")
                ddp = DistributedDataParallel(model, comm, bucket_cap_mb=0.0005)
                if hooked:
                    pipeline = GradientPipeline(model, comm=comm, bucket_cap_mb=0.0005)
                    pipeline.add_subscriber(ddp.subscriber())
                    pipeline.arm()
                loss = self._sharded_loss(comm, model, x, y, loss_fn)
                loss.backward()
                if hooked:
                    pipeline.flush()
                else:
                    ddp.sync_gradients()
                return np.concatenate([p.grad.ravel() for p in model.parameters()])

            return run_spmd(4, program)

        for a, b in zip(run(False), run(True)):
            np.testing.assert_array_equal(a, b)

    def test_frozen_parameter_is_skipped_like_sync_path(self):
        x, y = make_problem(seed=13)
        loss_fn = nn.CrossEntropyLoss()

        def program(comm):
            model = build_model("mlp")
            frozen = list(model.parameters())[0]
            frozen.requires_grad = False
            pipeline = GradientPipeline(model, comm=comm)
            pipeline.add_subscriber(GradientAveragingSubscriber(model))
            pipeline.arm()
            self._sharded_loss(comm, model, x, y, loss_fn).backward()
            pipeline.flush()
            return frozen.grad is None

        assert all(run_spmd(2, program))

    def test_branch_skipped_in_final_microbatch_still_averaged(self):
        """A param with gradients from earlier micro-batches only: its gate
        never fires during the armed backward, but flush() must still scale
        and average it exactly like the default un-armed pipeline."""
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

        def run(hooked):
            def program(comm):
                model = TwoHead()
                trainer = Trainer(
                    model,
                    optim.SGD(model.parameters(), lr=0.1),
                    lambda m, batch: loss_fn(m(Tensor(batch[0]), batch[2]), batch[1]),
                    comm=comm,
                    pipeline=GradientPipeline(model, comm=comm, bucket_cap_mb=0.0005) if hooked else None,
                )
                n = x.shape[0] // comm.world_size
                sl = slice(comm.rank * n, (comm.rank + 1) * n)
                # head_b participates in the first micro-batch only; the
                # final (armed) backward never fires its grad-ready gate.
                trainer.train_step([(x[sl], y[sl], True), (x[sl], y[sl], False)])
                assert model.head_b.weight.grad is not None
                return np.concatenate([p.grad.ravel() for p in model.parameters()])

            return run_spmd(2, program)

        for a, b in zip(run(False), run(True)):
            np.testing.assert_array_equal(a, b)

    def test_trainer_rejects_mismatched_pipeline_comm(self):
        def program(comm):
            model = build_model("mlp")
            pipeline = GradientPipeline(model)  # forgotten comm= -> single-process
            try:
                Trainer(
                    model,
                    optim.SGD(model.parameters(), lr=0.1),
                    lambda m, batch: m(Tensor(batch)).sum(),
                    comm=comm,
                    pipeline=pipeline,
                )
            except ValueError as error:
                return "communicator" in str(error)
            return False

        assert all(run_spmd(2, program))

    def test_shared_module_folds_factors_after_last_invocation(self):
        """A module applied twice per forward emits two backward events; the
        K-FAC factor bucket must wait for the LAST one so both invocations'
        G statistics are folded — bitwise identical to the un-armed default."""
        x, y = make_problem(seed=23)
        loss_fn = nn.CrossEntropyLoss()

        class SharedNet(nn.Module):
            def __init__(self):
                super().__init__()
                r = np.random.default_rng(0)
                self.embed = nn.Linear(6, 6, rng=r)
                self.act = nn.ReLU()
                self.head = nn.Linear(6, 3, rng=r)

            def forward(self, inputs):
                hidden = self.act(self.embed(inputs))
                hidden = self.act(self.embed(hidden))  # same module, twice
                return self.head(hidden)

        def run(hooked):
            def program(comm):
                model = SharedNet()
                pre = KFAC(model, factor_update_freq=1, inv_update_freq=1, comm=comm)
                trainer = Trainer(
                    model,
                    optim.SGD(model.parameters(), lr=0.05),
                    lambda m, batch: loss_fn(m(Tensor(batch[0])), batch[1]),
                    preconditioner=pre,
                    comm=comm,
                    pipeline=GradientPipeline(model, comm=comm, bucket_cap_mb=0.0005) if hooked else None,
                )
                n = x.shape[0] // comm.world_size
                sl = slice(comm.rank * n, (comm.rank + 1) * n)
                for _ in range(2):
                    trainer.train_step((x[sl], y[sl]))
                return np.concatenate([p.data.ravel() for p in model.parameters()])

            return run_spmd(2, program)

        for a, b in zip(run(False), run(True)):
            np.testing.assert_array_equal(a, b)

    def test_abort_discards_posted_collectives(self):
        """Buckets posted mid-backward before a failure must never deliver
        their stale results into a later step."""
        x, y = make_problem(seed=27)
        loss_fn = nn.CrossEntropyLoss()
        model = build_model("mlp")
        comm = SingleProcessCommunicator()
        pipeline = GradientPipeline(model, comm=comm, bucket_cap_mb=0.0005)
        pipeline.add_subscriber(GradientAveragingSubscriber(model))

        # A single rank publishes gradient specs only under a micro-batch scale.
        pipeline.arm(grad_scale=0.5)
        loss_fn(model(Tensor(x[:16])), y[:16]).backward()
        assert posted(comm.tracer)[0] > 0  # work in flight
        pipeline.abort()  # step failed; posted buckets must be swallowed
        assert not pipeline.scheduler._in_flight

        for p in model.parameters():
            p.grad = None
        pipeline.arm(grad_scale=0.5)
        loss_fn(model(Tensor(x[16:32])), y[16:32]).backward()
        expected = [p.grad * 0.5 for p in model.parameters()]
        pipeline.flush()  # must dispatch ONLY this step's buckets
        for param, reference in zip(model.parameters(), expected):
            np.testing.assert_array_equal(param.grad, reference)

    def test_trainer_without_comm_averages_nothing_and_does_not_raise(self):
        """``Trainer(comm=None)`` means no gradient averaging, whatever the
        preconditioner communicates over: the seam must not borrow K-FAC's
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
            assert trainer.pipeline.comm.world_size == 1
            sl = slice(comm.rank * 16, (comm.rank + 1) * 16)
            trainer.train_step((x[sl], y[sl]))
            # K-FAC's own collectives ran -- its factor round is every allreduce byte -- and nothing carried the gradients.
            factor_round = pre.plan.messages(step=0)["factor"]
            counted = comm_counts(comm.tracer)
            assert counted["allreduce"][:2] == (len(factor_round), sum(nbytes for _, nbytes in factor_round))
            assert counted["broadcast"][0] > 0
            assert comm_counts(trainer.pipeline.comm.tracer) == {"allreduce": (0, 0, 0), "broadcast": (0, 0, 0)}

        run_spmd(2, program)

    def test_flush_without_arm_posts_flush_ready_specs_once(self):
        """A never-armed pipeline is the explicit path: flush() plans the step,
        posts every spec whose gradient exists, once, and registers no hook."""
        x, y = make_problem(seed=33)
        loss_fn = nn.CrossEntropyLoss()
        hook_counts = []

        def program(comm):
            model = build_model("mlp")
            frozen = list(model.parameters())[0]
            frozen.requires_grad = False
            pipeline = GradientPipeline(model, comm=comm)
            pipeline.add_subscriber(GradientAveragingSubscriber(model))
            for _ in range(2):
                for p in model.parameters():
                    p.grad = None
                self._sharded_loss(comm, model, x, y, loss_fn).backward()
                local = [p.grad.copy() for p in model.parameters() if p.grad is not None]
                before = posted(comm.tracer)
                pipeline.flush()
                assert not pipeline.armed
                assert np.subtract(posted(comm.tracer), before).tolist() == [0, 1]
                averaged = [p.grad for p in model.parameters() if p.grad is not None]
                assert len(averaged) == len(local) == 5 and frozen.grad is None
            hook_counts.append(
                sum(len(p._grad_ready_hooks or ()) for p in model.parameters())
                + len(pipeline._hook_handles)
            )
            averaged, local = (np.concatenate([g.ravel() for g in grads]) for grads in (averaged, local))
            return averaged, local, comm_counts(comm.tracer)["allreduce"]

        results = run_spmd(2, program)
        mean_of_locals = (results[0][1] + results[1][1]) / 2
        for averaged, _, (messages, _, tensors) in results:
            np.testing.assert_array_equal(averaged, mean_of_locals.astype(np.float32))
            # Two steps, one fused message each, five tensors in it.
            assert (messages, tensors) == (2, 10)
        assert hook_counts == [0, 0]

    def test_non_subscriber_rejected(self):
        pipeline = GradientPipeline(build_model("mlp"))
        with pytest.raises(TypeError, match="pipeline_specs"):
            pipeline.add_subscriber(object())

    def test_abort_discards_plan_and_removes_hooks(self):
        x, y = make_problem(seed=15)
        loss_fn = nn.CrossEntropyLoss()
        model = build_model("mlp")
        comm = SingleProcessCommunicator()
        pipeline = GradientPipeline(model, comm=comm)
        pipeline.add_subscriber(GradientAveragingSubscriber(model))
        pipeline.arm(grad_scale=0.5)  # a single rank publishes specs only under a scale
        assert pipeline._hook_handles
        pipeline.abort()
        assert not pipeline.armed and not pipeline._hook_handles
        # Backward after abort posts nothing (hooks were removed).
        loss_fn(model(Tensor(x[:8])), y[:8]).backward()
        assert posted(comm.tracer) == (0, 0)

    def test_kfac_rejects_foreign_multirank_communicator(self):
        def program(comm):
            model = build_model("mlp")
            pre = KFAC(model, factor_update_freq=1, inv_update_freq=1, comm=comm)
            pipeline = GradientPipeline(model, comm=SingleProcessCommunicator())
            pipeline.add_subscriber(pre)
            try:
                pipeline.arm()
            except ValueError as error:
                return "communicator" in str(error)
            return False

        assert all(run_spmd(2, program))

    def test_trainer_pipeline_uses_resolved_auto_cap(self):
        model = build_model("mlp")
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1, bucket_cap_mb="auto")
        trainer = Trainer(
            model,
            optim.SGD(model.parameters(), lr=0.1),
            lambda m, batch: m(Tensor(batch)).sum(),
            preconditioner=pre,
        )
        assert trainer.pipeline.bucket_cap_mb == pre.plan.bucket_cap_mb

    def test_trainer_wires_kfac_subscriber(self):
        """A supplied pipeline overlaps K-FAC's factor allreduces with backward
        too; the trainer's own keeps the factor stage inside ``KFAC.step()``."""
        model = build_model("mlp")
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1)

        def trainer_with(pipeline):
            return Trainer(
                model,
                optim.SGD(model.parameters(), lr=0.1),
                lambda m, batch: m(Tensor(batch)).sum(),
                preconditioner=pre,
                pipeline=pipeline,
            )

        assert pre in trainer_with(GradientPipeline(model)).pipeline.subscribers
        default = trainer_with(None).pipeline
        assert [type(s) for s in default.subscribers] == [GradientAveragingSubscriber]

    def test_trainer_pipeline_must_be_an_instance_or_none(self):
        model = build_model("mlp")
        with pytest.raises(TypeError, match="GradientPipeline"):
            Trainer(
                model,
                optim.SGD(model.parameters(), lr=0.1),
                lambda m, batch: m(Tensor(batch)).sum(),
                pipeline="auto",
            )


    def test_step_and_armed_pipeline_post_the_same_factor_buckets_as_the_plan(self):
        """One factor round: an un-armed ``KFAC.step`` and an armed pipeline post the same
        ``(members, nbytes)`` buckets in the same order, and both are ``plan.messages(step=t)``.

        MLP 6-16-12-3 at world 2 under a 0.0005 MB cap, which splits the round: in reverse
        layer order it is 4 buckets (in registration order it would be 5).
        """
        x, y = make_problem(seed=41)
        loss_fn = nn.CrossEntropyLoss()

        def run(armed):
            def program(comm):
                posted, post = [], comm.iallreduce_average

                def recording(array, group=None, fused_count=1):
                    posted.append((tuple(range(comm.world_size)) if group is None else tuple(group), array.nbytes))
                    return post(array, group=group, fused_count=fused_count)

                comm.iallreduce_average = recording
                model = MLP(6, [16, 12], 3, rng=np.random.default_rng(0))
                pre = KFAC(model, factor_update_freq=1, inv_update_freq=1, bucket_cap_mb=0.0005, comm=comm)
                pipeline = GradientPipeline(model, comm=comm, bucket_cap_mb=pre.plan.bucket_cap_mb)
                pipeline.add_subscriber(pre)
                sl = slice(comm.rank * 16, (comm.rank + 1) * 16)
                rounds = []
                for _ in range(2):
                    posted.clear()
                    if armed:
                        pipeline.arm()
                    loss_fn(model(Tensor(x[sl])), y[sl]).backward()
                    if armed:
                        pipeline.flush()
                    expected = pre.plan.messages(step=pre.steps)["factor"]
                    pre.step()
                    rounds.append((list(posted), expected))
                    for param in model.parameters():
                        param.grad = None
                return rounds

            return run_spmd(2, program)

        everyone = (0, 1)
        split = [(everyone, 388), (everyone, 612), (everyone, 424), (everyone, 544)]
        for stepped, piped in zip(run(False), run(True)):
            assert stepped == piped
            for posted, expected in stepped:
                assert posted == expected == split


class TestDefaultSeam:
    """What a default ``Trainer`` (pipeline never armed) does at its one sync point."""

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
            assert not trainer.pipeline.armed
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

    def test_traced_default_run_records_gradient_comm_span(self):
        """The gradient bucket goes through the OverlapScheduler like every
        other collective, so measured-comm reporting sees it."""
        trainers = self._run(with_kfac=False)
        grad_nbytes = 4 * sum(p.data.size for p in trainers[0].model.parameters())
        for trainer in trainers:
            spans = [s for s in trainer.tracer.spans if s.name == "comm/allreduce"]
            assert [s.attrs["nbytes"] for s in spans] == [grad_nbytes] * self.STEPS
            flushes = [s for s in trainer.tracer.spans if s.name == "pipeline/flush"]
            assert len(flushes) == self.STEPS
            assert trainer.tracer.counters()["pipeline/buckets_posted_flush"] == self.STEPS
            assert "pipeline/buckets_posted_backward" not in trainer.tracer.counters()

    @pytest.mark.parametrize("armed", [False, True], ids=["default", "instance"])
    @pytest.mark.parametrize("micro", [1, 2], ids=["one-batch", "two-micro-batches"])
    def test_single_rank_keeps_gradient_dtype(self, armed, micro):
        """One rank has nobody to average with: float64 gradients stay float64
        (the armed pipeline used to install float32), scaled by 1/n under
        accumulation and nothing else."""
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

        trainer = Trainer(
            model,
            Spy(model.parameters(), lr=0.0),
            forward_loss,
            pipeline=GradientPipeline(model) if armed else None,
        )
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
        for p in model.parameters():
            p.register_grad_ready_hook(lambda t: after_backward.__setitem__(id(t), t.grad))
        at_step = {}

        class Spy(optim.SGD):
            def step(self):
                at_step.update({id(p): p.grad for p in model.parameters()})

        trainer = Trainer(model, Spy(model.parameters(), lr=0.1), lambda m, b: loss_fn(m(Tensor(b[0])), b[1]))
        trainer.train_step((x[:16], y[:16]))
        assert all(at_step[key] is after_backward[key] for key in after_backward)
        assert posted(trainer.tracer) == (0, 0)


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
        # The forward hook captured A stats; the full backward hook captured G.
        assert norm_layer.has_accumulated_data
        before = model.norm.weight.grad.copy()
        pre.step()
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
        pre.step()
        measured = pre.memory_usage()
        expected_factors = sum(pre.plan.policy.factor_bytes(group.layer) for group in pre.groups.values())
        assert measured["factors"] == expected_factors


class TestChooseBucketCap:
    def test_interior_optimum_beats_extremes(self):
        # 200 x 1 MB tensors: one huge bucket pays a long exposed tail, tiny
        # buckets pay hundreds of alpha terms; the optimum is in between.
        tensors = [1 * 1024 * 1024] * 200
        cap = choose_bucket_cap(ETHERNET_10G, tensors, world_size=16, candidates_mb=(1, 8, 1024))
        assert cap == 8.0

    def test_higher_latency_prefers_larger_buckets(self):
        from repro.distributed import NetworkSpec

        tensors = [256 * 1024] * 64
        low_alpha = NetworkSpec(name="low", latency=1e-6, bandwidth=12.5e9)
        high_alpha = NetworkSpec(name="high", latency=1e-3, bandwidth=12.5e9)
        # At equal bandwidth, paying alpha more dearly pushes toward fewer,
        # larger messages.
        assert choose_bucket_cap(high_alpha, tensors, world_size=8) > choose_bucket_cap(
            low_alpha, tensors, world_size=8
        )

    def test_returns_candidate_and_handles_empty(self):
        assert choose_bucket_cap(EDR_INFINIBAND, [], world_size=8) == 1.0
        cap = choose_bucket_cap(EDR_INFINIBAND, [123], world_size=1)
        assert cap in (1.0, 2.0, 4.0, 8.0, 16.0, 25.0, 50.0, 100.0)

    def test_config_accepts_auto_and_round_trips(self):
        config = KFACConfig(bucket_cap_mb="auto")
        restored = KFACConfig.from_dict(config.to_dict())
        assert restored.bucket_cap_mb == "auto"
        with pytest.raises(ValueError):
            KFACConfig(bucket_cap_mb="big")
        with pytest.raises(ValueError):
            KFACConfig(bucket_cap_mb=-1.0)

    def test_kfac_resolves_auto_cap(self):
        model = MLP(6, [12, 8], 3, rng=np.random.default_rng(0))
        pre = KFAC(model, bucket_cap_mb="auto")
        assert isinstance(pre.plan.bucket_cap_mb, float)
        assert pre.plan.bucket_cap_mb > 0
        assert pre.scheduler.buckets.bucket_cap_mb == pre.plan.bucket_cap_mb
        # The serializable config keeps the symbolic value; the models resolve it to the engine's number.
        assert pre.config.bucket_cap_mb == "auto"
        shapes = [layer.shape_info() for layer in pre.layers.values()]
        assert pre.config.distribution_plan(shapes, 1).bucket_cap_mb == pre.plan.bucket_cap_mb

    def test_auto_cap_is_bitwise_neutral(self):
        x, y = make_problem(seed=17)
        loss_fn = nn.CrossEntropyLoss()

        def run(cap):
            def program(comm):
                model = MLP(6, [12, 8], 3, rng=np.random.default_rng(0))
                ddp = DistributedDataParallel(model, comm)
                pre = KFAC(
                    model, factor_update_freq=1, inv_update_freq=1, bucket_cap_mb=cap, comm=comm,
                )
                loss = loss_fn(model(Tensor(x[: 32])), y[:32])
                loss.backward()
                ddp.sync_gradients()
                pre.step()
                return np.concatenate([p.grad.ravel() for p in model.parameters()])

            return run_spmd(2, program)

        for a, b in zip(run(25.0), run("auto")):
            np.testing.assert_array_equal(a, b)


class TestHookedCommSchedule:
    def test_hooked_schedule_strictly_lowers_exposed_comm(self):
        spec = paper_workload_spec("bert_large")
        for world_size in (8, 16):
            for frac in (1.0 / world_size, 0.5, 1.0):
                fused = model_comm_schedule(spec, world_size, frac)
                hooked = model_comm_schedule(spec, world_size, frac, hooked=True)
                assert hooked.hooked and not fused.hooked
                assert hooked.comm_bytes_per_update == fused.comm_bytes_per_update
                # The pipeline buckets the factors in reverse layer order (the order backward
                # produces them), which may close buckets elsewhere; the step-time rounds are the same.
                assert hooked.rounds["factor"][1] == fused.rounds["factor"][1]
                for step_time_round in ("eigen", "gradient"):
                    assert hooked.rounds[step_time_round] == fused.rounds[step_time_round]
                assert hooked.hidden_comm_time > 0.0
                assert hooked.exposed_comm_time < fused.exposed_comm_time
                assert hooked.iteration_time < fused.iteration_time

    def test_exposed_plus_hidden_is_conserved(self):
        spec = paper_workload_spec("resnet50")
        fused = model_comm_schedule(spec, 16, 0.5)
        hooked = model_comm_schedule(spec, 16, 0.5, hooked=True)
        total_fused = fused.exposed_comm_time + fused.hidden_comm_time
        total_hooked = hooked.exposed_comm_time + hooked.hidden_comm_time
        assert total_fused == pytest.approx(total_hooked)
        assert fused.hidden_comm_time == 0.0

    def test_world_of_one_exposes_nothing(self):
        spec = paper_workload_spec("resnet18")
        schedule = model_comm_schedule(spec, 1, 1.0, hooked=True)
        assert schedule.exposed_comm_time == 0.0
        assert schedule.hidden_comm_time == 0.0

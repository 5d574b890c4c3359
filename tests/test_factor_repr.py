"""Structured factor representations end-to-end (diagonal / block-diagonal).

Acceptance coverage for the FactorRepr refactor:

* packed <-> dense round-trips, packed-payload sizes (O(F) for diagonal) and
  state serialization of :class:`FactorRepr` itself;
* structured eigensolves agree with the dense oracle on the kernel backend and
  on the plain-expression kernels of ``tests/kernel_oracle.py``;
* structured-vs-forced-dense training parity, **bitwise**, across
  COMM-OPT / HYBRID-OPT / MEM-OPT x sync / overlap / hooked (the default
  un-armed pipeline at two bucket caps / an armed instance) x adaptive
  (the dense oracle of ``tests/kernel_oracle.py`` runs the historical dense
  code verbatim, so any drift is a real divergence in the structured fast
  paths);
* checkpoints store the representation tags, resume bitwise, and refuse to
  load a packed factor into a handler with a different representation;
* the new BatchNorm2d handler: brute-force factor verification, numerical
  gradient checks of the affine parameters, running-stat preservation;
* every parameterized module of the real models is preconditioned
  (ResNet-20 with BatchNorm, BERT-tiny including the embedding tables);
* the SPMD sanitizer flags rank-divergent representation choices at step 0
  instead of deadlocking inside a mismatched allreduce, and the static lint
  stays clean on uniform repr dispatch.
"""

import numpy as np
import pytest

from repro import nn, optim
from repro.analysis import SanitizerError, lint_sources
from repro.distributed import DistributedDataParallel, run_spmd
from repro.kfac import (
    FACTOR_REPR_KINDS,
    KFAC,
    FactorRepr,
    KFACBatchNorm2dLayer,
    KFACConfig,
    KFACEmbeddingLayer,
    KFACLayerNormLayer,
    KernelBackend,
    make_kfac_layer,
)
from repro.kfac.analysis import repr_basis_apply_flops, repr_eigen_time
from repro.distributed.cost_model import PerformanceModel
from repro.kfac.strategy import LayerShapeInfo
from repro.memory import KFACMemoryModel
from repro.models import MLP, bert_tiny, cifar_resnet20
from repro.tensor import PrecisionPolicy, Tensor
from repro.training import GradientPipeline, Trainer

from gradcheck import numerical_gradient
from kernel_oracle import DenseFactorKFAC, ReferenceKernelBackend, kfac_class

RNG = np.random.default_rng(404)


def spmd_failure(excinfo) -> SanitizerError:
    cause = excinfo.value.__cause__
    assert isinstance(cause, SanitizerError), f"expected SanitizerError, got {cause!r}"
    return cause


class MixNet(nn.Module):
    """Embedding -> LayerNorm -> Linear: one handler of every repr family."""

    def __init__(self, seed=0, vocab=13, dim=8, classes=4):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.embedding = nn.Embedding(vocab, dim, rng=rng)
        self.norm = nn.LayerNorm(dim)
        self.head = nn.Linear(dim, classes, rng=rng)

    def forward(self, ids):
        return self.head(self.norm(self.embedding(ids).mean(axis=1)))


def make_token_problem(seed=0, samples=128, vocab=13, length=5, classes=4):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, vocab, (samples, length))
    labels = rng.integers(0, classes, samples)
    return ids, labels


# --------------------------------------------------------------------------- repr basics
class TestFactorReprBasics:
    def test_kinds_and_describe(self):
        assert FACTOR_REPR_KINDS == ("dense", "diagonal", "block_diagonal")
        assert FactorRepr.dense(128).describe() == "dense:128"
        assert FactorRepr.diagonal(64).describe() == "diagonal:64"
        assert FactorRepr.block_diagonal(128, 16).describe() == "block_diagonal:128x16"

    def test_packed_sizes_are_o_f_for_diagonal(self):
        n = 4096
        dense, diag = FactorRepr.dense(n), FactorRepr.diagonal(n)
        block = FactorRepr.block_diagonal(n, 64)
        assert dense.packed_numel == n * (n + 1) // 2 and dense.packed_shape == (n * (n + 1) // 2,)  # one triangle
        assert dense.eigenvector_numel == n * n  # the eigenbasis is not symmetric: it stays square
        assert diag.packed_numel == n  # O(F), the point of the representation
        assert block.packed_numel == (n // 64) * 64 * 64
        # Diagonal factors have an implicit identity eigenbasis: zero stored vectors.
        assert diag.eigenvector_numel == 0
        assert diag.packed_eigen_numel == n
        assert dense.packed_eigen_numel == n + n * n

    def test_validation_rejects_bad_constructions(self):
        with pytest.raises(ValueError):
            FactorRepr("sparse", 4)
        with pytest.raises(ValueError):
            FactorRepr.block_diagonal(10, 4)  # block size must divide dim
        with pytest.raises(ValueError):
            FactorRepr.dense(0)

    @pytest.mark.parametrize(
        "repr_",
        [FactorRepr.dense(6), FactorRepr.diagonal(6), FactorRepr.block_diagonal(6, 3)],
        ids=["dense", "diagonal", "block"],
    )
    def test_to_dense_from_dense_round_trip(self, repr_):
        rng = np.random.default_rng(repr_.packed_numel)
        if repr_.kind == "dense":
            packed = rng.standard_normal(21).astype(np.float32)  # the upper triangle of a 6x6, row by row
        elif repr_.kind == "diagonal":
            packed = rng.standard_normal(6).astype(np.float32)
        else:
            blocks = rng.standard_normal((2, 3, 3)).astype(np.float32)
            packed = blocks + blocks.transpose(0, 2, 1)
        dense = repr_.to_dense(packed)
        assert dense.shape == (6, 6)
        np.testing.assert_array_equal(dense, dense.T)
        np.testing.assert_array_equal(repr_.from_dense(dense), packed)
        np.testing.assert_array_equal(repr_.as_packed(packed), packed)
        assert repr_.trace(packed) == pytest.approx(np.trace(dense))
        assert repr_.frobenius_norm(packed) == pytest.approx(np.linalg.norm(dense.astype(np.float64)), rel=1e-12)
        if repr_.kind == "dense":
            np.testing.assert_array_equal(packed[repr_.diagonal_positions()], np.diag(dense))
            np.testing.assert_array_equal(repr_.as_packed(dense), packed)  # the square layout of older checkpoints
        else:
            with pytest.raises(ValueError, match="only a dense factor"):
                repr_.diagonal_positions()
            with pytest.raises(ValueError, match="expected"):
                repr_.as_packed(dense)

    def test_comm_shape_is_the_storage_form(self):
        """A factor travels as it is stored: a dense one as its triangle (section 4.3, the only layout)."""
        for repr_, shape in (
            (FactorRepr.dense(5), (15,)),
            (FactorRepr.diagonal(5), (5,)),
            (FactorRepr.block_diagonal(6, 2), (3, 2, 2)),
        ):
            assert repr_.comm_shape() == repr_.packed_shape == shape
            assert repr_.packed_numel == int(np.prod(shape))

    def test_state_round_trip(self):
        for repr_ in (FactorRepr.dense(9), FactorRepr.diagonal(3), FactorRepr.block_diagonal(8, 4)):
            assert FactorRepr.from_state(repr_.to_state()) == repr_


# --------------------------------------------------------------------------- kernels
#: The oracle's kernels and the one registered backend (ids as the suite has always printed them).
BACKENDS = [
    pytest.param(ReferenceKernelBackend, id="ReferenceKernelBackend"),
    pytest.param(KernelBackend, id="BatchedKernelBackend"),
]


class TestStructuredEigen:
    @pytest.mark.parametrize("backend_cls", BACKENDS)
    def test_diagonal_eigen_is_the_clamped_vector(self, backend_cls):
        backend = backend_cls()
        vec = np.array([2.0, -1.0, 0.5, 3.0], dtype=np.float32)
        eigen = backend.structured_eigen(vec, FactorRepr.diagonal(4))
        assert eigen.eigenvectors is None  # implicit identity basis
        np.testing.assert_array_equal(eigen.eigenvalues, np.maximum(vec, 0.0))

    @pytest.mark.parametrize("backend_cls", BACKENDS)
    def test_block_eigen_reconstructs_each_block(self, backend_cls):
        backend = backend_cls()
        repr_ = FactorRepr.block_diagonal(12, 4)
        rng = np.random.default_rng(5)
        blocks = rng.standard_normal((3, 4, 4)).astype(np.float32)
        blocks = np.einsum("bij,bkj->bik", blocks, blocks) / 4 + np.eye(4, dtype=np.float32)
        eigen = backend.structured_eigen(blocks, repr_)
        assert eigen.eigenvectors.shape == (3, 4, 4)
        assert eigen.eigenvalues.shape == (12,)
        values = eigen.eigenvalues.reshape(3, 4)
        for b in range(3):
            q, w = eigen.eigenvectors[b], values[b]
            np.testing.assert_allclose(q @ np.diag(w) @ q.T, blocks[b], atol=1e-4)

    def test_structured_eigen_matches_dense_oracle_spectrum(self):
        backend = ReferenceKernelBackend()
        repr_ = FactorRepr.block_diagonal(8, 4)
        rng = np.random.default_rng(11)
        blocks = rng.standard_normal((2, 4, 4)).astype(np.float32)
        blocks = np.einsum("bij,bkj->bik", blocks, blocks) / 4 + np.eye(4, dtype=np.float32)
        structured = backend.structured_eigen(blocks, repr_)
        dense = backend.symmetric_eigen(repr_.to_dense(blocks))
        np.testing.assert_allclose(
            np.sort(structured.eigenvalues), np.sort(dense.eigenvalues), atol=1e-4
        )


# --------------------------------------------------------------------------- cost model
class TestCostModelRepr:
    def test_diagonal_eigen_is_linear_and_basis_free(self):
        perf = PerformanceModel()
        n = 1024
        dense_t = repr_eigen_time(perf, FactorRepr.dense(n), 4)
        diag_t = repr_eigen_time(perf, FactorRepr.diagonal(n), 4)
        block_t = repr_eigen_time(perf, FactorRepr.block_diagonal(n, 32), 4)
        assert diag_t < block_t < dense_t
        assert diag_t == pytest.approx(dense_t / (9 * n * n))  # n flops vs 9n^3
        # The identity eigenbasis costs nothing to apply.
        assert repr_basis_apply_flops(perf, FactorRepr.diagonal(n), 16) == 0.0
        assert repr_basis_apply_flops(perf, FactorRepr.dense(n), 16) > 0.0

    def test_memory_model_charges_packed_bytes(self):
        n, other = 512, 16
        structured = LayerShapeInfo(
            name="emb", a_dim=n, g_dim=other, grad_numel=n * other,
            a_repr=FactorRepr.diagonal(n),
        )
        dense = LayerShapeInfo(name="emb", a_dim=n, g_dim=other, grad_numel=n * other)
        packed = KFACMemoryModel([structured], param_count=n * other).factor_bytes()
        full = KFACMemoryModel([dense], param_count=n * other).factor_bytes()
        assert packed == (n + other * (other + 1) // 2) * 4  # O(F) for the diagonal A
        assert full == (n * (n + 1) // 2 + other * (other + 1) // 2) * 4  # dense: one triangle each
        assert packed < full
        # The paper's layout, for the columns printed beside this tree's: every dense factor a full square.
        assert KFACMemoryModel([dense], param_count=n * other).paper_factor_bytes() == (n * n + other * other) * 4
        assert KFACMemoryModel([structured], param_count=n * other).paper_factor_bytes() == (n + other * other) * 4


# --------------------------------------------------------------------------- parity
class TestStructuredVsDenseParity:
    """The dense oracle is the historical dense implementation verbatim;
    the structured fast paths must match it bitwise (the LayerNorm/BatchNorm/
    Embedding statistics are exactly (block-)diagonal, so even the dense
    eigensolve sees the same spectrum)."""

    WORLD = 4
    STEPS = 4

    def test_single_process_parity_bitwise(self):
        ids, labels = make_token_problem(seed=1)
        loss_fn = nn.CrossEntropyLoss()

        def run(dense_factors):
            model = MixNet(seed=3)
            pre = kfac_class(dense_factors)(model, factor_update_freq=1, inv_update_freq=2)
            optimizer = optim.SGD(model.parameters(), lr=0.05, momentum=0.9)
            for step in range(5):
                batch = slice(step * 16, step * 16 + 16)
                optimizer.zero_grad()
                loss_fn(model(ids[batch]), labels[batch]).backward()
                pre.step()
                optimizer.step()
            return np.concatenate([p.data.ravel() for p in model.parameters()])

        np.testing.assert_array_equal(run(False), run(True))

    def test_forced_dense_stores_full_matrices(self):
        model = MixNet(seed=3)
        pre = DenseFactorKFAC(model, factor_update_freq=1, inv_update_freq=1)
        for layer in pre.layers.values():
            assert layer.a_repr.is_dense and layer.g_repr.is_dense
        ids, labels = make_token_problem(seed=2, samples=16)
        nn.CrossEntropyLoss()(model(ids), labels).backward()
        pre.step()
        emb = next(l for l in pre.layers.values() if isinstance(l, KFACEmbeddingLayer))
        assert emb.factor_a.shape == (13 * 14 // 2,)  # "full" since packed storage: the triangle of the 13x13
        # The forced-dense factor is exactly the embedded diagonal.
        dense = emb.a_repr.to_dense(emb.factor_a)
        assert np.diag(dense).sum() > 0
        np.testing.assert_array_equal(dense, np.diag(np.diag(dense)))

    def _train(self, dense_factors, frac, mode="sync", adaptive=False, steps=STEPS):
        ids, labels = make_token_problem(seed=17, samples=64 * self.WORLD)
        loss_fn = nn.CrossEntropyLoss()

        def program(comm):
            model = MixNet(seed=23)
            config = KFACConfig(
                grad_worker_frac=frac,
                factor_update_freq=1,
                inv_update_freq=2,
                # "sync": a cap below any tensor, one message per tensor;
                # otherwise a cap that fuses a few tensors per bucket.  "sync"
                # and "overlap" run the trainer's default (never armed)
                # pipeline, "hooked" a supplied instance the trainer arms.
                bucket_cap_mb=1e-6 if mode == "sync" else 0.001,
                # Drift-driven refresh: both representations must derive the same plan.
                drift_tol=0.05 if adaptive else 0.0,
                max_staleness=8 if adaptive else 0,
            )
            pre = kfac_class(dense_factors).from_config(model, config, comm=comm)
            optimizer = optim.SGD(model.parameters(), lr=0.05, momentum=0.9)
            pipeline = GradientPipeline(model, comm=comm, bucket_cap_mb=0.001) if mode == "hooked" else None
            trainer = Trainer(
                model,
                optimizer,
                lambda m, batch: loss_fn(m(batch[0]), batch[1]),
                preconditioner=pre,
                comm=comm,
                pipeline=pipeline,
            )
            n = ids.shape[0] // comm.world_size
            sl = slice(comm.rank * n, (comm.rank + 1) * n)
            local_ids, local_labels = ids[sl], labels[sl]
            for _ in range(steps):
                trainer.train_step((local_ids, local_labels))
            return np.concatenate([p.data.ravel() for p in model.parameters()])

        return run_spmd(self.WORLD, program)

    @pytest.mark.parametrize("frac", [0.25, 0.5, 1.0], ids=["mem-opt", "hybrid-opt", "comm-opt"])
    @pytest.mark.parametrize("mode", ["sync", "overlap", "hooked"])
    def test_distributed_parity_all_strategies_and_modes(self, frac, mode):
        structured = self._train(False, frac, mode)
        dense = self._train(True, frac, mode)
        for rank in range(self.WORLD):
            np.testing.assert_array_equal(
                structured[rank], dense[rank], err_msg=f"rank {rank} {mode} frac={frac}"
            )

    def test_adaptive_schedule_parity(self):
        structured = self._train(False, 0.5, adaptive=True, steps=6)
        dense = self._train(True, 0.5, adaptive=True, steps=6)
        for a, b in zip(structured, dense):
            np.testing.assert_array_equal(a, b)


# --------------------------------------------------------------------------- checkpoints
class TestCheckpointRepr:
    def _trained(self, dense_factors=False, steps=3):
        ids, labels = make_token_problem(seed=31)
        model = MixNet(seed=5)
        pre = kfac_class(dense_factors)(model, factor_update_freq=1, inv_update_freq=2)
        optimizer = optim.SGD(model.parameters(), lr=0.05, momentum=0.9)
        loss_fn = nn.CrossEntropyLoss()
        for step in range(steps):
            batch = slice(step * 16, step * 16 + 16)
            optimizer.zero_grad()
            loss_fn(model(ids[batch]), labels[batch]).backward()
            pre.step()
            optimizer.step()
        return model, pre, (ids, labels)

    def test_state_dict_stores_repr_tags(self):
        _, pre, _ = self._trained()
        state = pre.state_dict()
        by_layer = {name: s for name, s in state["layers"].items()}
        kinds = {name: (s["a_repr"]["kind"], s["g_repr"]["kind"]) for name, s in by_layer.items()}
        assert kinds["embedding"] == ("diagonal", "dense")
        assert kinds["norm"] == ("dense", "diagonal")
        assert kinds["head"] == ("dense", "dense")
        # Packed factors are stored in packed form.
        assert by_layer["embedding"]["factor_a"].shape == (13,)
        assert by_layer["norm"]["factor_g"].shape == (8,)

    def test_resume_reproduces_structured_step_bitwise(self):
        model, pre, (ids, labels) = self._trained()
        checkpoint, model_state = pre.state_dict(), model.state_dict()
        steps_at_checkpoint = pre.steps
        loss_fn = nn.CrossEntropyLoss()

        model.zero_grad()
        loss_fn(model(ids[48:80]), labels[48:80]).backward()
        pre.step()
        grads_original = np.concatenate([p.grad.ravel() for p in model.parameters()])

        restored = MixNet(seed=99)
        restored.load_state_dict(model_state)
        pre2 = KFAC(restored, factor_update_freq=1, inv_update_freq=2)
        pre2.load_state_dict(checkpoint)
        assert pre2.steps == steps_at_checkpoint
        restored.zero_grad()
        loss_fn(restored(ids[48:80]), labels[48:80]).backward()
        pre2.step()
        grads_restored = np.concatenate([p.grad.ravel() for p in restored.parameters()])
        np.testing.assert_array_equal(grads_original, grads_restored)

    def test_repr_mismatch_is_rejected(self):
        _, pre, _ = self._trained(dense_factors=False)
        fresh = DenseFactorKFAC(MixNet(seed=5))
        with pytest.raises(ValueError, match="stores the A factor as diagonal:13"):
            fresh.load_state_dict(pre.state_dict())


# --------------------------------------------------------------------------- BatchNorm2d
class TestBatchNorm2dHandler:
    def make_handler(self, features=3, affine=True):
        module = nn.BatchNorm2d(features, affine=affine)
        handler = make_kfac_layer(
            "bn", module, PrecisionPolicy.fp32(), should_accumulate=lambda: True, grad_scale=lambda: 1.0
        )
        return module, handler

    def test_registered_only_for_affine(self):
        module, handler = self.make_handler()
        assert isinstance(handler, KFACBatchNorm2dLayer)
        assert handler.a_repr.describe() == "dense:2"
        assert handler.g_repr.describe() == "diagonal:3"
        _, none_handler = self.make_handler(affine=False)
        assert none_handler is None

    def test_factors_match_brute_force(self):
        module, handler = self.make_handler(features=3)
        x = RNG.standard_normal((4, 3, 5, 5)).astype(np.float32)
        out = module(Tensor(x))
        out.mean().backward()
        a_new, g_new = handler.compute_batch_factors()

        # A: second moment of the [x_hat, 1] rows, x_hat from *batch* stats.
        mean = x.mean(axis=(0, 2, 3), keepdims=True)
        centered = x - mean
        var = np.mean(centered * centered, axis=(0, 2, 3), keepdims=True)
        x_hat = (centered / np.sqrt(var + module.eps)).reshape(-1, 1)
        rows = np.concatenate([x_hat, np.ones_like(x_hat)], axis=1)
        # The off-diagonal entry is the mean of x_hat, zero up to float32 cancellation noise.
        np.testing.assert_allclose(handler.a_repr.to_dense(a_new), rows.T @ rows / rows.shape[0], rtol=1e-5, atol=1e-6)

        # G: per-channel second moments of the (batch-size scaled) output
        # gradient rows, stored as a diagonal vector.
        grad_out = np.full((4, 3, 5, 5), 1.0 / (4 * 3 * 5 * 5), dtype=np.float32)  # d(mean)/d(out)
        g_rows = grad_out.transpose(0, 2, 3, 1).reshape(-1, 3) * 4
        np.testing.assert_allclose(g_new, np.mean(g_rows**2, axis=0), rtol=1e-5)
        assert g_new.shape == (3,)

    def test_running_stats_untouched_by_preconditioning(self):
        class BNNet(nn.Module):
            def __init__(self):
                super().__init__()
                self.conv = nn.Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(0))
                self.bn = nn.BatchNorm2d(3)
                self.head = nn.Linear(3 * 4 * 4, 2, rng=np.random.default_rng(1))

            def forward(self, x):
                h = self.bn(self.conv(x))
                return self.head(h.reshape(h.shape[0], -1))

        x = RNG.standard_normal((4, 2, 4, 4)).astype(np.float32)
        labels = RNG.integers(0, 2, 4)

        def run(with_kfac):
            model = BNNet()
            pre = KFAC(model, factor_update_freq=1, inv_update_freq=1) if with_kfac else None
            loss = nn.CrossEntropyLoss()(model(Tensor(x)), labels)
            loss.backward()
            if pre is not None:
                assert any(isinstance(l, KFACBatchNorm2dLayer) for l in pre.layers.values())
                pre.step()
            return model.bn.running_mean.copy(), model.bn.running_var.copy()

        base_mean, base_var = run(with_kfac=False)
        kfac_mean, kfac_var = run(with_kfac=True)
        np.testing.assert_array_equal(base_mean, kfac_mean)
        np.testing.assert_array_equal(base_var, kfac_var)

    def test_affine_parameter_gradcheck(self):
        """The handler's get_gradient columns match finite differences of the loss."""
        module, handler = self.make_handler(features=3)
        x = RNG.standard_normal((4, 3, 5, 5)).astype(np.float64)
        target = RNG.standard_normal((4, 3, 5, 5)).astype(np.float64)

        def loss_value():
            out = module(Tensor(x))
            diff = out - Tensor(target)
            return (diff * diff).mean()

        module.zero_grad()
        loss_value().backward()
        grad_matrix = handler.get_gradient()  # columns [dL/dw, dL/db]

        def loss_for_weight(w):
            module.weight.data[...] = w
            return float(loss_value().data)

        def loss_for_bias(b):
            module.bias.data[...] = b
            return float(loss_value().data)

        numeric_w = numerical_gradient(loss_for_weight, module.weight.data.copy())
        numeric_b = numerical_gradient(loss_for_bias, module.bias.data.copy())
        np.testing.assert_allclose(grad_matrix[:, 0], numeric_w, atol=5e-3)
        np.testing.assert_allclose(grad_matrix[:, 1], numeric_b, atol=5e-3)

    def test_set_gradient_round_trip(self):
        module, handler = self.make_handler(features=4)
        out = module(Tensor(RNG.standard_normal((2, 4, 3, 3)).astype(np.float32)))
        out.sum().backward()
        matrix = handler.get_gradient()
        assert matrix.shape == (4, 2)
        update = RNG.standard_normal(matrix.shape).astype(np.float32)
        handler.set_gradient(update)
        np.testing.assert_allclose(module.weight.grad, update[:, 0])
        np.testing.assert_allclose(module.bias.grad, update[:, 1])


# --------------------------------------------------------------------------- model coverage
class TestModelCoverage:
    def test_resnet20_every_parameterized_module_preconditioned(self):
        model = cifar_resnet20(rng=np.random.default_rng(0))
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1)
        handled = {id(layer.module) for layer in pre.layers.values()}
        for name, module in model.named_modules():
            if isinstance(module, (nn.Linear, nn.Conv2d)) or (
                isinstance(module, nn.BatchNorm2d) and module.affine
            ):
                assert id(module) in handled, f"{name} is not preconditioned"
        assert sum(isinstance(l, KFACBatchNorm2dLayer) for l in pre.layers.values()) > 0

        x = RNG.standard_normal((4, 3, 32, 32)).astype(np.float32)
        labels = RNG.integers(0, 10, 4)
        nn.CrossEntropyLoss()(model(Tensor(x)), labels).backward()
        pre.step()
        for p in model.parameters():
            assert np.all(np.isfinite(p.grad))

    def test_bert_tiny_fully_preconditioned_including_embeddings(self):
        model = bert_tiny(vocab_size=50, rng=np.random.default_rng(0))
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1)  # no skip_modules
        embedding_handlers = [l for l in pre.layers.values() if isinstance(l, KFACEmbeddingLayer)]
        norm_handlers = [l for l in pre.layers.values() if isinstance(l, KFACLayerNormLayer)]
        assert len(embedding_handlers) >= 2  # token + position tables
        assert len(norm_handlers) >= 2
        for handler in embedding_handlers:
            assert handler.a_repr.kind == "diagonal"

        ids = RNG.integers(0, 50, (2, 12))
        labels = RNG.integers(0, 50, (2, 12))
        logits = model(ids)
        loss = nn.CrossEntropyLoss()(logits.reshape(-1, logits.shape[-1]), labels.reshape(-1))
        loss.backward()
        pre.step()
        for p in model.parameters():
            assert np.all(np.isfinite(p.grad))


# --------------------------------------------------------------------------- sanitizer + lint
class TestSanitizerReprDivergence:
    def test_divergent_repr_choice_detected_at_step_zero(self):
        ids, labels = make_token_problem(seed=41, samples=32)

        def program(comm):
            model = MixNet(seed=7)
            dense = comm.rank == 1  # spmd-ignore: SPMD101 - fault injection
            pre = kfac_class(dense)(model, factor_update_freq=1, inv_update_freq=1, comm=comm)
            nn.CrossEntropyLoss()(model(ids), labels).backward()
            pre.step()

        with pytest.raises(RuntimeError) as excinfo:
            run_spmd(2, program, sanitize=True)
        error = spmd_failure(excinfo)
        assert error.kind == "plan-divergence"
        assert "kfac/reprs" in str(error)

    def test_consistent_reprs_pass_and_agree(self):
        ids, labels = make_token_problem(seed=43, samples=64)

        def program(comm):
            model = MixNet(seed=7)
            ddp = DistributedDataParallel(model, comm)
            pre = KFAC(model, factor_update_freq=1, inv_update_freq=1, comm=comm)
            n = ids.shape[0] // comm.world_size
            sl = slice(comm.rank * n, (comm.rank + 1) * n)
            nn.CrossEntropyLoss()(model(ids[sl]), labels[sl]).backward()
            ddp.sync_gradients()
            pre.step()
            return np.concatenate([p.grad.ravel() for p in model.parameters()])

        results = run_spmd(2, program, sanitize=True)
        np.testing.assert_array_equal(results[0], results[1])


class TestLintReprFixtures:
    def test_rank_gated_packed_collective_is_flagged(self):
        result = lint_sources(
            {
                "fixture.py": """
def sync_factor(comm, layer):
    if comm.rank == 0:
        comm.allreduce_average(layer.a_repr.pack_comm(layer.factor_a))
"""
            }
        )
        assert [f.rule_id for f in result.findings] == ["SPMD101"]

    def test_uniform_repr_dispatch_is_clean(self):
        # Representation dispatch is rank-invariant (every rank derives the
        # same repr from the same model), so packing before the collective
        # must not trip the rank-dependence rule.
        result = lint_sources(
            {
                "fixture.py": """
def sync_factor(comm, layer, triangular):
    payload = layer.a_repr.pack_comm(layer.factor_a, triangular)
    if layer.a_repr.kind == "dense":
        payload = payload * 1.0
    return comm.allreduce_average(payload)
"""
            }
        )
        assert result.findings == []

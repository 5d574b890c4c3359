"""The one factor family end-to-end: ``k`` diagonal blocks stored as packed triangles.

Acceptance coverage for :class:`FactorRepr`:

* one parametrised family (:class:`TestFactorReprFamily`) over one block
  (dense), blocks of one (diagonal) and ``1 < b < n``: packed shape and
  bytes, packed <-> dense round-trips, trace and Frobenius norm, and the
  eigen, inverse and precondition paths against the ``force_dense`` oracle;
  state serialization of :class:`FactorRepr` itself;
* structured eigensolves agree with the dense oracle on the kernel backend and
  on the plain-expression kernels of ``tests/kernel_oracle.py``;
* structured-vs-forced-dense training parity, **bitwise**, across
  COMM-OPT / HYBRID-OPT / MEM-OPT x sync / overlap (the trainer's one
  gradient-sync path at two bucket caps) (the dense oracle of ``tests/kernel_oracle.py`` runs the historical dense
  code verbatim, so any drift is a real divergence in the structured fast
  paths);
* checkpoints store the representation tags, resume bitwise, and refuse to
  load a packed factor into a handler with a different representation;
* ``BatchNorm2d`` gets no handler: its gradients and running statistics are
  the optimizer's alone;
* every ``Conv2d`` and ``Linear`` of the real models is preconditioned and no
  ``BatchNorm2d`` is (ResNet-20), and every ``Linear`` and ``LayerNorm`` of
  BERT-tiny is, but none of its embedding tables;
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
    KFAC,
    FactorRepr,
    KFACConfig,
    KFACLayerNormLayer,
    InverseSolveStrategy,
    KernelBackend,
    make_kfac_layer,
    pack_triangle,
)
from repro.kfac.analysis import KFACWorkloadSpec, repr_basis_apply_flops, repr_eigen_time
from repro.distributed.cost_model import PerformanceModel
from repro.kfac.strategy import LayerShapeInfo
from repro.memory import paper_factor_bytes
from repro.models import bert_tiny, cifar_resnet20
from repro.tensor import PrecisionPolicy, Tensor
from repro.training import Trainer

from kernel_oracle import (
    DenseFactorKFAC,
    ReferenceKernelBackend,
    decompose_standalone,
    force_blocks,
    force_dense,
    kfac_class,
)

RNG = np.random.default_rng(404)


def spmd_failure(excinfo) -> SanitizerError:
    cause = excinfo.value.__cause__
    assert isinstance(cause, SanitizerError), f"expected SanitizerError, got {cause!r}"
    return cause


class MixNet(nn.Module):
    """Embedding -> LayerNorm -> Linear: the table is the optimizer's alone, then a diagonal G and dense factors."""

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


# --------------------------------------------------------------------------- the one family
#: ``(dim, block_size)`` at the family's two ends and between: one block (dense), blocks of one
#: (diagonal) and ``1 < b < n``.
FAMILY = [
    pytest.param(6, 6, id="dense"),
    pytest.param(6, 1, id="diagonal"),
    pytest.param(6, 3, id="blocks"),
]


def block_structured(repr_, seed):
    """A float32 SPD matrix that is exactly ``repr_``'s block-diagonal: each block ``m mᵀ / b + I``."""
    rng = np.random.default_rng(seed)
    dense = np.zeros((repr_.dim, repr_.dim), dtype=np.float32)
    b = repr_.block_size
    for start in range(0, repr_.dim, b):
        m = rng.standard_normal((b, b)).astype(np.float32)
        dense[start : start + b, start : start + b] = m @ m.T / np.float32(b) + np.eye(b, dtype=np.float32)
    return dense


class TestFactorReprFamily:
    """Every factor is ``k`` diagonal blocks stored as packed triangles; dense and diagonal are its ends."""

    def test_describe_tags_the_two_ends_and_the_blocks_between(self):
        assert FactorRepr.dense(128) == FactorRepr(128, 128) and FactorRepr.dense(128).describe() == "dense:128"
        assert FactorRepr.diagonal(64) == FactorRepr(64, 1) and FactorRepr.diagonal(64).describe() == "diagonal:64"
        assert FactorRepr(128, 16).describe() == "blocks:128x16"
        assert FactorRepr(1, 1).describe() == "dense:1"  # one block of one is dense, not elementwise

    @pytest.mark.parametrize("dim, block_size", [(1024, 1024), (1024, 1), (1024, 64)], ids=["dense", "diagonal", "blocks"])
    def test_packed_shape_and_bytes_are_the_blocks_triangles(self, dim, block_size):
        repr_ = FactorRepr(dim, block_size)
        k, b = dim // block_size, block_size
        mask = repr_.to_dense(np.ones(repr_.packed_numel, dtype=np.float32)) != 0  # the block-diagonal support
        assert repr_.num_blocks == k and repr_.packed_shape == (repr_.packed_numel,)
        assert repr_.packed_numel == np.count_nonzero(np.triu(mask)) == k * b * (b + 1) // 2  # each block once
        assert repr_.square_numel == np.count_nonzero(mask) == k * b * b  # the paper's layout
        layer = LayerShapeInfo("layer", FactorRepr.dense(1), repr_)
        assert layer.factor_bytes(PrecisionPolicy.fp32(), "g") == 4 * np.count_nonzero(np.triu(mask))  # what the plan charges
        if block_size == dim:
            assert repr_.packed_numel == dim * (dim + 1) // 2  # one triangle
            assert repr_.eigenvector_shape == (dim, dim)  # the eigenbasis is not symmetric: it stays square
            assert repr_.packed_eigen_numel == dim + dim * dim
        elif block_size == 1:
            assert repr_.packed_numel == dim  # O(F), the point of the representation
            assert repr_.eigenvector_shape is None  # implicit identity eigenbasis: zero stored vectors
            assert repr_.packed_eigen_numel == dim
        else:
            assert (repr_.square_numel, repr_.packed_numel) == (65536, 33280)  # k squares became k triangles
            assert repr_.eigenvector_shape == (k, b, b)
            assert repr_.packed_eigen_numel == dim + k * b * b
        assert repr_.eigen_flops() == float(k) * float(b) ** 3  # n³ dense, n diagonal

    @pytest.mark.parametrize("dim, block_size", FAMILY)
    def test_to_dense_from_dense_round_trip(self, dim, block_size):
        repr_ = FactorRepr(dim, block_size)
        rng = np.random.default_rng(repr_.packed_numel)
        packed = rng.standard_normal(repr_.packed_numel).astype(np.float32)  # every block's upper triangle, row by row
        dense = repr_.to_dense(packed)
        assert dense.shape == (6, 6)
        np.testing.assert_array_equal(dense, dense.T)
        np.testing.assert_array_equal(dense[repr_.to_dense(np.ones_like(packed)) == 0], 0.0)  # nothing off the blocks
        np.testing.assert_array_equal(repr_.from_dense(dense), packed)
        np.testing.assert_array_equal(packed[repr_.diagonal_positions()], np.diag(dense))
        with pytest.raises(ValueError, match="expected"):
            repr_.check_packed(dense)  # a square matrix is no storage form, not even for a dense factor

    @pytest.mark.parametrize("dim, block_size", FAMILY)
    def test_trace_matches_float64_on_the_dense_matrix(self, dim, block_size):
        repr_ = FactorRepr(dim, block_size)
        packed = np.random.default_rng(block_size).standard_normal(repr_.packed_numel).astype(np.float32)
        dense = repr_.to_dense(packed).astype(np.float64)
        assert repr_.trace(packed) == pytest.approx(np.trace(dense), rel=1e-12)

    @staticmethod
    def _handlers(block_size, dense):
        """A bias-free Linear(5, 6) handler whose G has ``block_size`` (A is dense), or its :func:`force_dense` oracle."""
        module = nn.Linear(5, 6, bias=False, rng=np.random.default_rng(0))
        layer = make_kfac_layer("linear", module, PrecisionPolicy.fp32(), lambda: False, lambda: 1.0)
        return force_dense(layer) if dense else force_blocks(layer, "g", block_size)

    @pytest.mark.parametrize("dim, block_size", FAMILY)
    def test_eigen_inverse_and_precondition_match_the_dense_oracle(self, dim, block_size):
        """Bitwise where one block or blocks of one meet the dense eigensolve (as the training parity below);
        at float32 resolution for ``1 < b < n`` and for every inverse a Cholesky of the embedded blocks gives."""
        repr_ = FactorRepr(dim, block_size)
        square_a = np.diag(np.random.default_rng(1).random(5).astype(np.float32) + np.float32(0.5))
        square_g = block_structured(repr_, seed=2)
        grad = np.random.default_rng(3).standard_normal((6, 5)).astype(np.float32)
        eigen, inverse = [], []
        for dense in (False, True):
            layer = self._handlers(block_size, dense)
            assert layer.g_repr == (FactorRepr.dense(6) if dense else repr_)
            layer.factor_a, layer.factor_g = layer.a_repr.from_dense(square_a), layer.g_repr.from_dense(square_g)
            eigen.append(decompose_standalone(layer, 0.01).solve(layer, grad, 0.01))
            strategy = InverseSolveStrategy()
            InverseSolveStrategy.hold({layer: strategy}, layer.precision.inverse_dtype)
            for which, factor, repr in (("a", layer.factor_a, layer.a_repr), ("g", layer.factor_g, layer.g_repr)):
                (packed,) = layer.kernels.inverse_task([factor], repr, [0.1])()
                assert packed.shape == repr.packed_shape  # every holder installs the packed form
                strategy.install(which, packed, layer)
            inverse.append(strategy.solve(layer, grad, 0.1))
            layer.remove()
        if repr_.num_blocks == 1 or repr_.block_size == 1:
            np.testing.assert_array_equal(eigen[0], eigen[1])
        else:
            np.testing.assert_allclose(eigen[0], eigen[1], rtol=1e-4, atol=1e-6)
        # A diagonal G's 1 / (d + γ) is not bitwise a Cholesky of the embedded diagonal ((1/√x)²), nor a block's
        # Cholesky the one of the whole: float32 rounding.
        np.testing.assert_allclose(inverse[0], inverse[1], rtol=1e-4, atol=1e-6)

    def test_validation_rejects_bad_constructions(self):
        with pytest.raises(ValueError):
            FactorRepr(10, 4)  # block size must divide dim
        with pytest.raises(ValueError):
            FactorRepr.dense(0)
        with pytest.raises(ValueError):
            FactorRepr(4, 0)
        with pytest.raises(ValueError, match="integer"):
            FactorRepr(4.0, 2)
        with pytest.raises(ValueError):
            FactorRepr("sparse", 4)

    @pytest.mark.parametrize("dim, block_size", FAMILY)
    def test_state_round_trip(self, dim, block_size):
        repr_ = FactorRepr(dim, block_size)
        assert repr_.to_state() == {"dim": dim, "block_size": block_size}
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
        eigen = backend.eigen_task([vec], FactorRepr.diagonal(4))()[0]
        assert eigen.eigenvectors is None  # implicit identity basis
        np.testing.assert_array_equal(eigen.eigenvalues, np.maximum(vec, 0.0))

    @pytest.mark.parametrize("backend_cls", BACKENDS)
    def test_block_eigen_reconstructs_each_block(self, backend_cls):
        backend = backend_cls()
        repr_ = FactorRepr(12, 4)
        rng = np.random.default_rng(5)
        blocks = rng.standard_normal((3, 4, 4)).astype(np.float32)
        blocks = np.einsum("bij,bkj->bik", blocks, blocks) / 4 + np.eye(4, dtype=np.float32)
        eigen = backend.eigen_task([np.concatenate([pack_triangle(block) for block in blocks])], repr_)()[0]
        assert eigen.eigenvectors.shape == (3, 4, 4)
        assert eigen.eigenvalues.shape == (12,)
        values = eigen.eigenvalues.reshape(3, 4)
        for b in range(3):
            q, w = eigen.eigenvectors[b], values[b]
            np.testing.assert_allclose(q @ np.diag(w) @ q.T, blocks[b], atol=1e-4)

    def test_structured_eigen_matches_dense_oracle_spectrum(self):
        backend = ReferenceKernelBackend()
        repr_ = FactorRepr(8, 4)
        rng = np.random.default_rng(11)
        blocks = rng.standard_normal((2, 4, 4)).astype(np.float32)
        blocks = np.einsum("bij,bkj->bik", blocks, blocks) / 4 + np.eye(4, dtype=np.float32)
        packed = np.concatenate([pack_triangle(block) for block in blocks])
        structured = backend.eigen_task([packed], repr_)()[0]
        dense = backend.symmetric_eigen(repr_.to_dense(packed))
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
        block_t = repr_eigen_time(perf, FactorRepr(n, 32), 4)
        assert diag_t < block_t < dense_t
        assert diag_t == pytest.approx(dense_t / (9 * n * n))  # n flops vs 9n^3
        # The identity eigenbasis costs nothing to apply.
        assert repr_basis_apply_flops(perf, FactorRepr.diagonal(n), 16) == 0.0
        assert repr_basis_apply_flops(perf, FactorRepr.dense(n), 16) > 0.0

    def test_memory_model_charges_packed_bytes(self):
        n, other = 512, 16
        structured = LayerShapeInfo("emb", FactorRepr.diagonal(n), FactorRepr.dense(other))
        dense = LayerShapeInfo.dense("emb", n, other)
        structured_spec, dense_spec = (
            KFACWorkloadSpec("emb", [layer], n * other, local_batch_size=0, baseline_compute_time=0.0, config=KFACConfig())
            for layer in (structured, dense)
        )
        packed, full = structured_spec.factor_bytes, dense_spec.factor_bytes
        assert packed == (n + other * (other + 1) // 2) * 4  # O(F) for the diagonal A
        assert full == (n * (n + 1) // 2 + other * (other + 1) // 2) * 4  # dense: one triangle each
        assert packed < full
        # The paper's layout, for the columns printed beside this tree's: every dense factor a full square.
        assert paper_factor_bytes(dense_spec) == (n * n + other * other) * 4
        assert paper_factor_bytes(structured_spec) == (n + other * other) * 4


# --------------------------------------------------------------------------- parity
class TestStructuredVsDenseParity:
    """The dense oracle is the historical dense implementation verbatim;
    on the eigen path the structured fast paths must match it bitwise (the
    LayerNorm's G statistics are exactly diagonal, so
    even the dense eigensolve sees the same spectrum).  On the inverse path a
    diagonal factor's ``1 / (d + γ)`` is not bitwise what a Cholesky of the
    embedded diagonal returns (``(1/√x)²``), so there they agree to float32
    rounding."""

    WORLD = 4
    STEPS = 4

    @staticmethod
    def single_process(dense_factors, solver):
        ids, labels = make_token_problem(seed=1)
        loss_fn = nn.CrossEntropyLoss()
        model = MixNet(seed=3)
        pre = kfac_class(dense_factors)(model, factor_update_freq=1, inv_update_freq=2, solve_strategy=solver)
        optimizer = optim.SGD(model.parameters(), lr=0.05, momentum=0.9)
        for step in range(5):
            batch = slice(step * 16, step * 16 + 16)
            optimizer.zero_grad()
            loss_fn(model(ids[batch]), labels[batch]).backward()
            pre.step(lr=optimizer.param_groups[0]["lr"])
            optimizer.step()
        return np.concatenate([p.data.ravel() for p in model.parameters()])

    def test_single_process_parity_bitwise(self):
        np.testing.assert_array_equal(self.single_process(False, "eigen"), self.single_process(True, "eigen"))

    def test_inverse_path_parity_to_float32_rounding(self):
        structured, dense = self.single_process(False, "inverse"), self.single_process(True, "inverse")
        np.testing.assert_allclose(structured, dense, rtol=1e-4, atol=1e-6)
        # Distributed: test_inverse_path_distributed_parity_to_float32_rounding.

    def test_forced_dense_stores_full_matrices(self):
        model = MixNet(seed=3)
        pre = DenseFactorKFAC(model, factor_update_freq=1, inv_update_freq=1)
        for layer in pre.layers.values():
            assert layer.a_repr.num_blocks == layer.g_repr.num_blocks == 1
        ids, labels = make_token_problem(seed=2, samples=16)
        nn.CrossEntropyLoss()(model(ids), labels).backward()
        pre.step(lr=0.1)
        norm = pre.layers["norm"]
        assert norm.factor_g.shape == (8 * 9 // 2,)  # "full" since packed storage: the triangle of the 8x8
        # The forced-dense factor is exactly the embedded diagonal.
        dense = norm.g_repr.to_dense(norm.factor_g)
        assert np.diag(dense).sum() > 0
        np.testing.assert_array_equal(dense, np.diag(np.diag(dense)))

    def _train(self, dense_factors, frac, mode="sync", steps=STEPS, solver="eigen"):
        ids, labels = make_token_problem(seed=17, samples=64 * self.WORLD)
        loss_fn = nn.CrossEntropyLoss()

        def program(comm):
            model = MixNet(seed=23)
            config = KFACConfig(
                grad_worker_frac=frac,
                factor_update_freq=1,
                inv_update_freq=2,
                # "sync": a cap below any tensor, one message per tensor;
                # otherwise a cap that fuses a few tensors per bucket.
                bucket_cap_mb=1e-6 if mode == "sync" else 0.001,
                solve_strategy=solver,
            )
            pre = kfac_class(dense_factors).from_config(model, config, comm=comm)
            optimizer = optim.SGD(model.parameters(), lr=0.05, momentum=0.9)
            trainer = Trainer(
                model,
                optimizer,
                lambda m, batch: loss_fn(m(batch[0]), batch[1]),
                preconditioner=pre,
                comm=comm,
            )
            n = ids.shape[0] // comm.world_size
            sl = slice(comm.rank * n, (comm.rank + 1) * n)
            local_ids, local_labels = ids[sl], labels[sl]
            for _ in range(steps):
                trainer.train_step((local_ids, local_labels))
            return np.concatenate([p.data.ravel() for p in model.parameters()])

        return run_spmd(self.WORLD, program)

    @pytest.mark.parametrize("frac", [0.25, 0.5, 1.0], ids=["mem-opt", "hybrid-opt", "comm-opt"])
    @pytest.mark.parametrize("mode", ["sync", "overlap"])
    def test_distributed_parity_all_strategies_and_modes(self, frac, mode):
        structured = self._train(False, frac, mode)
        dense = self._train(True, frac, mode)
        for rank in range(self.WORLD):
            np.testing.assert_array_equal(
                structured[rank], dense[rank], err_msg=f"rank {rank} {mode} frac={frac}"
            )

    @pytest.mark.parametrize("frac", [0.25, 0.5, 1.0], ids=["mem-opt", "hybrid-opt", "comm-opt"])
    @pytest.mark.parametrize("mode", ["sync", "overlap"])
    def test_inverse_path_distributed_parity_to_float32_rounding(self, frac, mode):
        """The inverse path inverts the structured and the forced-dense factor with different kernels, so the
        two agree to float32 rounding, under every strategy and bucket cap."""
        structured = self._train(False, frac, mode, solver="inverse")
        dense = self._train(True, frac, mode, solver="inverse")
        for rank in range(self.WORLD):
            np.testing.assert_allclose(
                structured[rank], dense[rank], rtol=1e-4, atol=1e-6, err_msg=f"rank {rank} {mode} frac={frac}"
            )


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
            pre.step(lr=optimizer.param_groups[0]["lr"])
            optimizer.step()
        return model, pre, (ids, labels)

    def test_state_dict_stores_repr_tags(self):
        _, pre, _ = self._trained()
        state = pre.state_dict()
        by_layer = {name: s for name, s in state["layers"].items()}
        tags = {name: (s["a_repr"], s["g_repr"]) for name, s in by_layer.items()}
        assert list(tags) == ["norm", "head"]  # the embedding table is not preconditioned
        assert tags["norm"] == ({"dim": 2, "block_size": 2}, {"dim": 8, "block_size": 1})  # dense, diagonal
        assert tags["head"] == ({"dim": 9, "block_size": 9}, {"dim": 4, "block_size": 4})
        # Packed factors are stored in packed form.
        assert by_layer["norm"]["factor_g"].shape == (8,)

    def test_resume_reproduces_structured_step_bitwise(self):
        model, pre, (ids, labels) = self._trained()
        checkpoint, model_state = pre.state_dict(), model.state_dict()
        steps_at_checkpoint = pre.steps
        loss_fn = nn.CrossEntropyLoss()

        model.zero_grad()
        loss_fn(model(ids[48:80]), labels[48:80]).backward()
        pre.step(lr=0.1)
        grads_original = np.concatenate([p.grad.ravel() for p in model.parameters()])

        restored = MixNet(seed=99)
        restored.load_state_dict(model_state)
        pre2 = KFAC(restored, factor_update_freq=1, inv_update_freq=2)
        pre2.load_state_dict(checkpoint)
        assert pre2.steps == steps_at_checkpoint
        restored.zero_grad()
        loss_fn(restored(ids[48:80]), labels[48:80]).backward()
        pre2.step(lr=0.1)
        grads_restored = np.concatenate([p.grad.ravel() for p in restored.parameters()])
        np.testing.assert_array_equal(grads_original, grads_restored)

    @pytest.mark.parametrize(
        "which, tag",
        [
            ("a", {"dim": 13}),
            ("a", {"block_size": 1}),
            ("a", {"dim": 13, "block_size": 0}),
            ("a", {"dim": 13, "block_size": 2}),
            ("a", {"dim": "13", "block_size": 1}),
            ("a", {"dim": 13, "block_size": 1.0}),
            ("a", {"kind": "diagonal", "dim": 13, "block_size": 0}),
            ("g", {"dim": 8}),
        ],
        ids=["no-block-size", "no-dim", "zero-block", "block-not-dividing", "string-dim", "float-block", "format-1", "g"],
    )
    def test_malformed_repr_tag_is_a_value_error_naming_layer_and_factor(self, which, tag):
        _, pre, _ = self._trained()
        state = pre.state_dict()
        state["layers"]["norm"][f"{which}_repr"] = tag
        fresh = KFAC(MixNet(seed=5), factor_update_freq=1, inv_update_freq=2)
        with pytest.raises(ValueError, match=f"layer 'norm': malformed {which.upper()} factor repr tag"):
            fresh.load_state_dict(state)

    def test_repr_mismatch_is_rejected(self):
        _, pre, _ = self._trained(dense_factors=False)
        fresh = DenseFactorKFAC(MixNet(seed=5))
        with pytest.raises(ValueError, match="stores the G factor as diagonal:8"):
            fresh.load_state_dict(pre.state_dict())


# --------------------------------------------------------------------------- BatchNorm2d
class TestBatchNorm2dNotPreconditioned:
    """K-FAC preconditions ``Conv2d`` and ``Linear`` (paper section 3.4): a ``BatchNorm2d`` gets no handler."""

    @pytest.mark.parametrize("affine", [True, False])
    def test_no_handler(self, affine):
        module = nn.BatchNorm2d(3, affine=affine)
        assert make_kfac_layer("bn", module, PrecisionPolicy.fp32(), lambda: True, lambda: 1.0) is None

    def test_its_gradients_and_running_stats_are_the_optimizers_alone(self):
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
                assert sorted(pre.layers) == ["conv", "head"]
                pre.step(lr=0.1)
            bn = model.bn
            return [array.copy() for array in (bn.weight.grad, bn.bias.grad, bn.running_mean, bn.running_var)]

        for plain, preconditioned in zip(run(with_kfac=False), run(with_kfac=True)):
            np.testing.assert_array_equal(plain, preconditioned)


# --------------------------------------------------------------------------- model coverage
class TestModelCoverage:
    def test_resnet20_every_conv_and_linear_preconditioned_and_no_batch_norm(self):
        model = cifar_resnet20(rng=np.random.default_rng(0))
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1)
        handled = {id(layer.module) for layer in pre.layers.values()}
        for name, module in model.named_modules():
            if isinstance(module, (nn.Linear, nn.Conv2d)):
                assert id(module) in handled, f"{name} is not preconditioned"
        assert {type(layer.module) for layer in pre.layers.values()} == {nn.Conv2d, nn.Linear}

        x = RNG.standard_normal((4, 3, 32, 32)).astype(np.float32)
        labels = RNG.integers(0, 10, 4)
        nn.CrossEntropyLoss()(model(Tensor(x)), labels).backward()
        pre.step(lr=0.1)
        for p in model.parameters():
            assert np.all(np.isfinite(p.grad))

    def test_bert_tiny_every_linear_and_layer_norm_preconditioned_and_no_embedding(self):
        model = bert_tiny(vocab_size=50, rng=np.random.default_rng(0))
        pre = KFAC(model, factor_update_freq=1, inv_update_freq=1)  # no skip_modules
        handled = {id(layer.module) for layer in pre.layers.values()}
        modules = dict(model.named_modules())
        assert sum(isinstance(module, nn.Embedding) for module in modules.values()) >= 2  # token + position tables
        for name, module in modules.items():
            assert (id(module) in handled) == isinstance(module, (nn.Linear, nn.LayerNorm)), name
        norm_handlers = [l for l in pre.layers.values() if isinstance(l, KFACLayerNormLayer)]
        assert len(norm_handlers) >= 2
        for handler in norm_handlers:
            assert handler.g_repr == FactorRepr.diagonal(handler.g_dim)

        ids = RNG.integers(0, 50, (2, 12))
        labels = RNG.integers(0, 50, (2, 12))
        logits = model(ids)
        loss = nn.CrossEntropyLoss()(logits.reshape(-1, logits.shape[-1]), labels.reshape(-1))
        loss.backward()
        pre.step(lr=0.1)
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
            pre.step(lr=0.1)

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
            pre.step(lr=0.1)
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
    if layer.a_repr.block_size == layer.a_repr.dim:
        payload = payload * 1.0
    return comm.allreduce_average(payload)
"""
            }
        )
        assert result.findings == []

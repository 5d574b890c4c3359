"""Tests for the training loop, metrics, convergence curves and the experiment harness."""

import numpy as np
import pytest

from repro import nn, optim
from repro.experiments import (
    PAPER_BASELINES,
    PAPER_HYPERPARAMETERS,
    SMALL_WORKLOADS,
    build_workload,
    collect_layer_shapes,
    format_markdown_table,
    format_table,
    make_optimizer,
    paper_layer_shapes,
    paper_workload_spec,
    run_convergence_comparison,
    scaling_projection,
    sweep_grad_worker_frac,
)
from repro.experiments.reporting import ascii_curve
from repro.kfac import KFAC
from repro.models import MLP, bert_tiny
from repro.tensor import Tensor
from repro.training import (
    Trainer,
    TrainingCurve,
    classification_accuracy,
    detection_score,
    mask_iou,
    masked_lm_accuracy,
    segmentation_dice,
)


class TestMetrics:
    def test_classification_accuracy(self):
        logits = np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0]])
        assert classification_accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_masked_lm_accuracy_ignores_unmasked(self):
        logits = np.zeros((1, 3, 4))
        logits[0, 1, 2] = 5.0
        labels = np.array([[-100, 2, -100]])
        assert masked_lm_accuracy(logits, labels) == 1.0

    def test_masked_lm_accuracy_no_masked_positions(self):
        assert masked_lm_accuracy(np.zeros((1, 2, 3)), np.full((1, 2), -100)) == 0.0

    def test_segmentation_dice_perfect(self):
        masks = np.zeros((2, 1, 4, 4))
        masks[:, :, :2, :2] = 1
        logits = (masks * 2 - 1) * 10
        assert segmentation_dice(logits, masks) > 0.95

    def test_mask_iou_range(self):
        masks = (np.random.default_rng(0).random((3, 5, 5)) > 0.5).astype(np.float32)
        perfect = mask_iou((masks * 2 - 1) * 10, masks)
        inverted = mask_iou(-(masks * 2 - 1) * 10, masks)
        assert perfect > 0.95 > inverted

    def test_detection_score_combines_accuracy_and_iou(self):
        labels = np.array([0, 1])
        class_logits = np.array([[5.0, 0.0], [0.0, 5.0]])
        masks = np.zeros((2, 4, 4))
        masks[:, :2, :2] = 1
        mask_logits = np.stack([np.stack([(masks[i] * 2 - 1) * 10] * 2) for i in range(2)])
        score = detection_score(class_logits, labels, mask_logits, masks)
        assert score > 0.9


class TestTrainingCurve:
    def _curve(self):
        curve = TrainingCurve(name="test")
        for i, metric in enumerate([0.2, 0.5, 0.8, 0.9]):
            curve.record(iteration=(i + 1) * 10, epoch=float(i + 1), metric=metric, simulated_time=(i + 1) * 2.0)
        return curve

    def test_iterations_and_epochs_to_target(self):
        curve = self._curve()
        assert curve.iterations_to_target(0.75) == 30
        assert curve.epochs_to_target(0.75) == 3.0
        assert curve.time_to_target(0.75, simulated=True) == 6.0

    def test_target_not_reached(self):
        assert self._curve().iterations_to_target(0.99) is None

    def test_best_and_final(self):
        curve = self._curve()
        assert curve.best_metric == 0.9 and curve.final_metric == 0.9

    def test_lower_is_better_mode(self):
        curve = TrainingCurve(name="loss", higher_is_better=False)
        curve.record(1, 1.0, 2.0)
        curve.record(2, 2.0, 0.5)
        assert curve.iterations_to_target(1.0) == 2
        assert curve.best_metric == 0.5

    def test_empty_curve_raises(self):
        with pytest.raises(ValueError):
            TrainingCurve(name="x").best_metric


class TestTrainer:
    def _components(self, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((128, 6)).astype(np.float32)
        y = (x @ rng.standard_normal((6, 3)).astype(np.float32)).argmax(axis=1)
        model = MLP(6, [16], 3, rng=rng)
        loss_fn = nn.CrossEntropyLoss()

        def forward_loss(m, batch):
            features, labels = batch
            return loss_fn(m(Tensor(features)), labels)

        batches = [(x[i : i + 32], y[i : i + 32]) for i in range(0, 128, 32)]
        return model, forward_loss, batches, x, y

    def test_train_step_reduces_loss(self):
        model, forward_loss, batches, _, _ = self._components()
        trainer = Trainer(model, optim.SGD(model.parameters(), lr=0.1, momentum=0.9), forward_loss)
        first = trainer.train_step(batches[0])
        for _ in range(20):
            last = trainer.train_step(batches[0])
        assert last < first

    def test_fit_records_curve_and_counts_iterations(self):
        model, forward_loss, batches, x, y = self._components(1)
        trainer = Trainer(model, optim.SGD(model.parameters(), lr=0.1, momentum=0.9), forward_loss, iteration_time=0.5)
        curve = trainer.fit(
            batches, epochs=3, evaluate_fn=lambda m: classification_accuracy(m(Tensor(x)).numpy(), y)
        )
        assert len(curve.points) == 3
        assert trainer.iterations == 12
        assert curve.points[-1].simulated_time == pytest.approx(12 * 0.5)

    def test_fit_stops_at_target(self):
        model, forward_loss, batches, x, y = self._components(2)
        trainer = Trainer(model, optim.SGD(model.parameters(), lr=0.2, momentum=0.9), forward_loss)
        curve = trainer.fit(
            batches,
            epochs=50,
            evaluate_fn=lambda m: classification_accuracy(m(Tensor(x)).numpy(), y),
            target_metric=0.9,
        )
        assert curve.reached(0.9)
        assert len(curve.points) < 50

    def test_max_iterations_cap(self):
        model, forward_loss, batches, _, _ = self._components(3)
        trainer = Trainer(model, optim.SGD(model.parameters(), lr=0.1), forward_loss)
        trainer.fit(batches, epochs=10, max_iterations=5)
        assert trainer.iterations == 5

    def test_gradient_accumulation_list_of_microbatches(self):
        """Accumulation is the list of micro-batches a step is given; the trainer takes no count of its own."""
        model, forward_loss, batches, _, _ = self._components(4)
        trainer = Trainer(model, optim.SGD(model.parameters(), lr=0.1), forward_loss)
        loss = trainer.train_step([batches[0], batches[1]])
        assert np.isfinite(loss)
        assert trainer.iterations == 1
        with pytest.raises(TypeError, match="grad_accumulation_steps"):
            Trainer(model, optim.SGD(model.parameters(), lr=0.1), forward_loss, grad_accumulation_steps=2)

    def test_an_empty_micro_batch_list_is_refused_before_anything_is_touched(self):
        model, forward_loss, batches, _, _ = self._components(6)
        trainer = Trainer(model, optim.SGD(model.parameters(), lr=0.1), forward_loss)
        forward_loss(model, batches[0]).backward()
        grads = [p.grad.copy() for p in model.parameters()]
        with pytest.raises(ValueError, match="empty list of micro-batches"):
            trainer.train_step([])
        assert trainer.iterations == 0
        assert all(np.array_equal(p.grad, g) for p, g in zip(model.parameters(), grads))

    def test_trainer_with_kfac_and_scheduler(self):
        model, forward_loss, batches, x, y = self._components(5)
        opt = optim.SGD(model.parameters(), lr=0.1, momentum=0.9)
        pre = KFAC(model, factor_update_freq=2, inv_update_freq=4)
        sched = optim.WarmupCosine(opt, total_steps=40, warmup_steps=4)
        trainer = Trainer(model, opt, forward_loss, preconditioner=pre, lr_scheduler=sched)
        for batch in batches * 3:
            trainer.train_step(batch)
        assert pre.steps == trainer.iterations
        assert opt.param_groups[0]["lr"] < 0.1  # scheduler engaged
        # The trainer drives the KFAC it was given; its state is what the training built.
        assert trainer.preconditioner is pre and pre.memory_usage()["total"] > 0


class TestConfigs:
    def test_paper_tables_cover_all_apps(self):
        assert set(PAPER_BASELINES) == {"resnet50", "mask_rcnn", "unet", "bert_large"}
        assert set(PAPER_HYPERPARAMETERS) == set(PAPER_BASELINES)

    def test_table2_values_transcribed(self):
        resnet = PAPER_HYPERPARAMETERS["resnet50"]
        assert resnet.global_batch_size == 2048
        assert resnet.inv_update_freq == 500 and resnet.factor_update_freq == 50
        bert = PAPER_HYPERPARAMETERS["bert_large"]
        assert bert.global_batch_size == 65536 and bert.inv_update_freq == 100

    def test_small_workload_configs_valid(self):
        for config in SMALL_WORKLOADS.values():
            assert config.inv_update_freq % config.factor_update_freq == 0
            assert 0 < config.target_metric <= 1


class TestWorkloads:
    @pytest.mark.parametrize("name", ["mlp", "cifar_resnet", "unet", "mask_rcnn", "bert"])
    def test_workload_builds_and_one_step_trains(self, name):
        workload = build_workload(name, seed=0)
        optimizer = make_optimizer(
            workload.config.baseline_optimizer, workload.model.parameters(), lr=workload.config.baseline_lr
        )
        batch = next(iter(workload.train_loader))
        loss = workload.forward_loss(workload.model, batch)
        assert np.isfinite(loss.item())
        loss.backward()
        optimizer.step()
        metric = workload.evaluate(workload.model)
        assert 0.0 <= metric <= 1.0

    def test_unknown_workload(self):
        with pytest.raises(ValueError):
            build_workload("gpt17")

    def test_unknown_optimizer(self):
        with pytest.raises(ValueError):
            make_optimizer("rmsprop", MLP(2, [2], 2).parameters(), lr=0.1)

    @pytest.mark.parametrize("argument", ["num_train", "num_val"])
    def test_bert_workload_refuses_empty_split(self, argument):
        with pytest.raises(ValueError, match="num_train and num_val must be at least 1"):
            build_workload("bert", **{argument: 0})

    def test_bert_workload_excludes_the_head_from_kfac(self):
        """Only the MLM head is skipped: no handler registers the embeddings."""
        workload = build_workload("bert", seed=0)
        assert workload.kfac_skip_modules == (workload.model.mlm_head,)


class TestModelShapes:
    def test_collect_layer_shapes_linear_and_conv(self):
        model = bert_tiny(vocab_size=40, rng=np.random.default_rng(0))
        shapes = collect_layer_shapes(model, skip_modules=model.kfac_excluded_modules())
        assert len(shapes) == 17  # 2 blocks x (6 Linear + 2 LayerNorm) + the embeddings' LayerNorm, as KFAC registers
        assert sum(info.g_repr.num_blocks == 1 for info in shapes) == 12  # the Linear layers: dense factors
        assert all(info.a_dim == info.grad_numel // info.g_dim for info in shapes)

    def test_paper_layer_shapes_resnet50(self):
        shapes, params = paper_layer_shapes("resnet50")
        assert len(shapes) == 54  # 53 convolutions + final fully connected layer
        assert abs(params - 25_557_032) / 25_557_032 < 0.01

    def test_paper_layer_shapes_bert_large(self):
        shapes, params = paper_layer_shapes("bert_large")
        assert len(shapes) == 24 * 6
        assert 300e6 < params < 400e6

    def test_paper_layer_shapes_cached(self):
        first, _ = paper_layer_shapes("mask_rcnn")
        second, _ = paper_layer_shapes("mask_rcnn")
        assert first is second

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            paper_layer_shapes("alexnet")

    def test_paper_workload_spec_fp16(self):
        spec = paper_workload_spec("bert_large", precision="fp16")
        assert spec.dtype_bytes == 2
        assert spec.grad_accumulation_steps > 1


class TestHarness:
    def test_convergence_comparison_on_mlp(self):
        result = run_convergence_comparison("mlp", epochs=6, seed=0)
        summary = result.summary()
        assert summary["kaisa_best"] >= summary["baseline_best"] - 0.05
        assert result.kaisa_curve.points and result.baseline_curve.points

    def test_sweep_grad_worker_frac_shapes(self):
        spec = paper_workload_spec("resnet18")
        results = sweep_grad_worker_frac(spec, world_size=64, fracs=[1 / 64, 0.5, 1.0])
        assert set(results) == {1 / 64, 0.5, 1.0}
        memories = [results[f]["memory_overhead_bytes"] for f in (1 / 64, 0.5, 1.0)]
        assert memories[0] < memories[1] < memories[2]

    def test_scaling_projection_structure(self):
        spec = paper_workload_spec("resnet18")
        projection = scaling_projection(spec, [8, 16], baseline_iterations=90, kaisa_iterations=55)
        assert set(projection) == {"MEM-OPT", "HYBRID-OPT (1/2)", "COMM-OPT"}
        assert set(projection["COMM-OPT"]) == {8, 16}

    def test_scaling_projection_scales_update_frequency(self):
        spec = paper_workload_spec("resnet18")
        scaled = scaling_projection(
            spec, [8, 32], baseline_iterations=90, kaisa_iterations=55, scale_update_freq_with_world=True
        )
        assert all(value > 0 for value in scaled["COMM-OPT"].values())


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["a", 1.0], ["long-name", None]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "long-name" in lines[3] and "-" in lines[3]

    def test_markdown_table(self):
        md = format_markdown_table(["a", "b"], [[1, 2]])
        assert md.splitlines()[0] == "| a | b |"
        assert "| 1 | 2 |" in md

    def test_ascii_curve_renders(self):
        plot = ascii_curve([0.1, 0.5, 0.9], width=10, height=4, label="curve")
        assert "curve" in plot and "*" in plot

    def test_ascii_curve_empty(self):
        assert "empty" in ascii_curve([])


class TestMeasuredMemoryReport:
    def test_live_memory_matches_analytic_prediction(self):
        from repro.experiments import measured_memory_report

        report = measured_memory_report("mlp", world_size=2, grad_worker_frac=0.5, steps=1)
        assert report["world_size"] == 2
        assert len(report["per_rank"]) == 2
        for entry in report["per_rank"]:
            assert entry["measured"]["total"] > 0
            assert entry["measured"] == entry["predicted"]
        assert report["measured_total_max"] >= report["measured_total_mean"]

    @pytest.mark.parametrize("solver", ["inverse", "eigen"])
    @pytest.mark.parametrize("world, frac", [(2, 0.5), (2, 1.0), (4, 0.25), (4, 0.5), (4, 1.0)])
    def test_live_memory_is_the_memory_model_byte_for_byte_on_every_rank(self, world, frac, solver):
        """The prediction above comes from the running system's own plan; this one comes from a
        ``KFACWorkloadSpec``, which only sees layer shapes: held factors + eigen and solver state, per rank,
        on either solve path."""
        from repro.experiments import build_workload, collect_layer_shapes, measured_memory_report
        from repro.kfac import KFACConfig, KFACWorkloadSpec
        from repro.memory import memory_breakdown

        workload = build_workload("mlp", seed=0)
        layers = collect_layer_shapes(workload.model, skip_modules=workload.kfac_skip_modules)
        config = KFACConfig(solve_strategy=solver)
        spec = KFACWorkloadSpec("mlp", layers, 0, local_batch_size=0, baseline_compute_time=0.0, config=config)
        plan = spec.plan(world, frac)
        factors = plan.factor_bytes_per_rank()
        eigen = plan.state_bytes_per_rank("eigen")
        inverses = plan.state_bytes_per_rank("solver")  # the inverse triangles, on the gradient workers
        report = measured_memory_report(
            "mlp", world_size=world, grad_worker_frac=frac, steps=1, kfac_overrides={"solve_strategy": solver}
        )
        for rank, entry in enumerate(report["per_rank"]):
            assert entry["measured"]["factors"] == factors[rank]
            assert entry["measured"]["eigen"] == eigen[rank]
            assert entry["measured"]["solver"] == inverses[rank]
        assert (eigen.sum() > 0) == (solver == "eigen") != (inverses.sum() > 0)
        assert factors.sum() == spec.factor_bytes  # every factor once
        assert report["measured_total_max"] == memory_breakdown(spec, world, frac, rank="max").kfac_overhead

    def test_each_solve_path_holds_each_factor_once_as_predicted(self):
        from repro.experiments import measured_memory_report

        # The eigen path (π from the eigenvalues its holders receive) and the inverse path: each factor's decomposer.
        sharded = measured_memory_report("mlp", world_size=2, grad_worker_frac=0.5, steps=1)
        for overrides in ({"solve_strategy": "eigen"}, {}):
            report = measured_memory_report(
                "mlp", world_size=2, grad_worker_frac=0.5, steps=1, kfac_overrides=overrides
            )
            for entry in report["per_rank"]:
                assert entry["measured"] == entry["predicted"]
            held = sum(entry["measured"]["factors"] for entry in report["per_rank"])
            assert held == sum(entry["measured"]["factors"] for entry in sharded["per_rank"]), overrides

    @pytest.mark.parametrize("solver, key", [("inverse", "solver"), ("eigen", "eigen")])
    def test_solver_state_is_predicted_from_layer_shapes_not_read_off_the_solvers(self, solver, key, monkeypatch):
        """Each strategy states its bytes from the layer's shape and reprs; a live solver that over-reports is caught."""
        from repro.experiments import measured_memory_report
        from repro.kfac import EigenSolveStrategy, InverseSolveStrategy

        def run():
            report = measured_memory_report(
                "mlp", world_size=2, grad_worker_frac=0.5, steps=1, kfac_overrides={"solve_strategy": solver}
            )
            return [(entry["measured"], entry["predicted"]) for entry in report["per_rank"]]

        for measured, predicted in run():
            assert measured == predicted and predicted[key] > 0
        cls = {"inverse": InverseSolveStrategy, "eigen": EigenSolveStrategy}[solver]
        reported = cls.held_bytes
        monkeypatch.setattr(cls, "held_bytes", lambda self: 2 * reported(self))
        for measured, predicted in run():
            assert measured[key] > predicted[key] and measured != predicted

    @pytest.mark.parametrize("solver, state", [("inverse", "solver"), ("eigen", "eigen")])
    def test_comm_opt_holds_more_eigen_state_than_mem_opt(self, solver, state):
        from repro.experiments import measured_memory_report

        overrides = {"solve_strategy": solver}
        mem_opt = measured_memory_report("mlp", world_size=4, grad_worker_frac=0.25, steps=1, kfac_overrides=overrides)
        comm_opt = measured_memory_report("mlp", world_size=4, grad_worker_frac=1.0, steps=1, kfac_overrides=overrides)
        mem_eigen = sum(e["measured"][state] for e in mem_opt["per_rank"])
        comm_eigen = sum(e["measured"][state] for e in comm_opt["per_rank"])
        assert comm_eigen > mem_eigen > 0

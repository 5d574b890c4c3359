"""The KAISA K-FAC gradient preconditioner.

Usage mirrors the paper's Listing 1, driven by a validated config::

    model = ...                                   # any repro.nn model
    optimizer = optim.SGD(model.parameters(), lr=0.1, momentum=0.9)
    config = KFACConfig.hybrid(grad_worker_frac=0.5, lr=0.1)
    preconditioner = KFAC(model, config)

    for data, target in loader:
        optimizer.zero_grad()
        loss = criterion(model(data), target)
        loss.backward()
        preconditioner.step()                      # precondition gradients in-place
        optimizer.step()

(``KFAC(model, lr=0.1, ...)`` builds the :class:`KFACConfig` from the keyword
hyperparameters, so both spellings validate through the same rules.)

A call to :meth:`KFAC.step` performs the four stages of Figure 3 / section 3.4:

1. average the forward/backward statistics accumulated by the layer hooks
   into this rank's *window* factors, allreduce those, and fold the averaged
   window into the running-average Kronecker factors on the ranks that hold
   them (every ``factor_update_freq`` iterations),
2. compute the eigen decompositions on their assigned workers and broadcast
   them to the layer's gradient workers (every ``inv_update_freq``
   iterations).  Taking the step's actions submits the factors as the step
   began to the rank's :class:`~repro.kfac.refresh.RefreshQueue`; stage 2
   takes and installs the results,
3. precondition the gradients on the gradient workers and broadcast the
   result to the gradient receivers (every iteration),
4. apply the KL-clip scaling and write the preconditioned gradients back into
   ``param.grad`` so the following ``optimizer.step()`` consumes them.

There is one path through these stages, and one schedule.  ``grad_worker_frac``
places the work (section 3.1): ``1/world_size`` is MEM-OPT, ``1`` is
COMM-OPT, anything between is HYBRID-OPT.  The config builds one
:class:`~repro.kfac.strategy.DistributionPlan`
(:meth:`KFACConfig.distribution_plan`): who decomposes, who holds, the three
communication rounds as unbound specs, and in
:meth:`~repro.kfac.strategy.DistributionPlan.actions` the layers a step folds
and refreshes, revised by a :class:`~repro.kfac.scheduling.DriftSchedule`
when ``drift_tol > 0``.  *How* a layer is preconditioned is its
:class:`~repro.kfac.scheduling.SolveStrategy` (the default is the eigen path
of Eq. 15-17).  :meth:`KFAC._bind` attaches this rank's arrays to the plan's
specs once, and every allreduce and broadcast goes through one bucketed
collective engine (:mod:`repro.distributed.collectives`).

:class:`KFAC` implements the :class:`~repro.kfac.base.Preconditioner`
protocol: :meth:`state_dict` / :meth:`load_state_dict` round-trip the running
factors, eigen state, drift schedule and step counter (per rank), so
checkpoint/resume reproduces the exact training trajectory under every
distribution strategy.

Every refresh decision is counted per layer in the rank's one registry, the
communicator's tracer (``comm.tracer``), as ``kfac/<event>/<layer>``:
``factor_updates``, ``eigen_updates``, ``factor_skips``, ``eigen_skips``,
``drift_triggers`` and ``factor_windows_rejected``, beside
``kfac/damping_shrinks`` / ``kfac/damping_grows`` and the ``kfac/damping``
gauge; :func:`~repro.kfac.analysis.apply_measured_fractions` reads them back.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..distributed.backend import Communicator, SingleProcessCommunicator
from ..distributed.collectives import AllreduceSpec, BroadcastSpec, GradientBucketSpec, OverlapScheduler
from ..nn.module import Module
from .base import Preconditioner
from .config import KFACConfig
from .kernels import KernelBackend
from .kmath import eigenvalue_outer_product, kl_clip_scale_from_total, tikhonov_pi
from .layers import KFACLayer, make_kfac_layer
from .refresh import RefreshQueue
from .scheduling import AdaptiveDampingController, DriftSchedule, SolveStrategy, make_solve_strategy
from .strategy import DistributionPlan, LayerWorkGroups, StepActions, pack_eigen, unpack_eigen_repr

__all__ = ["KFAC"]


class KFAC(Preconditioner):
    """K-FAC second-order gradient preconditioner with a tunable memory footprint."""

    def __init__(
        self,
        model: Module,
        config: Optional[KFACConfig] = None,
        *,
        comm: Optional[Communicator] = None,
        grad_scaler=None,
        skip_modules: Sequence[Module] = (),
        **hyperparams: Any,
    ) -> None:
        """Register ``model``'s layers and build this rank's plans.

        Hyperparameters come either as a :class:`KFACConfig` or as its fields
        by keyword (``KFAC(model, lr=0.1, precision="fp16")``); all validation
        lives in :class:`KFACConfig`, so code, checkpoints and experiment
        manifests are checked by the same rules.  Per-run objects (the
        communicator -- whose tracer the preconditioner records into --, grad
        scaler, skipped modules) are passed separately because they are not
        serializable hyperparameters.
        """
        if config is None:
            config = KFACConfig(**hyperparams)
        elif not isinstance(config, KFACConfig):
            raise TypeError(f"expected KFACConfig, got {type(config).__name__}")
        elif hyperparams:
            raise TypeError("pass either a KFACConfig or keyword hyperparameters, not both")

        self.model = model
        self._config = config
        # The two hyperparameters that change during a run (step(lr=...), adaptive damping).
        self.lr = config.lr
        self.damping = config.damping
        self.grad_scaler = grad_scaler
        self.comm = comm if comm is not None else SingleProcessCommunicator()
        self.tracer = self.comm.tracer
        self.precision = config.precision_policy()  # the dtypes the ``precision`` name stands for

        self._steps = 0
        # The rank's pending decompositions and its eigen worker thread, joined by remove().
        self.refresh = RefreshQueue(
            lambda factors, repr_: self.kernels.eigen_task(factors, repr_, compute_dtype=self.precision.compute_dtype),
            self.tracer,
            name=f"kfac-eigen-rank{self.rank}",
        )
        self._begin_factor_window()
        self._skip_ids = {id(m) for m in skip_modules}
        # One kernel-backend instance per preconditioner (per rank): a backend
        # owns mutable scratch buffers, so it must not be shared across the
        # threaded ranks of a multi-rank world.  Built before layer
        # registration because every layer routes its hot math through it.
        self.kernels = KernelBackend()
        self.layers: Dict[str, KFACLayer] = {}
        self._register_model(model)
        if not self.layers:
            raise ValueError("model contains no K-FAC-supported layers to precondition")
        # The run's one plan: placement, holders and the three rounds of an
        # update as data.  Everything below that asks "who" or "what moves"
        # looks it up here, and so do the cost and memory models.
        self.plan: DistributionPlan = config.distribution_plan(
            [layer.shape_info() for layer in self.layers.values()], self.comm.world_size
        )
        self.groups: Dict[str, LayerWorkGroups] = self.plan.groups
        # The plan says when; with drift tracking on, a per-layer schedule revises it.
        self.drift: Optional[DriftSchedule] = self._new_drift()
        self.solvers: Dict[str, SolveStrategy] = {
            name: self._make_solver(config.solver_name_for(layer)) for name, layer in self.layers.items()
        }
        self.damping_controller: Optional[AdaptiveDampingController] = (
            AdaptiveDampingController(config.damping) if config.adaptive_damping else None
        )
        self.scheduler = OverlapScheduler(self.comm, self.plan.bucket_cap_mb)
        # This rank's side of the plan's eigen and gradient rounds, attached
        # once, by key and source: the specs' callables read the layers and
        # ``_preconditioned`` when they run, so nothing about them changes
        # from step to step.
        self._preconditioned: Dict[str, Optional[np.ndarray]] = {}
        rounds = (*self.plan.eigen_round.values(), *self.plan.gradient_round.values())
        self._bound = {(spec.key, spec.src): self._bind(spec) for specs in rounds for spec in specs}

    def _new_drift(self) -> Optional[DriftSchedule]:
        """A fresh drift schedule, or None: at ``drift_tol=0`` the plan's actions are carried out as they are."""
        config = self._config
        return DriftSchedule(self.plan, config.drift_tol, config.max_staleness) if config.drift_tol > 0 else None

    def _make_solver(self, name: str) -> SolveStrategy:
        kwargs = {"tol": self._config.cg_tol, "max_iter": self._config.cg_max_iter} if name == "cg" else {}
        return make_solve_strategy(name, **kwargs)

    @property
    def resolved_bucket_cap_mb(self) -> float:
        """The plan's fused-buffer cap (MB), ``"auto"`` resolved: what the ``Trainer`` sizes its pipeline with."""
        return self.plan.bucket_cap_mb

    # ----------------------------------------------------------- construction
    @classmethod
    def from_config(cls, model: Module, config: KFACConfig, **run_objects: Any) -> "KFAC":
        """Alias of ``KFAC(model, config, **run_objects)``."""
        return cls(model, config, **run_objects)

    # ------------------------------------------------------------ registration
    def _register_model(self, model: Module) -> None:
        for name, module in model.named_modules():
            if id(module) in self._skip_ids:
                continue
            layer_name = name or module.__class__.__name__
            layer = make_kfac_layer(
                layer_name,
                module,
                self.precision,
                # Hooks accumulate statistics only for the layers the pending step folds.
                should_accumulate=lambda layer_name=layer_name: layer_name in self.actions().fold,
                grad_scale=self._current_grad_scale,
                kernels=self.kernels,
            )
            if layer is not None:
                self.layers[layer.name] = layer

    def actions(self) -> StepActions:
        """What the pending step does: the plan's :meth:`~repro.kfac.strategy.DistributionPlan.actions`, revised by drift.

        Taken once per step -- by the first K-FAC layer's forward hook, or by
        :meth:`step` itself -- and kept until it ends, so the hooks,
        :meth:`pipeline_specs`, :meth:`on_pipeline_flush` and the step read
        the same value.  Taking it submits the decompositions of ``refresh``
        (:meth:`_submit`), which the eigen worker solves while forward and
        backward run.
        """
        if self._actions is None:
            self._actions = self.plan.actions(self._steps)
            if self.drift is not None:
                self._actions = self.drift.revise(self._actions)
            self._submit(self._actions.refresh)
        return self._actions

    def _current_grad_scale(self) -> float:
        if self.grad_scaler is None:
            return 1.0
        return float(self.grad_scaler.get_scale())

    def _stage(self, stage: str):
        """The ``kfac/<stage>`` span of one Figure-7 column."""
        return self.tracer.span(f"kfac/{stage}", category="kfac")

    def _count(self, event: str, names: Iterable[str]) -> None:
        """Count ``event`` once per layer in ``names``, as ``kfac/<event>/<layer>`` in the rank's registry."""
        for name in names:
            self.tracer.counter_add(f"kfac/{event}/{name}")

    # --------------------------------------------------------------- properties
    @property
    def steps(self) -> int:
        """Number of completed :meth:`step` calls."""
        return self._steps

    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def world_size(self) -> int:
        return self.comm.world_size

    @property
    def grad_worker_frac(self) -> float:
        return self._config.grad_worker_frac

    @property
    def kernel_backend(self) -> str:
        """The name of the kernels the hot math runs on (``kernels.name``)."""
        return self.kernels.name

    @property
    def config(self) -> KFACConfig:
        """The :class:`KFACConfig` this instance was built with, at the current ``lr``."""
        return self._config.replace(lr=self.lr)

    # --------------------------------------------------------------------- step
    @property
    def accepts_loss_feedback(self) -> bool:
        """Whether :meth:`step` consumes ``loss=`` (adaptive damping on)."""
        return self.damping_controller is not None

    def step(self, lr: Optional[float] = None, loss: Optional[float] = None) -> None:
        """Precondition all registered layer gradients in place (Listing 1): carry out this step's :meth:`actions`.

        In order: prepare the factor-reading solvers of ``refresh`` on the
        factors as the step found them; run the factor round of ``fold``
        (unless an armed pipeline ran it) and fold the averaged windows, once
        even when the step is retried; observe drift; take this rank's
        decompositions and run the eigen round; precondition and run the
        gradient round; apply the KL clip and write the gradients back.
        ``loss`` (this step's training loss) feeds the Levenberg-Marquardt
        adaptive damping controller when ``adaptive_damping`` is configured;
        it is ignored otherwise.
        """
        if lr is not None:
            self.lr = float(lr)
        step, sanitizer = self._steps, getattr(self.comm, "sanitizer", None)
        if sanitizer is not None:
            # Label this rank's position in the program so schedule-divergence
            # reports say *where* each rank was, not just what it posted.
            sanitizer.set_phase(self.rank, f"kfac/step:{step}")
            if step == 0:
                # A rank disagreeing on any factor representation (the plan's
                # layer shapes carry them), or on the plan derived from them,
                # would post differently-shaped or differently-routed
                # collectives; surface that here as a named divergence instead
                # of a buffer-size crash or a hang.
                sanitizer.check_consistent(self.rank, "kfac/reprs", self.plan.digest())
        with self.tracer.span("kfac/step", category="kfac", step=step):
            mean_loss = self._adapt_damping(loss)
            actions = self.actions()
            unfolded = self._prepare_solvers(actions.refresh)
            if not self._folded:  # a step retried after an error does not fold its window again
                if actions.fold and not self._factors_reduced:
                    with self._stage("factor_compute"):
                        for name in actions.fold:
                            self.factor_window(self.layers[name])
                    with self._stage("factor_allreduce"):
                        entries = self._factor_entries(actions.factor_round())
                        specs = [AllreduceSpec(key, pack(), on_complete=install) for _, key, _, _, pack, install in entries]
                        self.scheduler.run_allreduces(specs)
                self._fold_factors(actions.fold)
                self._check_first_windows()
                self._count("factor_updates", actions.fold)
                if self.drift is not None:
                    self._observe_drift(actions)
                self._folded = True
            if sanitizer is not None:
                # The actions and damping are functions of allreduced state
                # only; verify every rank derived the identical ones *before*
                # acting on them, so a divergence surfaces here instead of as
                # a mismatched collective schedule downstream.
                sanitizer.check_consistent(self.rank, f"kfac/plan:{step}", (actions.fold, actions.refresh, self.damping))
            self.tracer.gauge_set("kfac/damping", self.damping)
            self.tracer.instant(
                "kfac/refresh_decision", category="scheduling", step=step, damping=self.damping,
                factor_layers=len(actions.fold), second_order_layers=len(actions.refresh),
            )  # fmt: skip
            if actions.refresh:
                eigen = [name for name in actions.refresh if self.solvers[name].needs_eigen]
                with self._stage("eigen_decomposition"):
                    self._install_decompositions(eigen)
                    self._prepare_solvers(unfolded)
                with self._stage("eigen_broadcast"):
                    self.scheduler.run_broadcasts([self._bound[spec.key, spec.src] for spec in actions.eigen_round])
                    self._keep_eigen(eigen)
                if self.drift is not None:
                    for name in actions.refresh:
                        self.drift.mark_second_order(name, step, self.layers[name].factor_a, self.layers[name].factor_g)
                self._count("eigen_updates", actions.refresh)
            with self._stage("precondition"):
                gradients = self._precondition_gradients()
            with self._stage("grad_broadcast"):
                # Fills in the layers this rank did not precondition itself; no message where it did.
                self.scheduler.run_broadcasts([self._bound[spec.key, spec.src] for spec in actions.gradient_round])
            with self._stage("scale_and_update"):
                nu, raw_total = self._apply_preconditioned_gradients(gradients)
            if mean_loss is not None:
                # First-order predicted reduction of the update just written:
                # the parameter delta is -lr·ν·precond, so ⟨grad, Δw⟩ predicts
                # a decrease of lr·ν·Σ⟨grad, precond⟩.
                self.damping_controller.record_prediction(mean_loss, self.lr * nu * raw_total)
            self._steps += 1
            self._begin_factor_window()

    def _adapt_damping(self, loss: Optional[float]) -> Optional[float]:
        """Feed ``loss`` to the adaptive damping controller; the rank-averaged loss, or None without feedback."""
        if self.damping_controller is None or loss is None:
            return None
        # Average the loss across ranks so every rank applies the same
        # damping adjustment and the SPMD plan stays in lock step.
        mean_loss = float(self.comm.allreduce_average(np.asarray([float(loss)], dtype=np.float64))[0])
        previous = self.damping
        self.damping = self.damping_controller.observe_loss(mean_loss)
        if self.damping != previous:
            self.tracer.counter_add("kfac/damping_shrinks" if self.damping < previous else "kfac/damping_grows")
            self.tracer.instant(
                "kfac/damping_adjusted", category="scheduling", step=self._steps, old=previous, new=self.damping
            )
        return mean_loss

    def _check_first_windows(self) -> None:
        """Raise if a window of step 0 was rejected: the one case with no earlier factors to fall back on.

        Every layer folds on step 0 and a later step is only reached once
        every layer accepted a window; like the rejection itself, every rank
        reaches this together.
        """
        if self._rejected_windows and self._steps == 0:
            rejected = self._rejected_windows
            self._begin_factor_window()  # a retried step takes a fresh window
            raise ValueError(
                f"the first factor window of layer(s) {rejected} is not finite (non-finite "
                "activations or output gradients, e.g. an overflowed loss-scaled step) and "
                "there are no earlier factors to keep"
            )

    def _observe_drift(self, actions: StepActions) -> None:
        """Observe the drift of the layers ``actions`` folded (``drift_tol > 0``); a spike revises the next step.

        Post-allreduce, every rank holds and observes the identical factors,
        so every rank revises identically without extra communication.  A
        trigger pulls the layer's refresh to the next step, whose actions are
        then known when it begins.  What the revision passed over of the
        plan's own actions for this step is counted as ``factor_skips`` /
        ``eigen_skips``.
        """
        step = actions.step
        for name in actions.fold:
            layer = self.layers[name]
            if self.drift.observe_factors(name, step, layer.factor_a, layer.factor_g, layer.a_repr, layer.g_repr):
                self._count("drift_triggers", [name])
        base = self.plan.actions(step)
        self._count("factor_skips", [name for name in base.fold if name not in actions.fold])
        self._count("eigen_skips", [name for name in base.refresh if name not in actions.refresh])

    def damping_pi(self, layer: KFACLayer) -> Optional[float]:
        """The factor-trace π correction for ``layer``, or None when disabled.

        ``None`` keeps every downstream damping formula on its uncorrected
        branch bit for bit.
        """
        if not self._config.damping_pi_correction:
            return None
        if layer.factor_a is None or layer.factor_g is None:
            return None
        return tikhonov_pi(layer.factor_a, layer.factor_g, layer.a_repr, layer.g_repr)

    # ------------------------------------------------------------ stage 1: factors
    # Every rank contributes its *window average*; the average over ranks is
    # folded once, where the factor is read.  One spec builder serves both
    # callers: ``step()`` takes the window of every layer its actions fold,
    # then posts the entries as one schedule; a GradientPipeline the
    # preconditioner subscribes to (see ``pipeline_specs``) posts the same
    # entries from backward events, taking each layer's window inside its
    # payload.  The layers are walked in the actions' order (every rank
    # iterates, and hence posts collectives, in the same order); the others
    # contribute no local compute and no collective traffic.
    def _begin_factor_window(self) -> None:
        """Forget what was taken / reduced / rejected / submitted: the next factor update starts clean.

        The one reset point of the per-step bookkeeping — construction,
        the end of every :meth:`step`, :meth:`load_state_dict`, :meth:`reset`,
        :meth:`remove`.
        """
        self.refresh.cancel()
        self._actions: Optional[StepActions] = None  # the pending step's, once taken (:meth:`actions`)
        self._reduced: Dict[str, Dict[str, np.ndarray]] = {}  # layer name -> its averaged window halves, to fold
        self._windows: Dict[str, tuple] = {}  # layer name -> this rank's (A, G) window of the pending step
        self._rejected_windows: List[str] = []  # layers whose averaged window was not finite this step
        self._factors_reduced = False  # a pipeline already allreduced the pending step's factors
        self._folded = False  # the pending step folded its windows

    def factor_window(self, layer: KFACLayer) -> tuple:
        """This rank's ``(A, G)`` window average of ``layer`` for the pending step, in the factor dtype.

        Taken from the layer's accumulators once per pending step and kept
        until the step ends: a re-armed (retried) step posts the same window
        again, and it is folded once, when an allreduce of it is installed.
        """
        window = self._windows.get(layer.name)
        if window is None:
            if not layer.has_accumulated_data:
                raise RuntimeError(
                    f"layer {layer.name!r} has no forward/backward statistics for this factor update; "
                    "ensure the forward and backward passes ran in training mode before KFAC.step()"
                )
            dtype = self.precision.factor_dtype
            window = tuple(part.astype(dtype, copy=False) for part in layer.compute_batch_factors())
            self._windows[layer.name] = window
        return window

    def holds_factor(self, name: str, which: str) -> bool:
        """Whether this rank keeps layer ``name``'s running ``"a"`` / ``"g"`` factor.

        A lookup in the plan's ``factor_holders`` (the rule is
        :func:`~repro.kfac.strategy.build_plan`'s); a factor this rank does
        not hold stays ``None``.
        """
        return self.rank in self.plan.factor_holders[name, which]

    def accept_factor_window(self, layer: KFACLayer, window_a: np.ndarray, window_g: np.ndarray) -> bool:
        """Whether ``layer``'s averaged window pair may be folded: the same answer on every rank.

        Every rank receives the same averaged pair, so the decision needs no
        communication.  A non-finite pair (one bad activation, an overflowed
        loss-scaled backward) would never decay out of a running average; it
        is folded nowhere and counted (``kfac/factor_windows_rejected/<layer>``),
        and the step goes on with the factors and decompositions it had; the
        update still counts as performed, so a bad batch never moves the cadence.
        """
        if np.isfinite(window_a).all() and np.isfinite(window_g).all():
            return True
        self._rejected_windows.append(layer.name)
        self._count("factor_windows_rejected", [layer.name])
        self.tracer.instant("kfac/factor_window_rejected", category="kfac", step=self._steps, layer=layer.name)
        return False

    def _factor_entries(self, specs: Iterable[tuple]):
        """``(layer, key, shape, dtype, pack, install)`` per factor allreduce of ``specs`` (an actions' factor round).

        Each factor travels as it is stored (a dense one as its packed
        triangle); keys, wire shapes and dtype come from the specs.  Bound
        here are ``pack``, this rank's window average (:meth:`factor_window`),
        and ``install``, which keeps the averaged half for
        :meth:`_fold_factors`: the step folds, whether it or an armed pipeline
        ran the allreduces, so the factors stand as the step found them until
        its fold.
        """
        def pack(layer: KFACLayer, index: int) -> np.ndarray:
            return self.factor_window(layer)[index]

        def install(name: str, which: str, array: np.ndarray) -> None:
            self._reduced.setdefault(name, {})[which] = array

        for key, shape, dtype in specs:
            name, _, what = key.rpartition("/")
            which = what[-1]
            layer = self.layers[name]
            yield layer, key, shape, dtype, functools.partial(pack, layer, "ag".index(which)), functools.partial(install, name, which)

    def _fold_factors(self, names: Sequence[str]) -> None:
        """Fold the averaged windows of the layers ``names`` into their running factors.

        If every rank alike finds a layer's averaged pair finite
        (:meth:`accept_factor_window`), each half goes into the running
        factor with :meth:`KFACLayer.fold_factor` -- on the ranks that hold
        that factor (:meth:`holds_factor`) and nowhere else.  The running
        average is linear, so folding the averaged window once is the
        estimator every rank used to fold for itself.
        """
        for name in names:
            layer, received = self.layers[name], self._reduced.pop(name)
            if self.accept_factor_window(layer, received["a"], received["g"]):
                for held in ("a", "g"):
                    if self.holds_factor(name, held):
                        layer.fold_factor(held, received[held], self._config.factor_decay)

    # -------------------------------------------------------- stage 2: eigen decomp
    # Which rank decomposes which factor, which ranks keep the results, who
    # forms the cached outer product and every message are read off the plan
    # (section 3.1); ``_bind`` is the one place arrays meet its specs.
    def _bind(self, spec: BroadcastSpec) -> BroadcastSpec:
        """``spec`` of the plan's eigen or gradient round with this rank's side attached, by key.

        ``payload`` is what the source rank sends, evaluated when the spec's
        bucket is filled; ``on_complete`` is what every member of the group,
        the source included, does with the received array.  Both read their
        layer (or, for the gradient round, ``_preconditioned``) when they run,
        so a spec is bound once, at construction.
        """
        name, _, what = spec.key.rpartition("/")
        layer = self.layers[name]
        if what in ("eigen_a", "eigen_g"):
            repr_ = layer.factor_repr(what[-1])

            def payload() -> np.ndarray:
                if getattr(layer, what) is None:
                    raise RuntimeError("source rank does not hold the eigen decomposition to broadcast")
                return pack_eigen(getattr(layer, what), spec.dtype)

            def install(flat: np.ndarray) -> None:
                setattr(layer, what, unpack_eigen_repr(flat, repr_, spec.dtype))

        elif what == "inverse_outer":

            def payload() -> np.ndarray:
                return layer.inverse_outer

            def install(outer: np.ndarray) -> None:
                # Copy out of the fused bucket: this array outlives the
                # broadcast (kept until the next inverse update), and a
                # view would pin the whole bucket buffer in memory.
                layer.inverse_outer = outer.copy()

        else:  # "precond_grad"

            def payload() -> np.ndarray:
                return self._preconditioned[name]

            def install(array: np.ndarray) -> None:
                self._preconditioned[name] = array

        return dataclasses.replace(spec, payload=payload if spec.src == self.rank else None, on_complete=install)

    def _eigen_outer(self, layer: KFACLayer) -> Optional[np.ndarray]:
        """The cached ``1 / (v_G v_Aᵀ + γ)`` for ``layer``'s current decompositions, if configured."""
        if not self._config.compute_eigen_outer:
            return None
        return eigenvalue_outer_product(
            layer.eigen_a, layer.eigen_g, self.damping, dtype=self.precision.inverse_dtype, pi=self.damping_pi(layer)
        )

    def _submit(self, names: Sequence[str]) -> None:
        """Submit the factors this rank decomposes among the layers ``names`` to its :attr:`refresh` queue.

        Called when a step's actions are first taken (:meth:`actions`), so a
        refresh reads the factors as its step began, and again by
        :meth:`_install_decompositions` for those with no fold before it (step 0).
        """
        layers = self.layers
        self.refresh.submit(
            ((name, which), factor, layers[name].factor_repr(which))
            for name, which in self._decomposed(names)
            if (factor := getattr(layers[name], f"factor_{which}")) is not None
        )

    def _decomposed(self, names: Sequence[str]) -> List[tuple]:
        """``(layer, "a" | "g")`` of every factor this rank decomposes among the eigen-path layers ``names``."""
        return [
            (name, which)
            for name in names
            if self.solvers[name].needs_eigen
            for which in ("a", "g")
            if self.rank in self.plan.decomposers[name, which]
        ]

    def _install_decompositions(self, names: Sequence[str]) -> None:
        """Install the decompositions of the factors this rank owns among the refreshed eigen-path layers ``names``.

        A failed solve is raised before any decomposition is replaced; a
        layer's ``outer_worker`` then caches the eigenvalue outer product with
        the current damping, to broadcast it to its group.
        """
        self._submit(names)
        decompositions = self.refresh.take(step=self._steps, backend=self.kernels.name)
        keys = self._decomposed(names)
        for name, which in keys:
            if (name, which) not in decompositions:
                raise RuntimeError(f"layer {name!r} has no {which.upper()} factor to decompose")
        for name, which in keys:
            setattr(self.layers[name], f"eigen_{which}", decompositions[name, which].astype(self.precision.inverse_dtype))
        for name in names:
            if self.groups[name].outer_worker == self.rank:
                self.layers[name].inverse_outer = self._eigen_outer(self.layers[name])

    def _prepare_solvers(self, names: Sequence[str]) -> List[str]:
        """Refresh the factor-reading solvers of the refreshed layers ``names`` on their gradient workers.

        Called at the top of :meth:`step`, so a solver reads the factors as
        the step found them, like the decompositions on the eigen worker.
        Returns the layers that have no factors yet (step 0), for a second
        call after the fold.
        """
        unfolded = []
        for name in names:
            layer = self.layers[name]
            if self.solvers[name].needs_eigen or not self.groups[name].is_grad_worker(self.rank):
                continue
            if layer.factor_a is None:
                unfolded.append(name)
            else:
                self.solvers[name].prepare(layer, self.damping, pi=self.damping_pi(layer))
        return unfolded

    def _keep_eigen(self, names: Sequence[str]) -> None:
        """After the eigen round of the layers ``names``: their eigen state stays on its holders only."""
        for name in names:
            layer = self.layers[name]
            if self.rank not in self.plan.eigen_holders[name]:
                # Only the holders keep eigen state -- this is exactly the
                # tunable memory footprint of section 3.1.
                layer.clear_eigen()
            elif self.groups[name].outer_worker is None or not self._config.compute_eigen_outer:
                # No rank shipped the outer product: each holder forms it
                # from the decompositions it now has (or drops a stale one).
                layer.inverse_outer = self._eigen_outer(layer)

    # ------------------------------------------------------ stage 3: precondition
    def _precondition_gradients(self) -> Dict[str, np.ndarray]:
        """Precondition the layers this rank is a gradient worker of, into ``_preconditioned``.

        Returns those layers' bias-folded gradient matrices: stage 4 needs
        them again (the KL clip) and must not assemble them a second time.
        """
        gradients: Dict[str, np.ndarray] = {}
        for name, layer in self.layers.items():
            self._preconditioned[name] = None
            if self.groups[name].is_grad_worker(self.rank):
                grad = gradients[name] = layer.get_gradient()
                self._preconditioned[name] = self.solvers[name].solve(
                    layer, grad, self.damping, pi=self.damping_pi(layer)
                )
        return gradients

    # --------------------------------------------------- stage 4: scale and update
    def _apply_preconditioned_gradients(self, gradients: Dict[str, np.ndarray]) -> tuple:
        """Write back ν-scaled preconditioned gradients; return ``(ν, Σ⟨grad, precond⟩)``.

        ``gradients`` holds the gradient matrices stage 3 already built (the
        layers this rank preconditioned); the others are read here.  Each
        ν-scaled result goes straight into the gradient buffers it replaces
        (:meth:`KFACLayer.set_gradient`).  The raw inner-product total also
        feeds the adaptive damping controller's predicted-reduction estimate.
        """
        pairs = []
        for name, layer in self.layers.items():
            precond = self._preconditioned[name]
            if precond is None:
                raise RuntimeError(f"missing preconditioned gradient for layer {name!r}")
            grad = gradients.get(name)
            pairs.append((layer.get_gradient() if grad is None else grad, precond))
        self._preconditioned = {}  # the views of the received buckets are released with ``pairs``
        # One backend-accumulated Σ⟨grad, precond⟩ feeds both ν and the damping controller's prediction.
        raw_total = self.kernels.kl_clip_accumulate(pairs)
        nu = kl_clip_scale_from_total(raw_total, self.lr, self._config.kl_clip)
        for layer, (_, precond) in zip(self.layers.values(), pairs):
            layer.set_gradient(precond, nu)
        return nu, raw_total

    # ------------------------------------------ gradient-pipeline subscription
    # On a folding step KFAC publishes one bucket spec per Kronecker factor,
    # gated on its module's full-backward event, so a layer's factor traffic
    # is posted the moment *its* backward completes; KFAC.step() then skips
    # the factor round and folds, bitwise as it would have.
    def pipeline_specs(self, pipeline) -> List[GradientBucketSpec]:
        """Factor-allreduce bucket specs for this iteration (pipeline subscriber API)."""
        if pipeline.comm is not self.comm and (pipeline.comm.world_size > 1 or self.comm.world_size > 1):
            # Distinct world_size-1 communicators are harmless (collectives
            # are local no-ops); distinct multi-rank ones would desync the
            # per-group collective ordering, so reject them.
            raise ValueError(
                "GradientPipeline and KFAC must share one communicator; posting the factor "
                "allreduces on a different communicator would desynchronize collective ordering"
            )
        specs: List[GradientBucketSpec] = []
        # Reverse layer order: the last layers' backward events fire first,
        # so their factor buckets fill (and post) earliest.
        for layer, key, shape, dtype, pack, install in self._factor_entries(self.actions().factor_round(hooked=True)):
            specs.append(
                GradientBucketSpec(
                    key=f"kfac/{key}",
                    shape=shape,
                    dtype=dtype,
                    payload=pack,
                    on_complete=install,
                    modules=(layer.module,),
                    # A layer skipped by the final micro-batch still has a
                    # window of statistics from earlier ones; take and
                    # allreduce it at flush exactly as step() would.
                    flush_ready=lambda layer=layer: layer.name in self._windows or layer.has_accumulated_data,
                )
            )
        return specs

    def on_pipeline_flush(self, pipeline) -> None:
        """Mark this iteration's factor stages complete once the pipeline drained."""
        required = self.actions().fold
        missing = [name for name in required if name not in self._windows]
        if missing:
            raise RuntimeError(
                f"gradient pipeline flushed but layers {missing} produced no backward event; "
                "their factor windows were never taken or allreduced"
            )
        self._factors_reduced = bool(required)

    # ------------------------------------------------------------------- state
    def state_dict(self) -> Dict[str, Any]:
        """This rank's complete mutable preconditioner state.

        The dict contains the step counter, the hyperparameters (as a
        :class:`KFACConfig` dict, for bookkeeping), per-layer factor/eigen
        state and, with drift tracking on, the drift schedule
        (``"scheduler"``; without it the plan alone says when, and nothing is
        stored).  Different ranks hold different factors
        (:meth:`holds_factor`) and, under MEM-OPT / HYBRID-OPT, different
        eigen state, so each rank checkpoints and restores its own dict.
        The pending decompositions are not state: the restored step's actions
        read the same factors again.
        """
        state: Dict[str, Any] = {
            "steps": self._steps,
            "config": self.config.to_dict(),
            "layers": {name: layer.state_dict() for name, layer in self.layers.items()},
        }
        if self.drift is not None:
            state["scheduler"] = self.drift.state_dict()
        state["solvers"] = {name: solver.state_dict() for name, solver in self.solvers.items()}
        if self.damping_controller is not None:
            state["damping_controller"] = self.damping_controller.state_dict()
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore state saved by :meth:`state_dict`.

        The registered layers must match the checkpoint exactly (same names,
        same shapes); arrays are cast to this instance's precision policy.
        Hyperparameters are *not* overwritten — construct the instance from
        the same :class:`KFACConfig` to resume the identical schedule.  Factors
        this rank does not hold (:meth:`holds_factor`) are dropped, so a
        checkpoint that carries every factor on every rank resumes; a held
        factor the checkpoint lacks raises, once a factor update has run.
        """
        layer_states = state["layers"]
        missing = sorted(set(self.layers) - set(layer_states))
        unexpected = sorted(set(layer_states) - set(self.layers))
        if missing or unexpected:
            raise ValueError(
                "preconditioner state does not match the registered layers "
                f"(missing: {missing}, unexpected: {unexpected})"
            )
        self._steps = int(state["steps"])
        for name, layer in self.layers.items():
            layer.load_state_dict(layer_states[name])
            for which, attr in (("a", "factor_a"), ("g", "factor_g")):
                if not self.holds_factor(name, which):
                    setattr(layer, attr, None)
                elif getattr(layer, attr) is None and self._steps > 0:
                    raise ValueError(
                        f"checkpoint has no {which.upper()} factor for layer {name!r}, which rank {self.rank} "
                        "holds under this configuration; restore each rank from its own state_dict(), "
                        "written under the same config"
                    )
        scheduler = state.get("scheduler")
        if self.drift is not None:
            # Without a stored schedule the drift revision starts afresh: the
            # next step folds and refreshes every layer, as a first step does.
            self.drift = self._new_drift()
            if scheduler is not None:
                self.drift.load_state_dict(scheduler)
        elif scheduler is not None and self._steps > 0:
            # Earlier versions stored every layer's schedule with drift off too;
            # only its phases are read.  One written before the plan staggered
            # the refresh has every layer on phase 0, and resumes there.
            stored = scheduler["layers"]
            phases = {name: int(stored[name]["next_eigen_step"]) % self.plan.inv_update_freq for name in self.layers}
            if phases != self.plan.refresh_offsets:
                self.plan = dataclasses.replace(self.plan, refresh_offsets=phases)
        for name, solver_state in (state.get("solvers") or {}).items():
            if name in self.solvers:
                self.solvers[name].load_state_dict(solver_state)
        if self.damping_controller is not None and state.get("damping_controller") is not None:
            self.damping_controller.load_state_dict(state["damping_controller"])
            self.damping = self.damping_controller.damping
        # Factor bookkeeping refers to this instance's own history, not the
        # checkpoint's: after a restore the next step() must run its factor
        # stages itself unless a pipeline runs them again.
        self._begin_factor_window()

    # ------------------------------------------------------------------- memory
    def memory_usage(self) -> Dict[str, int]:
        """Bytes of K-FAC state held on *this* rank (the paper's K-FAC overhead)."""
        factors = sum(layer.factor_bytes() for layer in self.layers.values())
        eigen = sum(layer.eigen_bytes() for layer in self.layers.values())
        solver = sum(s.solver_bytes() for s in self.solvers.values())
        return {"factors": factors, "eigen": eigen, "solver": solver, "total": factors + eigen + solver}

    def reset(self) -> None:
        """Drop all factor and eigen state (e.g. between experiments)."""
        for layer in self.layers.values():
            layer.reset_accumulators()
            layer.factor_a = None
            layer.factor_g = None
            layer.clear_eigen()
        self._steps = 0
        self._begin_factor_window()
        self.drift = self._new_drift()
        for solver in self.solvers.values():
            solver.reset()
        if self.damping_controller is not None:
            self.damping_controller = AdaptiveDampingController(self._config.damping)
            self.damping = self._config.damping

    def remove(self) -> None:
        """Detach every layer's hooks from the model and join the eigen worker thread."""
        self._begin_factor_window()
        for layer in self.layers.values():
            layer.remove()
        self.refresh.close()

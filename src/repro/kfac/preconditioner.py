"""The KAISA K-FAC gradient preconditioner.

Usage mirrors the paper's Listing 1, driven by a validated config::

    model = ...                                   # any repro.nn model
    optimizer = optim.SGD(model.parameters(), lr=0.1, momentum=0.9)
    config = KFACConfig.hybrid(grad_worker_frac=0.5)
    preconditioner = KFAC(model, config)

    for data, target in loader:
        optimizer.zero_grad()
        loss = criterion(model(data), target)
        loss.backward()
        preconditioner.step(lr=optimizer.param_groups[0]["lr"])  # precondition gradients in-place
        optimizer.step()

(``KFAC(model, damping=0.003, ...)`` builds the :class:`KFACConfig` from the
keyword hyperparameters, so both spellings validate through the same rules.)
``step`` takes the rate the optimizer is about to apply, the one source of
the KL clip's ``lr``: a schedule moves it, and the preconditioner keeps no
copy of it.

A call to :meth:`KFAC.step` performs the four stages of Figure 3 / section 3.4:

1. average the forward/backward statistics accumulated by the layer hooks
   into this rank's *window* factors, allreduce those (:meth:`KFAC.factor_specs`,
   whoever posts them), and fold the averaged window into the running-average
   Kronecker factors on the ranks that hold them (every ``factor_update_freq``
   iterations),
2. compute the damped inverses (the default ``inverse`` path) or the eigen
   decompositions on their assigned workers and broadcast them to the
   layer's gradient workers (every ``inv_update_freq`` iterations).  Taking
   the step's actions submits the factors as the step began to the rank's
   :class:`~repro.kfac.refresh.RefreshQueue`; stage 2 takes the results,
   and each holder installs each one once: a group of one's decomposer
   directly, every other holder, the decomposer included, from the eigen
   round, whose payload is the result itself in its wire form (an inverse's
   packed triangle, installed into the holder's one triangle of a shared
   buffer),
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
and refreshes.  *How* a layer is preconditioned is its
:class:`~repro.kfac.scheduling.SolveStrategy` (the default is the damped
inverse of Eq. 12, one ``?symm`` per side per step; the eigen path of Eqs. 15-17 is
``solve_strategy="eigen"``); ``solvers[name]`` is it on this rank, the one
home of the layer's second-order state.  :meth:`KFAC._bind` attaches this
rank's arrays to the plan's specs once, and every allreduce and broadcast
goes through one bucketed collective engine
(:mod:`repro.distributed.collectives`).

:class:`~repro.training.Trainer` drives :class:`KFAC` directly: it calls
:meth:`step` with the step's loss, caps its gradient buckets at ``plan.bucket_cap_mb``
and checkpoints :meth:`state_dict`, which with :meth:`load_state_dict`
round-trips the running factors, second-order state, damping controller and
step counter (per rank), so checkpoint/resume reproduces the exact training
trajectory under every distribution strategy.

Every refresh decision is counted per layer in the rank's one registry, the
communicator's tracer (``comm.tracer``), as ``kfac/<event>/<layer>``:
``factor_updates``, ``eigen_updates`` and ``factor_windows_rejected``, beside
``kfac/damping_shrinks`` / ``kfac/damping_grows`` and the ``kfac/damping``
gauge.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..distributed.backend import Communicator, SingleProcessCommunicator
from ..distributed.collectives import AllreduceSpec, BroadcastSpec, OverlapScheduler
from ..nn.module import Module
from .base import CHECKPOINT_FORMAT, check_checkpoint_format, refuse_removed_entries
from .config import KFACConfig
from .kernels import KernelBackend
from .kmath import kl_clip_scale_from_total
from .layers import KFACLayer, make_kfac_layer
from .refresh import RefreshQueue
from .scheduling import AdaptiveDampingController, InverseSolveStrategy, SolveStrategy
from .strategy import DistributionPlan, LayerWorkGroups, StepActions

__all__ = ["KFAC"]


class KFAC:
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
        by keyword (``KFAC(model, damping=0.01, precision="fp16")``); all validation
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
        self.config = config  # the one copy of the hyperparameters: nothing here mirrors a field
        self.grad_scaler = grad_scaler
        self.comm = comm if comm is not None else SingleProcessCommunicator()
        self.tracer = self.comm.tracer
        self.precision = config.precision_policy()  # the dtypes the ``precision`` name stands for

        self._steps = 0
        # The rank's pending decompositions / inverses and its worker thread, joined by remove().
        self.refresh = RefreshQueue(self._refresh_task, self.tracer, name=f"kfac-eigen-rank{self.rank}")
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
        # One instance per layer: each holds that layer's second-order state.
        self.solvers: Dict[str, SolveStrategy] = {name: self.plan.solver() for name in self.layers}
        if self.plan.solver is InverseSolveStrategy:
            # The damped inverses this rank will hold, two to a buffer, as the plan prices them.
            InverseSolveStrategy.hold(
                {
                    layer: self.solvers[name]
                    for name, layer in self.layers.items()
                    if self.groups[name].is_grad_worker(self.rank)
                },
                self.precision.inverse_dtype,
            )
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

    def _refresh_task(self, factors, repr_, dampings):
        """The :attr:`refresh` queue's task: decompose ``factors``, or invert them damped by ``dampings``."""
        compute_dtype = self.precision.compute_dtype
        if dampings is None:
            return self.kernels.eigen_task(factors, repr_, compute_dtype=compute_dtype)
        return self.kernels.inverse_task(factors, repr_, dampings, compute_dtype=compute_dtype)

    # ----------------------------------------------------------- construction
    @classmethod
    def from_config(cls, model: Module, config: KFACConfig, **run_objects: Any) -> "KFAC":
        """Alias of ``KFAC(model, config, **run_objects)``."""
        return cls(model, config, **run_objects)

    # ------------------------------------------------------------ registration
    def _register_model(self, model: Module) -> None:
        # The worker forms the hooks' products if a core is spare for it (a world's ranks all run on this host).
        queue = self.refresh if (os.cpu_count() or 1) > self.comm.world_size else None
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
                layer.queue = queue
                self.layers[layer.name] = layer

    def actions(self) -> StepActions:
        """What the pending step does: the plan's :meth:`~repro.kfac.strategy.DistributionPlan.actions`.

        Taken once per step -- by the first K-FAC layer's forward hook, or by
        :meth:`step` itself -- and kept until it ends, so the hooks and the
        step read the same value.  Taking it submits the decompositions of ``refresh``
        (:meth:`_submit`), which the eigen worker solves while forward and
        backward run.
        """
        if self._actions is None:
            self._actions = self.plan.actions(self._steps)
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
        return self.config.grad_worker_frac

    @property
    def kernel_backend(self) -> str:
        """The name of the kernels the hot math runs on (``kernels.name``)."""
        return self.kernels.name

    @property
    def damping(self) -> float:
        """The γ this step damps with: the adaptive controller's when there is one, else ``config.damping``."""
        return self.config.damping if self.damping_controller is None else self.damping_controller.damping

    # --------------------------------------------------------------------- step
    def step(self, lr: float, loss: Optional[float] = None) -> None:
        """Precondition all registered layer gradients in place (Listing 1): carry out this step's :meth:`actions`.

        In order: run the factor round of ``fold`` and fold the averaged
        windows, once even when the step is retried; take this
        rank's decompositions or inverses of ``refresh`` (solved on the
        factors as the step found them) and run the eigen round;
        precondition and run the gradient round; apply the KL clip and write
        the gradients back.
        ``lr`` is the rate the following ``optimizer.step()`` applies (the
        KL clip's η; ``optimizer.param_groups[0]["lr"]``).
        ``loss`` (this step's training loss) feeds the Levenberg-Marquardt
        adaptive damping controller when ``adaptive_damping`` is configured;
        it is ignored otherwise.
        """
        lr = float(lr)
        if not 0.0 <= lr < np.inf:  # a NaN lr turns the KL clip off, an infinite one zeroes the update
            raise ValueError(f"lr must be finite and >= 0, got {lr!r}")
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
            if not self._folded:  # a step retried after an error does not fold its window again
                if actions.fold:
                    with self._stage("factor_compute"):
                        for name in actions.fold:
                            self.factor_window(self.layers[name])
                    with self._stage("factor_allreduce"):
                        self.scheduler.run_allreduces(self.factor_specs())
                self._fold_factors(actions.fold)
                self._check_first_windows()
                self._count("factor_updates", actions.fold)
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
                with self._stage("eigen_decomposition"):
                    self._install_decompositions(actions.refresh)
                with self._stage("eigen_broadcast"):
                    self.scheduler.run_broadcasts([self._bound[spec.key, spec.src] for spec in actions.eigen_round])
                self._count("eigen_updates", actions.refresh)
            with self._stage("precondition"):
                gradients = self._precondition_gradients()
            with self._stage("grad_broadcast"):
                # Fills in the layers this rank did not precondition itself; no message where it did.
                self.scheduler.run_broadcasts([self._bound[spec.key, spec.src] for spec in actions.gradient_round])
            with self._stage("scale_and_update"):
                nu, raw_total = self._apply_preconditioned_gradients(gradients, lr)
            if mean_loss is not None:
                # First-order predicted reduction of the update just written:
                # the parameter delta is -lr·ν·precond, so ⟨grad, Δw⟩ predicts
                # a decrease of lr·ν·Σ⟨grad, precond⟩.
                self.damping_controller.record_prediction(mean_loss, lr * nu * raw_total)
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
        damping = self.damping_controller.observe_loss(mean_loss)
        if damping != previous:
            self.tracer.counter_add("kfac/damping_shrinks" if damping < previous else "kfac/damping_grows")
            self.tracer.instant(
                "kfac/damping_adjusted", category="scheduling", step=self._steps, old=previous, new=damping
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

    # ------------------------------------------------------------ stage 1: factors
    # Every rank contributes its *window average*; the average over ranks is
    # folded once, where the factor is read.  ``factor_specs`` is the one
    # builder of the round: ``step()`` takes the window of every layer its
    # actions fold and runs the specs.  Layers the step does not fold cost
    # nothing.
    def _begin_factor_window(self) -> None:
        """Forget what was taken / reduced / rejected / submitted: the next factor update starts clean.

        The one reset point of the per-step bookkeeping — construction,
        the end of every :meth:`step`, :meth:`load_state_dict`,
        :meth:`remove`.
        """
        self.refresh.cancel()
        self._actions: Optional[StepActions] = None  # the pending step's, once taken (:meth:`actions`)
        self._reduced: Dict[str, Dict[str, np.ndarray]] = {}  # layer name -> its averaged window halves, to fold
        self._windows: Dict[str, tuple] = {}  # layer name -> this rank's (A, G) window of the pending step
        self._rejected_windows: List[str] = []  # layers whose averaged window was not finite this step
        self._folded = False  # the pending step folded its windows
        self._dampings: Dict[str, Optional[tuple]] = {}  # layer name -> (γ_a, γ_g) its refresh was submitted with
        self._payloads: Dict[tuple, Any] = {}  # (layer name, "a" | "g") -> the refresh result the eigen round ships

    def factor_window(self, layer: KFACLayer) -> tuple:
        """This rank's ``(A, G)`` window average of ``layer`` for the pending step, in the factor dtype.

        Taken from the layer's accumulators once per pending step and kept
        until the step ends: a retried step posts the same window again, and
        it is folded once, when an allreduce of it is installed.
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

        The rank that refreshes it keeps it
        (:meth:`~repro.kfac.strategy.LayerWorkGroups.decomposer`); a factor
        this rank does not hold stays ``None``.
        """
        return self.groups[name].decomposer(which) == self.rank

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

    def factor_specs(self) -> List[AllreduceSpec]:
        """The pending step's factor round (:meth:`~repro.kfac.strategy.StepActions.factor_round`) as allreduce specs.

        Each factor travels as it is stored (a dense one as its packed
        triangle).  ``payload`` is this rank's window average
        (:meth:`factor_window`); ``on_complete`` keeps the averaged half for
        :meth:`_fold_factors`, so the factors stand as the step found them
        until its fold.
        """

        def spec(key: str, shape: tuple, dtype: np.dtype) -> AllreduceSpec:
            name, _, what = key.rpartition("/")
            layer, which = self.layers[name], what[-1]

            def install(array: np.ndarray) -> None:
                self._reduced.setdefault(name, {})[which] = array

            return AllreduceSpec(
                key, shape, dtype,
                payload=lambda: self.factor_window(layer)["ag".index(which)],
                on_complete=install,
            )  # fmt: skip

        return [spec(*entry) for entry in self.actions().factor_round()]

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
                        layer.fold_factor(held, received[held], self.config.factor_decay)

    # -------------------------------------------------------- stage 2: eigen decomp
    # Which rank decomposes which factor, which ranks keep the results and
    # every message are read off the plan (section 3.1); ``_bind`` is the one
    # place arrays meet its specs.
    def _bind(self, spec: BroadcastSpec) -> BroadcastSpec:
        """``spec`` of the plan's eigen or gradient round with this rank's side attached, by key.

        ``payload`` is what the source rank sends, evaluated when the spec's
        bucket is filled; ``on_complete`` is what every member of the group,
        the source included, does with the received array: the layer's solve
        strategy packs this rank's refresh result (``_payloads``) and
        receives an eigen-round spec, ``_preconditioned`` holds a
        gradient-round one.  Both run when the round does, so a spec is bound
        once, at construction.
        """
        name, _, what = spec.key.rpartition("/")
        if what == "precond_grad":

            def payload() -> np.ndarray:
                return self._preconditioned[name]

            def install(array: np.ndarray) -> None:
                self._preconditioned[name] = array

        else:
            layer, solver, which = self.layers[name], self.solvers[name], what[-1]

            def payload() -> np.ndarray:
                return solver.pack(self._payloads[name, which], layer)

            def install(packed: np.ndarray) -> None:
                solver.receive(which, packed, layer)

        return dataclasses.replace(spec, payload=payload if spec.src == self.rank else None, on_complete=install)

    def _submit(self, names: Sequence[str]) -> None:
        """Submit the factors this rank decomposes among the layers ``names`` to its :attr:`refresh` queue.

        Called when a step's actions are first taken (:meth:`actions`), so a
        refresh reads the factors as its step began, and again by
        :meth:`_install_decompositions` for those with no fold before it (step 0);
        the queue passes over a factor already pending.  A factor goes with
        the damping its layer's strategy refreshes it under
        (:meth:`~repro.kfac.scheduling.SolveStrategy.refresh_dampings` of the
        current ``γ``), worked out once per layer and step.
        """
        items = []
        for name, which in self._decomposed(names):
            layer = self.layers[name]
            factor = getattr(layer, f"factor_{which}")
            if factor is None:
                continue
            if name not in self._dampings:
                self._dampings[name] = self.solvers[name].refresh_dampings(layer, self.damping)
            dampings = self._dampings[name]
            damping = None if dampings is None else dampings["ag".index(which)]
            items.append(((name, which), factor, layer.factor_repr(which), damping))
        self.refresh.submit(items)

    def _decomposed(self, names: Sequence[str]) -> List[tuple]:
        """``(layer, "a" | "g")`` of every factor this rank decomposes (the factors it holds) among the layers ``names``."""
        return [(name, which) for name in names for which in ("a", "g") if self.holds_factor(name, which)]

    def _install_decompositions(self, names: Sequence[str]) -> None:
        """Take what this rank computed for the factors it decomposes among the refreshed layers ``names``.

        A layer with no eigen round (a group of one) installs its result into
        its solve strategy here.  Any other result is kept as the eigen
        round's payload (``_payloads``, until the step ends), and the round
        installs it on every member, this rank included.  A failed solve is
        raised before anything is replaced.
        """
        self._submit(names)
        results = self.refresh.take(step=self._steps, backend=self.kernels.name)
        keys = self._decomposed(names)
        for name, which in keys:
            if (name, which) not in results:
                raise RuntimeError(f"layer {name!r} has no {which.upper()} factor to decompose")
        for name, which in keys:
            if self.plan.eigen_round[name]:
                self._payloads[name, which] = results[name, which]
            else:
                self.solvers[name].install(which, results[name, which], self.layers[name])

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
                self._preconditioned[name] = self.solvers[name].solve(layer, grad, self.damping)
        return gradients

    # --------------------------------------------------- stage 4: scale and update
    def _apply_preconditioned_gradients(self, gradients: Dict[str, np.ndarray], lr: float) -> tuple:
        """Write back preconditioned gradients scaled by ν at the rate ``lr``; return ``(ν, Σ⟨grad, precond⟩)``.

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
        nu = kl_clip_scale_from_total(raw_total, lr, self.config.kl_clip)
        for layer, (_, precond) in zip(self.layers.values(), pairs):
            layer.set_gradient(precond, nu)
        return nu, raw_total

    # ------------------------------------------------------------------- state
    def state_dict(self) -> Dict[str, Any]:
        """This rank's complete mutable preconditioner state, in :data:`~repro.kfac.base.CHECKPOINT_FORMAT`.

        The dict contains the format number, the step counter, the
        hyperparameters (as a :class:`KFACConfig` dict, for bookkeeping),
        per-layer factors (``"layers"``), every layer's second-order state as
        its solve strategy writes it (``"solvers"``) and, only when the config
        turns it on, the damping controller (``"damping_controller"``).
        Different ranks hold different factors (:meth:`holds_factor`) and, under MEM-OPT / HYBRID-OPT,
        different second-order state, so each rank checkpoints and restores
        its own dict.  The pending decompositions are not state:
        the restored step's actions read the same factors again.
        """
        state: Dict[str, Any] = {
            "format": CHECKPOINT_FORMAT,
            "steps": self._steps,
            "config": self.config.to_dict(),
            "layers": {name: layer.state_dict() for name, layer in self.layers.items()},
            "solvers": {name: solver.state_dict() for name, solver in self.solvers.items()},
        }
        if self.damping_controller is not None:
            state["damping_controller"] = self.damping_controller.state_dict()
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore state saved by :meth:`state_dict` on this rank, under the same config.

        The format number is checked first, then that no entry of a removed
        feature is present (:func:`~repro.kfac.base.refuse_removed_entries`),
        then that the checkpoint was written under this ``solve_strategy``
        (each layer's solver entries) and ``adaptive_damping`` (the damping
        controller's); only the keys this config writes are read, and the
        plan is never changed.
        The registered layers must match the checkpoint exactly (same names,
        same shapes); arrays are cast to this instance's precision policy.
        The ``"config"`` key is bookkeeping and is never read (a format-5
        dict whose config still has an ``lr`` loads as any other): construct
        the instance from the same :class:`KFACConfig` to resume the
        identical schedule.  A factor this rank does not hold
        (:meth:`holds_factor`) in the checkpoint raises, and so does a held
        factor it lacks once a factor update has run, and solver state
        (inverses, eigen decompositions) of a layer this rank is not a
        gradient worker of: each was written under another config.  Every
        check runs before anything is assigned: a refused checkpoint leaves
        the instance as it was.
        """
        check_checkpoint_format(state, "KFAC")
        refuse_removed_entries(state)
        layer_states = state["layers"]
        missing = sorted(set(self.layers) - set(layer_states))
        unexpected = sorted(set(layer_states) - set(self.layers))
        if missing or unexpected:
            raise ValueError(
                "preconditioner state does not match the registered layers "
                f"(missing: {missing}, unexpected: {unexpected})"
            )
        for name, solver in self.solvers.items():
            written, kept = sorted(state["solvers"].get(name, {})), sorted(solver.state_dict())
            if written != kept:
                raise ValueError(
                    f"checkpoint solver state of layer {name!r} has entries {written}, but solve_strategy "
                    f"{self.config.solve_strategy!r} keeps {kept}; restore it under the solve_strategy that wrote it"
                )
        adaptive = self.config.adaptive_damping
        if ("damping_controller" in state) != adaptive:
            raise ValueError(
                f"checkpoint has {'no' if adaptive else 'a'} 'damping_controller' entry, but adaptive_damping is "
                f"{adaptive}; restore it under the adaptive_damping that wrote it"
            )
        steps = int(state["steps"])
        for name in self.layers:
            for which in ("a", "g"):
                stored = layer_states[name][f"factor_{which}"] is not None
                # A held factor is absent only before the first factor update.
                if stored != self.holds_factor(name, which) and (stored or steps > 0):
                    raise ValueError(
                        f"checkpoint {'has' if stored else 'has no'} {which.upper()} factor for layer {name!r}, "
                        f"which rank {self.rank} {'does not hold' if stored else 'holds'} under this configuration; "
                        "restore each rank from its own state_dict(), written under the same config"
                    )
            solver_state = state["solvers"][name]
            # Arrays and decompositions; a counter is not held state.
            stored = [key for key, value in solver_state.items() if value is not None and not np.isscalar(value)]
            if stored and not self.groups[name].is_grad_worker(self.rank):
                raise ValueError(
                    f"checkpoint has solver state ({', '.join(stored)}) for layer {name!r}, of which rank "
                    f"{self.rank} is not a gradient worker under this configuration; restore each rank from its "
                    "own state_dict(), written under the same config"
                )
        restores = []
        for name, layer in self.layers.items():
            restores += [layer.state_loader(layer_states[name]), self.solvers[name].state_loader(state["solvers"][name], layer)]
        if self.damping_controller is not None:  # the last check: it assigns only once all its values convert
            self.damping_controller.load_state_dict(state["damping_controller"])
        self._steps = steps
        for restore in restores:
            restore()
        # Factor bookkeeping refers to this instance's own history, not the
        # checkpoint's: after a restore the next step() runs its factor
        # stages afresh.
        self._begin_factor_window()

    # ------------------------------------------------------------------- memory
    def memory_usage(self) -> Dict[str, int]:
        """Bytes of K-FAC state held on *this* rank (the paper's K-FAC overhead): factors, then each strategy's state."""
        usage = {"factors": sum(layer.factor_bytes() for layer in self.layers.values()), "eigen": 0, "solver": 0}
        for solver in self.solvers.values():  # the eigen path's state counts as "eigen", the others' as "solver"
            usage[solver.memory_key] += solver.held_bytes()
        usage["total"] = sum(usage.values())
        return usage

    def remove(self) -> None:
        """Detach every layer's hooks from the model and join the eigen worker thread."""
        self._begin_factor_window()
        for layer in self.layers.values():
            layer.remove()
        self.refresh.close()

"""The refresh queue: plain callables (and the kernel backend's tasks) as tasks, then the hooks' statistics
products it takes over from a preconditioner's layers, held bitwise to forming them in the hooks.

Only a factor at least ``refresh.MIN_DEFERRED_BLOCK`` wide hands its products over; the small models below are
narrower, so the tests of the worker's products set the crossover to 0 (:func:`every_factor_wide`)."""

import contextlib
import gc
import pickle
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from repro import nn, optim
from repro.distributed import DistributedDataParallel, run_spmd
from repro.kfac import KFAC
from repro.kfac.factors import FactorRepr
from repro.kfac.kernels import STACK_EIGH_MAX_DIM, KernelBackend
from repro.kfac.refresh import MIN_DEFERRED_BLOCK, RefreshQueue
from repro.observability import Tracer
from repro.tensor import Tensor

BIG = FactorRepr.dense(STACK_EIGH_MAX_DIM + 1)  # one task per factor
SMALL = FactorRepr.dense(STACK_EIGH_MAX_DIM)  # one stacked task per dimension and dtype


def factor(value, repr_=BIG):
    return np.full(repr_.dim, value, dtype=np.float32)


class Recorder:
    """A task factory whose solves return each factor's first element and log ``(first elements, thread)``."""

    def __init__(self, fail=None):
        self.solved, self.fail = [], fail

    def __call__(self, factors, repr_, dampings):
        values = [float(f[0]) for f in factors]  # read on the submitting thread

        def solve():
            self.solved.append((values, threading.current_thread().name))
            if self.fail is not None:
                raise self.fail(values)
            return values

        return solve


@contextlib.contextmanager
def blocked(queue):
    """Occupy ``queue``'s worker until the block exits: every task submitted meanwhile waits behind it."""
    release = threading.Event()
    blocker = queue.defer(("blocker", "a"), lambda: release.wait(10))  # products run ahead of solves
    try:
        yield
    finally:
        release.set()
        blocker.future.result(timeout=10)


def make_queue(task):
    tracer = Tracer()
    tracer.enabled = True
    return RefreshQueue(task, tracer, name="refresh-test")


def test_the_caller_solves_the_unstarted_tasks_in_submission_order():
    recorder = Recorder()
    queue = make_queue(recorder)
    keys = [("l2", "g"), ("l0", "a"), ("l1", "a")]
    with blocked(queue):
        queue.submit((key, factor(index), BIG, None) for index, key in enumerate(keys))
        results = queue.take(step=4)
    assert list(results) == keys and list(results.values()) == [0.0, 1.0, 2.0]
    here = threading.current_thread().name
    assert recorder.solved == [([0.0], here), ([1.0], here), ([2.0], here)]
    gauges = queue.tracer.gauges()
    assert gauges["kfac/eigen_caller_ms"] == gauges["kfac/eigen_solve_ms"] > 0.0
    (dispatch,) = queue.tracer.instants
    assert (dispatch.name, dispatch.attrs["step"], dispatch.attrs["batch_sizes"]) == ("kfac/kernel_dispatch", 4, [1, 1, 1])
    assert queue.tasks == []
    queue.close()


def test_small_dense_factors_are_one_stacked_task_and_the_others_one_task_each():
    recorder = Recorder()
    queue = make_queue(recorder)
    diagonal, blocks = FactorRepr.diagonal(4), FactorRepr(2 * STACK_EIGH_MAX_DIM, STACK_EIGH_MAX_DIM)
    with blocked(queue):
        queue.submit([(("a", "a"), factor(1, SMALL), SMALL, None), (("b", "g"), factor(2), BIG, None),
                      (("c", "a"), factor(3, SMALL), SMALL, None), (("d", "a"), factor(4, diagonal), diagonal, None),
                      (("e", "g"), factor(5, blocks), blocks, None), (("f", "g"), factor(6, blocks), blocks, None)])  # fmt: skip
        # Equal small blocks stack like equal small dense factors; blocks of one stay a task each.
        assert [task.keys for task in queue.tasks] == [
            [("a", "a"), ("c", "a")], [("b", "g")], [("d", "a")], [("e", "g"), ("f", "g")]
        ]
        assert queue.take() == {
            ("a", "a"): 1.0, ("c", "a"): 3.0, ("b", "g"): 2.0, ("d", "a"): 4.0, ("e", "g"): 5.0, ("f", "g"): 6.0
        }
    queue.close()


def test_take_names_the_failing_member_of_a_stack_and_returns_nothing():
    def fail(values):
        error = np.linalg.LinAlgError("did not converge")
        error.batch_index = values.index(7.0)
        return error

    queue = make_queue(Recorder(fail=fail))
    queue.submit([(("l0", "a"), factor(5, SMALL), SMALL, None), (("l3", "g"), factor(7, SMALL), SMALL, None)])
    with pytest.raises(np.linalg.LinAlgError, match=r"^eigendecomposition of the G factor of layer 'l3' failed") as raised:
        queue.take()
    assert raised.value.__cause__.batch_index == 1
    assert queue.tasks == [] and "kfac/eigen_solve_ms" not in queue.tracer.gauges()
    queue.close()


def test_a_failed_read_is_raised_by_take_naming_every_factor_it_read():
    def unreadable(factors, repr_, dampings):
        raise ValueError("contains infs or NaNs")

    queue = make_queue(unreadable)
    queue.submit([(("l0", "a"), factor(1), BIG, None)])
    with pytest.raises(ValueError, match=r"A factor of layer 'l0' failed: contains infs or NaNs"):
        queue.take()
    queue.close()


def test_cancel_returns_at_once_with_a_blocked_worker_and_cancels_every_queued_task():
    recorder = Recorder()
    queue = make_queue(recorder)
    with blocked(queue):
        queue.submit((("l", str(index)), factor(index), BIG, None) for index in range(5))
        futures = [task.future for task in queue.tasks]
        start = time.perf_counter()
        queue.cancel()
        assert time.perf_counter() - start < 1.0
    assert all(future.cancelled() for future in futures) and queue.tasks == []
    assert recorder.solved == [] and queue.take() == {}
    queue.close()


def test_close_leaves_no_live_thread_and_is_idempotent():
    queue = make_queue(Recorder())
    running = set(threading.enumerate())
    queue.submit([(("l0", "a"), factor(1), BIG, None)])
    (worker,) = set(threading.enumerate()) - running
    queue.close()
    assert not worker.is_alive() and queue.tasks == []
    queue.close()
    assert not set(threading.enumerate()) - running


def test_a_second_submit_of_a_pending_key_is_a_no_op():
    recorder = Recorder()
    queue = make_queue(recorder)
    with blocked(queue):
        queue.submit([(("l0", "a"), factor(1), BIG, None)])
        queue.submit([(("l0", "a"), factor(9), BIG, None), (("l0", "g"), factor(2), BIG, None)])
        assert [task.keys for task in queue.tasks] == [[("l0", "a")], [("l0", "g")]]
        assert queue.take() == {("l0", "a"): 1.0, ("l0", "g"): 2.0}  # the first read stands
    queue.close()


def test_inverses_stack_apart_from_decompositions_and_carry_one_damping_each():
    seen = []

    def task(factors, repr_, dampings):
        seen.append(dampings)
        return lambda: [float(f[0]) for f in factors]

    queue = make_queue(task)
    with blocked(queue):
        queue.submit([(("a", "a"), factor(1, SMALL), SMALL, 0.5), (("b", "a"), factor(2, SMALL), SMALL, None),
                      (("c", "g"), factor(3, SMALL), SMALL, 0.25)])  # fmt: skip
        assert [task.keys for task in queue.tasks] == [[("a", "a"), ("c", "g")], [("b", "a")]]
        assert queue.take() == {("a", "a"): 1.0, ("c", "g"): 3.0, ("b", "a"): 2.0}
    assert seen == [[0.5, 0.25], None]
    queue.close()


def test_a_failed_inverse_is_named_as_one():
    queue = make_queue(Recorder(fail=lambda values: np.linalg.LinAlgError("not positive definite")))
    queue.submit([(("l0", "g"), factor(1), BIG, 0.1)])
    with pytest.raises(np.linalg.LinAlgError, match=r"^damped inverse of the G factor of layer 'l0' failed"):
        queue.take()
    queue.close()


@pytest.mark.parametrize("inverse", [True, False], ids=["inverse", "eigen"])
def test_a_task_the_worker_starts_after_the_fold_still_solves_the_pre_fold_factor(inverse):
    """The queue keeps references, not copies: the fold makes a new running factor, so the solve the worker
    starts once the step has folded is bitwise the solve of the factor as it was submitted."""
    backend = KernelBackend()

    def task(factors, repr_, dampings):
        if dampings is None:
            return backend.eigen_task(factors, repr_)
        return backend.inverse_task(factors, repr_, dampings)

    rng = np.random.default_rng(3)
    rows = rng.standard_normal((2 * BIG.dim, BIG.dim)).astype(np.float32)
    running = BIG.from_dense(rows.T @ rows / np.float32(rows.shape[0]))
    published = running.copy()
    damping = 0.01 if inverse else None
    queue = make_queue(task)
    with blocked(queue):
        queue.submit([(("l0", "a"), running, BIG, damping)])
        window = BIG.from_dense(np.eye(BIG.dim, dtype=np.float32))
        folded = backend.fused_decay_update(running, window, 0.9, np.float32)
    queue.tasks[0].future.result(timeout=10)  # the worker solved it, after the fold
    result = queue.take()[("l0", "a")]
    assert not np.array_equal(folded, published) and running.tobytes() == published.tobytes()
    (alone,) = task([published], BIG, None if damping is None else [damping])()
    if inverse:
        assert result.tobytes() == alone.tobytes()
    else:
        assert result.eigenvalues.tobytes() == alone.eigenvalues.tobytes()
        assert result.eigenvectors.tobytes() == alone.eigenvectors.tobytes()
    queue.close()


def test_folds_racing_the_worker_never_change_what_it_solves():
    """Stress: with a short switch interval the worker solves while the step thread folds over and over; every
    result is bitwise the solve of the factor as it was submitted."""
    backend, rng = KernelBackend(), np.random.default_rng(5)
    interval = sys.getswitchinterval()
    queue = make_queue(lambda factors, repr_, dampings: backend.inverse_task(factors, repr_, dampings))
    try:
        sys.setswitchinterval(1e-6)
        rows = rng.standard_normal((3 * BIG.dim, BIG.dim)).astype(np.float32)
        running = BIG.from_dense(rows.T @ rows / np.float32(rows.shape[0]))
        deadline = time.perf_counter() + 5.0
        for _ in range(20):
            submitted = running.copy()
            queue.submit([(("l0", "a"), running, BIG, 0.01)])
            for _ in range(10):  # folds while the worker solves
                window = BIG.from_dense(np.eye(BIG.dim, dtype=np.float32) * np.float32(rng.random()))
                running = backend.fused_decay_update(running, window, 0.9, np.float32)
            (expected,) = backend.inverse_task([submitted], BIG, [0.01])()
            assert queue.take()[("l0", "a")].tobytes() == expected.tobytes()
            assert time.perf_counter() < deadline
    finally:
        sys.setswitchinterval(interval)
        queue.close()


def test_a_product_goes_ahead_of_every_solve_the_worker_has_not_started():
    order = []
    queue = make_queue(lambda factors, repr_, dampings: lambda: order.append("solve") or [0.0])
    with blocked(queue):
        queue.submit([(("l0", "a"), factor(1), BIG, None)])
        product = queue.defer(("l1", "g"), lambda: order.append("product") or np.ones(3, dtype=np.float32))
    product.future.result(timeout=10)
    queue.take()
    assert order == ["product", "solve"]
    queue.close()


def test_collect_takes_the_unstarted_products_here_in_order_and_sets_the_stats_gauges():
    queue = make_queue(Recorder())
    here = threading.current_thread().name
    ran = []
    with blocked(queue):
        tasks = [
            queue.defer(("l0", which), lambda value=value: ran.append(threading.current_thread().name) or value)
            for value, which in ((1.0, "a"), (2.0, "g"))
        ]
        assert queue.collect(tasks) == [1.0, 2.0] and ran == [here, here]
    gauges = queue.tracer.gauges()
    assert gauges["kfac/stats_caller_ms"] == gauges["kfac/stats_solve_ms"] > 0.0
    assert "kfac/eigen_solve_ms" not in gauges and not queue.tracer.instants  # kernel_dispatch counts solves only
    assert all(task.solve is None for task in tasks)  # a product that ran lets go of its inputs
    queue.cancel()
    queue.collect([])
    assert queue.tracer.gauges()["kfac/stats_solve_ms"] == 0.0  # every step's totals start from zero
    queue.close()


def test_a_failed_product_is_raised_by_collect_naming_its_layer_and_factor():
    def fail():
        raise FloatingPointError("overflow encountered in matmul")

    queue = make_queue(Recorder())
    tasks = [queue.defer(("l0", "a"), lambda: 1.0), queue.defer(("l3", "g"), fail)]
    with pytest.raises(FloatingPointError, match=r"^statistics product of the G factor of layer 'l3' failed: overflow"):
        queue.collect(tasks)
    assert all(task.future.done() or task.future.cancelled() for task in tasks)
    queue.close()


def test_drop_withdraws_the_unstarted_products_and_lets_go_of_their_inputs():
    queue = make_queue(Recorder())
    with blocked(queue):
        buffer = np.ones(4, dtype=np.float32)
        ref = weakref.ref(buffer)
        task = queue.defer(("l0", "a"), lambda buffer=buffer: buffer * 2)
        del buffer
        queue.drop([task])
        gc.collect()
        assert task.future.cancelled() and ref() is None
    queue.close()


# ---------------------------------------------------------------- products under a preconditioner
@pytest.fixture
def every_factor_wide(monkeypatch):
    """The crossover at 0: every factor's products are handed to the queue, as a wide factor's are."""
    monkeypatch.setattr("repro.kfac.refresh.MIN_DEFERRED_BLOCK", 0)


class TokenNet(nn.Module):
    """Embedding (left to the optimizer), LayerNorm (A and G sums), two Linear."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(5)
        self.embed, self.norm = nn.Embedding(20, 12, rng=rng), nn.LayerNorm(12)
        self.fc1, self.fc2 = nn.Linear(12, 40, rng=rng), nn.Linear(40, 3, rng=rng)

    def forward(self, ids):
        return self.fc2(self.fc1(self.norm(self.embed(ids))).relu())


class ConvNet(nn.Module):
    """Conv2d (patch-matrix A, transposed output-gradient G), a BatchNorm2d K-FAC leaves alone, Linear."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(5)
        self.conv, self.bn = nn.Conv2d(2, 4, 3, padding=1, rng=rng), nn.BatchNorm2d(4)
        self.fc = nn.Linear(4 * 5 * 5, 3, rng=rng)

    def forward(self, x):
        return self.fc(self.bn(self.conv(x)).relu().reshape(x.shape[0], -1))


class WideNet(nn.Module):
    """Two Linear, each with one factor at the default crossover (the A of ``fc2``, the G of ``fc1``) and one below."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(5)
        self.fc1, self.fc2 = nn.Linear(8, 256, rng=rng), nn.Linear(255, 3, rng=rng)

    def forward(self, x):
        return self.fc2(self.fc1(x).relu()[:, :255])


MODELS = {"tokens": TokenNet, "conv": ConvNet, "wide": WideNet}


def model_batches(kind, steps, rank, world):
    rng = np.random.default_rng(11)
    for _ in range(steps):
        if kind == "tokens":
            inputs, targets = rng.integers(0, 20, (12, 6)), rng.standard_normal((12, 6, 3)).astype(np.float32)
        else:
            shape = (12, 2, 5, 5) if kind == "conv" else (12, 8)
            inputs, targets = rng.standard_normal(shape).astype(np.float32), rng.standard_normal((12, 3)).astype(np.float32)
        yield inputs[rank::world], targets[rank::world]


def set_products(pre, mode):
    """``inline``: every product formed in its hook; ``idle``: tasks queued where no thread takes them, so the
    step's thread claims and runs every product (and solve); ``worker``: the rank's worker as it runs, whatever
    the host's core count."""
    queue = pre.refresh
    for layer in pre.layers.values():
        layer.queue = None if mode == "inline" else queue
    if mode == "idle":
        queue._dispatch = lambda task, line: (setattr(task, "line", line), queue._lines[line].append(task))


def assert_the_caller_ran_every_product(pre):
    """No worker thread started, and every product's time was the caller's."""
    gauges = pre.refresh.tracer.gauges()
    assert pre.refresh.worker is None
    assert gauges["kfac/stats_caller_ms"] == gauges["kfac/stats_solve_ms"] > 0.0


def train(mode, kind="tokens", world=1, cadence=(1, 1), steps=12):
    def program(comm):
        model = MODELS[kind]()
        ddp = DistributedDataParallel(model, comm)
        optimizer = optim.SGD(model.parameters(), lr=0.05, momentum=0.9)
        pre = KFAC(model, factor_update_freq=cadence[0], inv_update_freq=cadence[1], comm=comm)
        set_products(pre, mode)
        for inputs, targets in model_batches(kind, steps, comm.rank, comm.world_size):
            optimizer.zero_grad()
            for part in np.array_split(np.arange(len(inputs)), 3):  # three micro-batches: the sums' order shows
                out = model(inputs[part] if kind == "tokens" else Tensor(inputs[part]))
                ((out - Tensor(targets[part])) ** 2).mean().backward()
            ddp.sync_gradients()
            pre.step(lr=optimizer.param_groups[0]["lr"])
            optimizer.step()
        if mode == "idle":
            assert_the_caller_ran_every_product(pre)
        pre.remove()
        return np.concatenate([p.data.ravel() for p in model.parameters()])

    return run_spmd(world, program)


@pytest.mark.usefixtures("every_factor_wide")
@pytest.mark.parametrize("kind", ["tokens", "conv"])
@pytest.mark.parametrize("cadence", [(1, 1), (5, 10)], ids=["1-1", "5-10"])
@pytest.mark.parametrize("world", [1, 2])
def test_products_on_the_worker_or_the_caller_give_the_parameters_of_products_in_the_hooks(world, cadence, kind):
    inline = train("inline", kind, world, cadence)
    for mode in ("idle", "worker"):
        for params in train(mode, kind, world, cadence):
            assert params.tobytes() == inline[0].tobytes(), mode
    for params in inline[1:]:
        assert params.tobytes() == inline[0].tobytes()


@pytest.mark.parametrize(
    "repr_, taken",
    [
        (FactorRepr.dense(MIN_DEFERRED_BLOCK - 1), False),
        (FactorRepr.dense(MIN_DEFERRED_BLOCK), True),
        (FactorRepr(2 * MIN_DEFERRED_BLOCK, MIN_DEFERRED_BLOCK), True),
        (FactorRepr(4 * MIN_DEFERRED_BLOCK, MIN_DEFERRED_BLOCK // 2), False),  # wide, in narrow blocks
        (FactorRepr.diagonal(4 * MIN_DEFERRED_BLOCK), False),
    ],
    ids=lambda value: value.describe() if isinstance(value, FactorRepr) else None,
)
def test_the_worker_takes_a_factor_by_the_width_of_its_blocks(repr_, taken):
    assert RefreshQueue.takes(repr_) is taken


def test_only_a_factor_at_least_the_crossover_wide_hands_its_products_to_the_worker():
    assert WideNet().fc1.out_features == MIN_DEFERRED_BLOCK  # the narrowest wide factor
    model = WideNet()
    pre = KFAC(model)
    set_products(pre, "worker")
    inputs, targets = next(model_batches("wide", 1, 0, 1))
    ((model(Tensor(inputs)) - Tensor(targets)) ** 2).mean().backward()
    assert {name: [which for which, _ in layer._products] for name, layer in pre.layers.items()} == {
        "fc1": ["g"],
        "fc2": ["a"],
    }
    assert all(part is not None for layer in pre.layers.values() for part in layer.accumulators())
    pre.remove()


@pytest.mark.parametrize("world", [1, 2])
def test_a_wide_factor_on_the_worker_beside_a_narrow_one_in_its_hook_gives_the_parameters_of_products_in_the_hooks(
    world,
):
    inline = train("inline", "wide", world)
    for params in train("worker", "wide", world) + inline[1:]:
        assert params.tobytes() == inline[0].tobytes()


@pytest.mark.usefixtures("every_factor_wide")
def test_products_racing_the_step_at_a_one_microsecond_switch_interval_change_no_bit():
    """The hooks hand the worker the node's buffers uncopied while forward and backward go on: nothing writes them."""
    inline = train("inline", world=2, steps=6)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        raced = train("worker", world=2, steps=6)
    finally:
        sys.setswitchinterval(interval)
    for params in raced:
        assert params.tobytes() == inline[0].tobytes()


@pytest.mark.usefixtures("every_factor_wide")
@pytest.mark.parametrize("mode", ["worker", "idle"])
def test_a_checkpoint_between_backward_and_step_is_byte_equal_to_the_hooks_own_products(mode):
    def state_after_backward(mode):
        model = TokenNet()
        pre = KFAC(model, factor_update_freq=2, inv_update_freq=2)
        set_products(pre, mode)
        for step, (ids, targets) in enumerate(model_batches("tokens", 5, 0, 1)):  # step 4 folds, so its hooks form
            model.zero_grad()
            ((model(ids) - Tensor(targets)) ** 2).mean().backward()
            if step < 4:
                pre.step(lr=0.1)
        pending = sum(len(layer._products) for layer in pre.layers.values())
        state = pickle.dumps(pre.state_dict())
        assert not any(layer._products for layer in pre.layers.values())
        if mode == "idle":
            assert_the_caller_ran_every_product(pre)
        pre.remove()
        return state, pending

    (synchronous, none), (deferred, pending) = state_after_backward("inline"), state_after_backward(mode)
    assert none == 0 and pending == 5  # fc1 and fc2 A and G, the norm's A
    assert deferred == synchronous


@pytest.mark.usefixtures("every_factor_wide")
def test_a_node_buffer_a_product_reads_dies_with_the_graph_once_the_product_is_taken():
    layer = nn.Linear(6, 4, rng=np.random.default_rng(0))
    pre = KFAC(layer)
    set_products(pre, "worker")
    handler = pre.layers["Linear"]
    with blocked(pre.refresh):
        loss = layer(Tensor(np.ones((3, 6), dtype=np.float32) + 1.0, requires_grad=True)).sum()
        held = loss._ctx.parents[0]._ctx.x2
        buffer = weakref.ref(held if held.base is None else held.base)
        del held
        loss.backward()
        assert len(handler._products) == 2 and handler.accumulators()[0] is not None
    del loss
    gc.collect()
    assert buffer() is None
    pre.remove()


@pytest.mark.parametrize("cores, world, deferred", [(2, 1, True), (2, 2, False), (8, 2, True), (1, 1, False)])
def test_the_hooks_hand_their_products_over_only_when_a_core_is_spare(cores, world, deferred, monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: cores)

    def program(comm):
        pre = KFAC(TokenNet(), comm=comm)
        queues = {layer.queue for layer in pre.layers.values()}
        pre.remove()
        return queues == ({pre.refresh} if deferred else {None})

    assert all(run_spmd(world, program))

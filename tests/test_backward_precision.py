"""The backward runs in the forward's dtype, and doing so changes rounding only.

Every autograd node returns each parent's gradient in that parent's dtype, so
a float32 model's whole backward -- and with it K-FAC's G statistics -- is
float32; one float64 constant on the path (a ``bool / int`` mask) would
promote everything below it.  The float32 gradients agree with the same
graph differentiated in float64 to 1e-5 in relative norm.

Two more properties of every node hold on all the workloads: no ``backward``
writes the gradient it receives (K-FAC's output hooks and their deferred
products read that buffer uncopied while the tape runs on), and the
channel-major memory order of conv outputs changes a step by rounding only.
"""

import numpy as np
import pytest

from repro.experiments import build_workload
from repro.nn import functional as F
from repro.tensor.tensor import Function

SEED = 901


def backward_classes():
    """Every ``Function`` subclass (the package's and any test's) that defines its own ``backward``."""
    found, stack = [], [Function]
    while stack:
        cls = stack.pop()
        for sub in cls.__subclasses__():
            stack.append(sub)
            if "backward" in vars(sub):
                found.append(sub)
    assert len(found) > 20, "the package's nodes are imported"
    return found


def wrap_backwards(monkeypatch, wrapper):
    """Replace every node's ``backward`` with ``wrapper(node, grad, original)`` for this test only."""
    for cls in backward_classes():
        original = vars(cls)["backward"]
        monkeypatch.setattr(cls, "backward", lambda node, grad, original=original: wrapper(node, grad, original))


def first_batch_loss(name):
    workload = build_workload(name, seed=SEED)
    return workload, workload.forward_loss(workload.model, next(iter(workload.train_loader)))


@pytest.mark.parametrize("name", ["cifar_resnet", "bert", "mlp", "unet", "mask_rcnn"])
def test_every_node_returns_each_gradient_in_its_parents_dtype(name, monkeypatch):
    promoted = []

    def checked(node, grad, original):
        grads = original(node, grad)
        for parent, parent_grad in zip(node.parents, grads if isinstance(grads, tuple) else (grads,)):
            if parent_grad is not None and parent_grad.dtype != parent.dtype:
                promoted.append((type(node).__name__, str(parent.dtype), str(parent_grad.dtype)))
        return grads

    wrap_backwards(monkeypatch, checked)
    workload, loss = first_batch_loss(name)
    loss.backward()
    assert promoted == []
    assert {p.grad.dtype for p in workload.model.parameters() if p.grad is not None} == {np.dtype(np.float32)}


@pytest.mark.parametrize("name", ["cifar_resnet", "mlp", "mask_rcnn"])
def test_float32_gradients_agree_with_the_same_graph_differentiated_in_float64(name, monkeypatch):
    """Initial parameters, first batch: relative norm difference <= 1e-5 per parameter.

    The reference promotes every node's incoming gradient to float64, so the
    float32 forward's own graph is differentiated in float64 (the leaves'
    hooks see the float64 gradient before ``.grad`` rounds it).  A model cast
    to float64 throughout is not the same function: on ``cifar_resnet`` at
    this seed one pre-ReLU value of ``stages.0.1.bn1`` (3.6e-8) has opposite
    signs in the two forwards, which moves the gradients above it by ~1e-2.
    """
    workload, loss = first_batch_loss(name)
    loss.backward()
    reference_workload, reference_loss = first_batch_loss(name)
    assert loss.item() == reference_loss.item()
    reference = {}
    for param_name, param in reference_workload.model.named_parameters():
        param.register_hook(lambda grad, param_name=param_name: reference.__setitem__(param_name, grad))
    with monkeypatch.context() as patch:
        wrap_backwards(patch, lambda node, grad, original: original(node, grad.astype(np.float64)))
        reference_loss.backward()
    for param_name, param in workload.model.named_parameters():
        expected = reference[param_name]
        assert param.grad.dtype == np.float32 and expected.dtype == np.float64, param_name
        difference = np.linalg.norm(param.grad - expected) / np.linalg.norm(expected)
        assert difference <= 1e-5, (param_name, difference)


@pytest.mark.parametrize("name", ["cifar_resnet", "bert", "mlp", "unet", "mask_rcnn"])
def test_no_node_writes_the_gradient_it_receives(name, monkeypatch):
    """Each incoming gradient is bitwise the same after the node's ``backward`` as before it."""
    called, written = [], []

    def checked(node, grad, original):
        before = grad.copy()
        grads = original(node, grad)
        called.append(type(node).__name__)
        if not np.array_equal(grad, before, equal_nan=True):
            written.append(type(node).__name__)
        return grads

    wrap_backwards(monkeypatch, checked)
    _, loss = first_batch_loss(name)
    loss.backward()
    assert len(called) > 5 and written == []


@pytest.mark.parametrize("name", ["cifar_resnet", "unet", "mask_rcnn"])
def test_channel_major_conv_outputs_change_the_step_by_rounding_only(name, monkeypatch):
    """Loss and every parameter gradient within 1e-5 relative norm of the step with C-contiguous conv outputs."""
    workload, loss = first_batch_loss(name)
    loss.backward()
    forward = F.Conv2dFunction.forward
    with monkeypatch.context() as patch:
        patch.setattr(F.Conv2dFunction, "forward", lambda node, *args, **kwargs: np.ascontiguousarray(forward(node, *args, **kwargs)))
        reference_workload, reference_loss = first_batch_loss(name)
        reference_loss.backward()
    assert abs(loss.item() - reference_loss.item()) <= 1e-5 * abs(reference_loss.item())
    reference = dict(reference_workload.model.named_parameters())
    for param_name, param in workload.model.named_parameters():
        expected = reference[param_name].grad
        difference = np.linalg.norm(param.grad - expected) / np.linalg.norm(expected)
        assert difference <= 1e-5, (param_name, difference)

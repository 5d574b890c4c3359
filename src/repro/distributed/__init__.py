"""Distributed substrate: communicators, the bucketed collective engine, data-parallel helpers and the cost model."""

from .backend import (
    Communicator,
    CompletedWork,
    SingleProcessCommunicator,
    WorkHandle,
)
from .collectives import (
    AllreduceSpec,
    BroadcastSpec,
    BucketEntry,
    BucketManager,
    GradientBucketSpec,
    OverlapScheduler,
    TensorBucket,
)
from .cost_model import (
    A100,
    DGX_A100_FABRIC,
    EDR_INFINIBAND,
    ETHERNET_10G,
    V100,
    DeviceSpec,
    NetworkSpec,
    PerformanceModel,
    choose_bucket_cap,
)
from .ddp import (
    DistributedDataParallel,
    GradientAveragingSubscriber,
    broadcast_parameters,
    flatten_arrays,
    unflatten_array,
)
from .sampler import DistributedSampler, shard_batch
from .threaded import ThreadedCommunicator, ThreadedWork, ThreadedWorld, run_spmd

__all__ = [
    "Communicator",
    "SingleProcessCommunicator",
    "WorkHandle",
    "CompletedWork",
    "BucketEntry",
    "TensorBucket",
    "BucketManager",
    "BroadcastSpec",
    "AllreduceSpec",
    "GradientBucketSpec",
    "OverlapScheduler",
    "ThreadedWorld",
    "ThreadedCommunicator",
    "ThreadedWork",
    "run_spmd",
    "DistributedDataParallel",
    "GradientAveragingSubscriber",
    "broadcast_parameters",
    "flatten_arrays",
    "unflatten_array",
    "DistributedSampler",
    "shard_batch",
    "DeviceSpec",
    "NetworkSpec",
    "PerformanceModel",
    "choose_bucket_cap",
    "V100",
    "A100",
    "EDR_INFINIBAND",
    "DGX_A100_FABRIC",
    "ETHERNET_10G",
]

"""Figure 1 style experiment: momentum SGD vs KAISA on a CIFAR-style ResNet.

Trains the same ResNet-20 twice from identical initial weights on the
synthetic image-classification workload — once with plain momentum SGD and
once with SGD preconditioned by KAISA — and prints both validation curves and
the epochs needed to reach the target accuracy.

Run with::

    python examples/resnet_classification.py
"""

from repro.experiments import ascii_curve, format_table, run_convergence_comparison


def main() -> None:
    result = run_convergence_comparison("cifar_resnet", seed=0)
    summary = result.summary()

    print(ascii_curve(result.baseline_curve.metric_series(), label="momentum SGD validation accuracy"))
    print()
    print(ascii_curve(result.kaisa_curve.metric_series(), label="KAISA (SGD + K-FAC) validation accuracy"))
    print()
    print(
        format_table(
            ["", "SGD", "KAISA"],
            [
                ["best validation accuracy", summary["baseline_best"], summary["kaisa_best"]],
                ["epochs to reach target", summary["baseline_epochs_to_target"], summary["kaisa_epochs_to_target"]],
                ["iterations to reach target", summary["baseline_iters_to_target"], summary["kaisa_iters_to_target"]],
            ],
            title=f"Target validation accuracy: {summary['target']}",
        )
    )
    reduction = result.iteration_reduction_percent()
    if reduction is not None:
        direction = "fewer" if reduction >= 0 else "more"
        print(f"\nKAISA needed {abs(reduction):.1f}% {direction} iterations than SGD to reach the target "
              "(the paper reports ~40% fewer epochs for ResNet-32 on CIFAR-10).")


if __name__ == "__main__":
    main()

"""Track augmented-vs-one-hot output divergence over a long training run.

Trains the reference configuration (37 categories, 3 numeric inputs, 8
sigmoid units, scalar output) in lockstep with its one-hot twin and prints
one CSV row per step: the pre-step max output difference, the loss each
model scores on that step's example, and the drift budget the harness
allows at that step.  The divergence column should sit far below the budget
column for the whole run.
"""

import argparse
import sys

from augbin import (
    Activation,
    NetworkConfig,
    SgdConfig,
    build_network,
    build_onehot_twin,
    divergence_budget,
    lockstep_train,
    synthetic_stream,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="network init seed")
    parser.add_argument("--stream-seed", type=int, default=7, help="example stream seed")
    parser.add_argument("--steps", type=int, default=2000)
    parser.add_argument("--lr", type=float, default=0.1)
    parser.add_argument("--every", type=int, default=50, help="print every nth step")
    args = parser.parse_args(argv)

    config = NetworkConfig(
        encoder_kind="augmented",
        n_categories=37,
        n_numeric=3,
        k=8,
        hidden=(1,),
        encoder_activation=Activation.SIGMOID,
        seed=args.seed,
    )
    pair = build_onehot_twin(build_network(config))
    stream = synthetic_stream(args.stream_seed, 37, 3, 1, args.steps)
    trace = lockstep_train(pair, stream, SgdConfig(args.lr, args.steps))

    print("step,divergence,loss_augmented,loss_onehot,budget")
    for step in range(len(trace)):
        if step % args.every and step != len(trace) - 1:
            continue
        diff = trace.max_output_diffs[step]
        loss_aug, loss_onehot = trace.loss_pairs[step]
        print(f"{step},{diff:.6e},{loss_aug:.6e},{loss_onehot:.6e},"
              f"{divergence_budget(step):.6e}")
    print(f"# final twin row distance {trace.final_row_distance:.6e}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

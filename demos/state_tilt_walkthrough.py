"""State-tilt walkthrough: the generator two ways, killing absorbed, and the
pathwise weight on a one-jump path computed by hand.

The tilt weights every state by a positive number rho and reweights paths by
the associated multiplicative functional.  The transformed process is again
reversible, now with respect to rho^2 m, and any killing of the base model is
absorbed into the tilt: the transformed process conserves mass.
"""

import numpy as np

from girsanov import (
    FiniteSymmetricModel,
    GeneralMF,
    Path,
    RhoTransform,
    conservativeness_check,
    general_mf,
    reversal_identity_residual,
    rho_transform_mf,
    sample_finite_path,
    transformed_generator,
    transformed_model,
)
from girsanov.montecarlo import RngSpec


def main():
    q = np.array([
        [0.0, 1.0, 0.0],
        [1.0, 0.0, 2.0],
        [0.0, 2.0, 0.0],
    ])
    chain = FiniteSymmetricModel(m=np.ones(3), q=q)
    rho = np.array([1.0, 2.0, 1.0])

    # route one: apply the base generator to rho-weighted functions;
    # route two: tilt each jump rate by rho(target)/rho(source)
    q_hat = transformed_generator(chain, rho)
    q_kernel = (rho[None, :] / rho[:, None]) * q
    print("tilted generator (definition route):")
    print(q_hat)
    print("off-diagonal agreement with the tilted kernel:",
          np.max(np.abs((q_hat - q_kernel)[~np.eye(3, dtype=bool)])))

    hat = transformed_model(chain, RhoTransform(rho=rho))
    print("\ntransformed model weights rho^2 m:", hat.m)

    # killing disappears into the tilt
    killed = FiniteSymmetricModel(m=np.ones(3), q=q, k=np.array([0.0, 1.0, 0.0]))
    report = conservativeness_check(killed, rho)
    print("\nkilled base model, tilted:")
    print(f"  max |Qhat 1|        = {report.row_sum_residual:.3e}")
    print(f"  energy of constants = {report.unit_form_value:.3e}")

    # one jump 0 -> 1 at time 0.5, watched until time 1:
    # the weight is rho(1)/rho(0) = 2 times the compensator correction
    hop = Path(x0=0, events=((0.5, 1),), horizon=1.0)
    trace = rho_transform_mf(hop, rho, chain, 1.0)
    print("\nweight of the single-hop path at time 1:", trace.end_value)
    print("by hand: 2 * exp(1/4) =", 2.0 * np.exp(0.25))
    incremental = general_mf(hop, GeneralMF.from_rho(rho), chain, 1.0)
    print("product-of-increments route agrees:",
          abs(trace.end_value - incremental.end_value))

    # the weight of a path and the weight of its time reversal coincide
    worst = 0.0
    pool = RngSpec(seed=42)
    for i in range(200):
        path = sample_finite_path(chain, i % 3, 2.0, pool.stream(i))
        worst = max(worst, reversal_identity_residual(path, rho, chain, 2.0))
    print("\nworst forward/reversed weight residual over 200 paths:", worst)


if __name__ == "__main__":
    main()

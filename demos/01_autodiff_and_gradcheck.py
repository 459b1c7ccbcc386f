"""Tour of the reverse-mode tape and the finite-difference audit.

Builds a few small expressions by hand, walks their gradients, then runs
the packaged gradient suite and shows the negative control: a corrupted
backward rule is caught and named.
"""

import numpy as np

from lane3d import autodiff as ad
from lane3d.checks import corrupt_gradient, format_report, run_gradient_checks


def tiny_expression():
    print("== a hand-built expression ==")
    x = ad.Var(np.array([1.0, 2.0, 3.0]))
    w = ad.Var(np.array([0.5, -1.0, 2.0]))
    y = (ad.sigmoid(x * w) ** 2).sum()
    y.backward()
    print(f"value         : {y.value:.6f}")
    print(f"dy/dx         : {np.array2string(x.grad, precision=6)}")
    print(f"dy/dw         : {np.array2string(w.grad, precision=6)}")

    # the same derivative by brute perturbation
    def f(values):
        return float(np.sum((1.0 / (1.0 + np.exp(-values * w.value))) ** 2))

    h = 1e-6
    numeric = np.array(
        [
            (f(x.value + h * e) - f(x.value - h * e)) / (2 * h)
            for e in np.eye(3)
        ]
    )
    print(f"dy/dx numeric : {np.array2string(numeric, precision=6)}")
    print()


def checked_program():
    print("== finite_difference_check on a named program ==")

    def program(p):
        return (ad.sigmoid(p["a"] @ p["b"])).sum()

    rng = np.random.default_rng(7)
    report = ad.finite_difference_check(
        program, {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=4)}
    )
    for name, err in sorted(report.per_parameter.items()):
        print(f"  {name}: max relative error {err:.3e}")
    print()


def packaged_suite():
    print("== packaged gradient suite (10 inputs per check) ==")
    print(format_report(run_gradient_checks(num_inputs=10)))
    print()

    print("== negative control: corrupt the LSTM recurrence's backward rule ==")
    with corrupt_gradient("lstm_windows", factor=1.5):
        results = run_gradient_checks(num_inputs=3)
    print(format_report(results))


if __name__ == "__main__":
    tiny_expression()
    checked_program()
    packaged_suite()

"""Built-in target distributions behind the Potential interface.

A Potential only has to supply ``evaluate``; optional capabilities (gradient,
componentwise closed-form force, force-Jacobian diagonals) default to None and
are picked up by the integrator and Jacobian code when present, keeping
black-box targets fully supported through divided differences alone.
"""

from __future__ import annotations

import numpy as np

from .phase import require_integer, scalar_operand

_TWO, _FOUR = scalar_operand(2.0), scalar_operand(4.0)


class Potential:
    """Target potential U(q) = -log pi(q), up to an additive constant.

    Optional capabilities (left as None when unavailable):

    - ``gradient(q)``: grad U, enables leapfrog HMC.
    - ``closed_form_force(Q, q)``: analytic divided-difference force, i.e. the
      componentwise two-path difference quotient of U evaluated in closed form.
    - ``closed_form_force_jacobian_diag(Q, q)``: (diag dF/dq, diag dF/dQ).
    - ``closed_form_force_jacobian(Q, q)``: full (dF/dq, dF/dQ) matrices.

    Defining ``closed_form_force_jacobian_diag`` declares the target
    separable, and nothing else does: F_i depends only on (Q_i, q_i), so
    both force Jacobians are diagonal. A chain's
    ``integrators.StepScratch`` reads the declaration once, and it selects
    the chord solve of the implicit step and the Jacobian factor's diagonal
    route: diagonals instead of d x d matrices, and finite-difference probes
    in one colour (2 force evaluations, not 2d), so the declaration must
    hold. A non-separable target gives its analytic Jacobians as full
    matrices through ``closed_form_force_jacobian``. Without a closed-form
    force, the solve and the finite-difference Jacobian probes share one
    divided-difference force.

    A ``closed_form_force`` must be defined at Q_i = q_i, where the solver
    may evaluate it on any update, and must be a discrete gradient:
    F(Q, q) . (Q - q) = 2 (U(Q) - U(q)) for all Q, q. The two-path divided
    differences satisfy it by telescoping, and so does every closed form
    here. The implicit step measures its energy error through this identity
    instead of evaluating U. A force that breaks it (the implicit-midpoint
    force 2 grad U((Q + q)/2), say) lets steps report convergence while H
    drifts; the trajectory's end check |H_out - H_in| <= N delta then
    clears ``all_converged``.

    The integrators never write an array after handing it to a capability,
    nor one that a capability returns, so a capability may keep or return
    views of its arguments. The exception is ``divided_difference_force``,
    which rewrites its two substitution paths between ``evaluate`` calls.

    The sampler's mass is the identity. To precondition with a diagonal
    mass diag(m), rescale the target instead: sample z = m^(1/2) q from
    U~(z) = U(m^(-1/2) z) and map each draw back to q = m^(-1/2) z. The
    identity-mass chain in z is the diagonal-mass chain in q (Neal 2011,
    "MCMC using Hamiltonian dynamics", section 4.1). The capabilities of U~
    follow from those of U with s = m^(-1/2): grad U~(z) = s grad U(s z);
    F~(Z, z) = s F(s Z, s z), again a discrete gradient; and each force
    Jacobian is diag(s) dF diag(s) at (s Z, s z), whose diagonal is that of
    F divided by m.
    """

    gradient = None
    closed_form_force = None
    closed_form_force_jacobian_diag = None
    closed_form_force_jacobian = None

    def __init__(self, dim: int):
        self.dim = require_integer("dim", dim, 1)

    def evaluate(self, q: np.ndarray) -> float:
        raise NotImplementedError


class QuarticGeneralizedGaussian(Potential):
    """Separable quartic well U(q) = sum_i q_i^4.

    The benchmark target: a generalized Gaussian with unit scale and shape
    parameter 4, whose per-component variance is Gamma(3/4)/Gamma(1/4). The
    methods compute in place, in the operation order of their comments, with
    their constants as 0-d array operands (see ``scalar_operand``).
    """

    def evaluate(self, q: np.ndarray) -> float:
        # sum((q q)(q q))
        t = q * q
        return float(np.multiply(t, t, t).sum())

    def gradient(self, q: np.ndarray) -> np.ndarray:
        # 4 (q q) q
        t = q * q
        return np.multiply(np.multiply(t, _FOUR, t), q, t)

    def closed_form_force(self, Q: np.ndarray, q: np.ndarray) -> np.ndarray:
        # 2 (Q Q + q q)(Q + q) == 2 (Q^4 - q^4)/(Q - q), also defined at Q == q
        c, t = Q * Q, q * q
        np.multiply(np.add(c, t, c), _TWO, c)
        return np.multiply(c, np.add(Q, q, t), c)

    def closed_form_force_jacobian_diag(self, Q: np.ndarray, q: np.ndarray):
        # (s4 q + c2, s4 Q + c2), s4 = 4 (Q + q), c2 = 2 (Q Q + q q): 2 (2 x s + c)
        # with the twos folded in, the same bits unless an intermediate is subnormal
        s4, c2, t = Q + q, Q * Q, q * q
        np.multiply(s4, _FOUR, s4)
        np.multiply(np.add(c2, t, c2), _TWO, c2)
        t = np.add(np.multiply(s4, q, t), c2, t)
        return t, np.add(np.multiply(s4, Q, s4), c2, s4)


class StandardNormal(Potential):
    """Separable standard normal U(q) = q . q / 2, YAML's ``kind: gaussian``.

    Its force Q + q is linear and symmetric in (Q, q), which makes the
    energy-preserving map volume-preserving, and its force Jacobians are
    the identity: both diagonals are one shared row of ones, so the chord
    update is exact and each step converges on its first update.
    """

    def __init__(self, dim: int):
        super().__init__(dim)
        self._ones = np.ones(self.dim)
        self._ones.setflags(write=False)

    def evaluate(self, q: np.ndarray) -> float:
        return 0.5 * float(q @ q)

    def gradient(self, q: np.ndarray) -> np.ndarray:
        return q

    def closed_form_force(self, Q: np.ndarray, q: np.ndarray) -> np.ndarray:
        return Q + q

    def closed_form_force_jacobian_diag(self, Q: np.ndarray, q: np.ndarray):
        return self._ones, self._ones


def quartic_target_variance() -> float:
    """Per-component variance of the density proportional to exp(-q^4).

    Substituting u = q^4 reduces both moments to gamma integrals, giving
    Gamma(3/4)/Gamma(1/4) exactly (about 0.3379891). The literal is the
    double that scipy.special.gamma gives for that ratio; math.gamma is one
    ulp off.
    """
    return 0.3379891200336423

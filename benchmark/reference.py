"""Independent numpy-only reference for the soft-MDP quantities the checks use.

Nothing here calls a driftsched solver: the optimal soft values come from
value iteration with its own max-shift log-sum-exp and an a-posteriori
stopping rule, and policy values from one dense linear solve,

    V^pi = (I - gamma P^pi)^{-1} (r^pi + mu H(pi)).
"""

from __future__ import annotations

import numpy as np


def lse_rows(z: np.ndarray) -> np.ndarray:
    """log sum_a exp(z[..., a]) with the row maximum shifted out."""
    m = z.max(axis=-1)
    return m + np.log(np.exp(z - m[..., None]).sum(axis=-1))


def optimal_soft_values(rewards, transitions, gamma: float, mu: float,
                        tol: float = 1e-12, max_sweeps: int = 100_000):
    """V* of the mu-smoothed Bellman optimality operator, batched over leading axes.

    Stops once gamma/(1-gamma) * ||Q_{k+1} - Q_k||_inf <= tol, which bounds
    the distance of Q_{k+1} to the fixed point by tol.
    """
    rewards = np.asarray(rewards, dtype=float)
    transitions = np.asarray(transitions, dtype=float)
    q = np.zeros_like(rewards)
    for _ in range(max_sweeps):
        v = mu * lse_rows(q / mu)
        q_next = rewards + gamma * np.einsum("...saz,...z->...sa", transitions, v)
        step = float(np.abs(q_next - q).max())
        q = q_next
        if gamma / (1.0 - gamma) * step <= tol:
            return mu * lse_rows(q / mu)
    raise RuntimeError(f"reference value iteration did not reach {tol}")


def optimal_return(rewards, transitions, rho, gamma: float, mu: float) -> float:
    """J*_mu(M) = rho . V*."""
    return float(np.asarray(rho) @ optimal_soft_values(rewards, transitions, gamma, mu))


def optimal_policy(rewards, transitions, gamma: float, mu: float) -> np.ndarray:
    """The softmax policy of Q*, pi*(a|s) = exp((Q*(s,a) - V*(s)) / mu)."""
    v = optimal_soft_values(rewards, transitions, gamma, mu)
    q = rewards + gamma * np.einsum("saz,z->sa", transitions, v)
    return np.exp((q - v[:, None]) / mu)


def policy_values(rewards, transitions, gamma: float, mu: float,
                  pi: np.ndarray) -> np.ndarray:
    """Entropy-augmented values of a fixed policy by a dense linear solve."""
    pi = np.asarray(pi, dtype=float)
    p_pi = np.einsum("sa,saz->sz", pi, transitions)
    r_pi = (pi * rewards).sum(axis=1)
    safe = np.where(pi > 0.0, pi, 1.0)
    entropy = -(pi * np.log(safe)).sum(axis=1)
    n = p_pi.shape[0]
    return np.linalg.solve(np.eye(n) - gamma * p_pi, r_pi + mu * entropy)


def policy_return(rewards, transitions, rho, gamma: float, mu: float,
                  pi: np.ndarray) -> float:
    """J^pi_mu(M) = rho . V^pi."""
    return float(np.asarray(rho) @ policy_values(rewards, transitions, gamma, mu, pi))

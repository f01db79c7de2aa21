"""Shared helpers for the test suite: standard topologies, catalogs and reference solvers."""

import numpy as np

from syncflow import NumericalError, WeightedDigraph


def undirected(n, pairs, weight=1.0):
    arcs = []
    for i, j in pairs:
        arcs.append((i, j, weight))
        arcs.append((j, i, weight))
    return WeightedDigraph(n, tuple(arcs))


def path_graph(n, weight=1.0):
    return undirected(n, [(i, i + 1) for i in range(n - 1)], weight)


def ring_graph(n, weight=1.0):
    return undirected(n, [(i, (i + 1) % n) for i in range(n)], weight)


def star_graph(n, weight=1.0):
    return undirected(n, [(0, i) for i in range(1, n)], weight)


def complete_graph(n, weight=1.0):
    return undirected(n, [(i, j) for i in range(n) for j in range(i + 1, n)], weight)


def random_tree(n, seed=0, weight=1.0):
    rng = np.random.default_rng(seed)
    return undirected(n, [(int(rng.integers(0, i)), i) for i in range(1, n)], weight)


def five_topologies(n=5):
    return {
        "path": path_graph(n),
        "ring": ring_graph(n),
        "star": star_graph(n),
        "complete": complete_graph(n),
        "tree": random_tree(n, seed=11),
    }


def _affine_weight_minimizer(vertices, support, x):
    """Weights minimizing |x - sum(lam_k v_k)| subject to sum(lam)=1 (sign-unconstrained)."""
    k = len(support)
    if k == 1:
        return np.array([1.0])
    V = vertices[support].T  # (m, k)
    # lam = e_1 + B nu parametrizes the affine constraint sum(lam) = 1
    B = np.vstack([-np.ones((1, k - 1)), np.eye(k - 1)])
    nu, *_ = np.linalg.lstsq(V @ B, x - V[:, 0], rcond=None)
    lam = np.zeros(k)
    lam[0] = 1.0
    return lam + B @ nu


def hull_projection_oracle(vertices, x):
    """Nearest point in conv(vertices) to one point x: the scalar Wolfe-style solve.

    This is the one-point-at-a-time active-set solver the batched
    ``Hull.project`` replaced, kept as its reference.
    """
    vertices = np.asarray(vertices, dtype=float)
    x = np.asarray(x, dtype=float)
    nverts = vertices.shape[0]
    scale = max(1.0, float(np.max(np.abs(vertices))), float(np.max(np.abs(x))))
    cert_tol = 5e-13 * scale * scale
    member_tol = 1e-11 * scale

    dists = np.linalg.norm(vertices - x, axis=1)
    support = [int(np.argmin(dists))]
    lam = np.array([1.0])

    max_outer = 16 * (nverts + 2) * (nverts + 2)
    worst = np.inf
    for _ in range(max_outer):
        p = lam @ vertices[support]
        # variational inequality <p - x, v - p> >= 0 for all vertices v
        slack = (vertices - p) @ (p - x)
        j = int(np.argmin(slack))
        worst = float(slack[j])
        if worst >= -cert_tol:
            if np.linalg.norm(p - x) <= member_tol:
                return np.array(x, dtype=float)  # x is (numerically) a member
            return p
        if j in support:
            break  # stalled: affine solve already optimal over support
        support.append(j)
        lam = np.append(lam, 0.0)
        # restore feasibility: pull lam toward the affine minimizer, dropping
        # vertices whose weight hits zero
        for _ in range(nverts + 2):
            lam_hat = _affine_weight_minimizer(vertices, support, x)
            if lam_hat.min() >= -1e-13:
                lam = np.clip(lam_hat, 0.0, None)
                lam = lam / lam.sum()
                break
            shrink = lam_hat < lam
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(shrink, lam / (lam - lam_hat), np.inf)
            alpha = min(1.0, float(np.min(ratios)))
            lam = (1.0 - alpha) * lam + alpha * lam_hat
            keep = lam > 1e-13
            if keep.all():
                keep[int(np.argmin(lam))] = False
            support = [s for s, k in zip(support, keep) if k]
            lam = lam[keep]
            lam = lam / lam.sum()
    raise NumericalError(
        f"hull projection failed to certify optimality: worst vertex slack "
        f"{worst:.3e} (tolerance {-cert_tol:.3e})"
    )

import numpy as np
import pytest

import adaregret as ar


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def ball2():
    return ar.Domain.ball(np.zeros(2), 1.0)


@pytest.fixture
def box1():
    return ar.Domain.box(np.array([-1.0]), np.array([1.0]))


def make_absolute_stream(
    horizon, domain, G=1.0, target=(0.5,), noise=0.2, scale=None, seed=0
):
    params = {"target": list(target), "noise": noise}
    if scale is not None:
        params["scale"] = scale
    cfg = ar.StreamConfig(
        horizon=horizon,
        dimension=domain.dim,
        domain=domain,
        gradient_bound=G,
        segments=[ar.SegmentSpec(horizon, "absolute", params=params)],
        seed=seed,
    )
    return ar.generate_stream(cfg)


def aggregate_quadratic(events, d):
    """[REFERENCE] A and b of a quadratic-structure window's sum objective
    0.5 w^T A w + b^T w + const, one event at a time in event order."""
    A, b = np.zeros((d, d)), np.zeros(d)
    for ev in events:
        p = ev.params
        if ev.family == "linear":
            b += p["g"]
        elif ev.family == "quadratic":
            A += p["lam"] * np.eye(d)
            b += p["b"] - p["lam"] * p["u"]
        else:
            x, y = p["x"], p["y"]
            A += 2.0 * np.outer(x, x)
            b += -2.0 * y * x
    return A, b

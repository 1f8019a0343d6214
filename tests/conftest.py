import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.integrate

from hjb_planner import ModelParams, build_kernel, build_rate


@pytest.fixture(scope="session")
def std_params():
    return ModelParams(n_goods=2, sigma=1.0, radius=1.0)


@pytest.fixture(scope="session")
def std_kernel(std_params):
    return build_kernel(std_params, r_max=1.0)


@pytest.fixture(scope="session")
def std_rate(std_kernel):
    return build_rate(std_kernel)


# Wide certified range for the large-radius limit checks: rho is within
# 1e-3 of its asymptote only past r ~ 16 sigma at N=2.
@pytest.fixture(scope="session")
def wide_params():
    return ModelParams(n_goods=2, sigma=0.5, radius=1.0)


@pytest.fixture(scope="session")
def wide_kernel(wide_params):
    return build_kernel(wide_params, r_max=20.0)


@pytest.fixture(scope="session")
def wide_rate(wide_kernel):
    return build_rate(wide_kernel)


@pytest.fixture(scope="session")
def corrupt():
    """A kernel with its leading coefficient inflated 100-fold, so the rate
    envelope bound must fail."""

    def corrupt_kernel(kernel):
        log_a = kernel.log_a.copy()
        log_a[1] += math.log(100.0)
        return dataclasses.replace(kernel, log_a=log_a)

    return corrupt_kernel


@pytest.fixture
def refusing_odeint(monkeypatch):
    """scipy.integrate.odeint replaced by one that refuses as ODEPACK does:
    an ODEintWarning, then garbage values and the reason in its info.
    Returns the reason."""
    message = "stub: excess work done on this call"

    def odeint(func, y0, t, **kwargs):
        warnings.warn(f"{message} Run with full_output = 1.", scipy.integrate.ODEintWarning)
        return np.full((len(t), len(y0)), np.nan), {"message": message, "nfe": np.zeros(len(t) - 1)}

    monkeypatch.setattr(scipy.integrate, "odeint", odeint)
    return message

"""Semidiscretized FitzHugh-Nagumo benchmark on a 1-D cable.

Method-of-lines discretization of the two-field reaction-diffusion system
with injected boundary currents on the voltage field v and pinned boundary
values for the recovery field w.  State layout is [v_0..v_L, w_0..w_L], so
the system dimension is 2(L+1).  Besides its right-hand side, a built
system carries its parts as an ``ode.RhsStructure`` (linear operator,
cubic on the voltage rows, wall forcing).  Three experiment presets (A, B,
C) bundle the coefficient sets and snapshot schedules used by the report
driver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import InvalidInputError
from .ode import OdeSystem, RhsStructure

__all__ = [
    "Waveform",
    "FhnParams",
    "ExperimentPreset",
    "build_fhn",
    "preset",
]


@dataclass(frozen=True)
class Waveform:
    """Scalar boundary signal with closed-form first and second derivatives.

    Two shapes cover every preset: a constant, and amplitude * sin(t)^2.
    """

    kind: str
    amplitude: float

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "sin_squared"):
            raise InvalidInputError(f"unknown waveform kind {self.kind!r}")
        amp = float(self.amplitude)
        if not math.isfinite(amp):
            raise InvalidInputError("waveform amplitude must be finite")
        object.__setattr__(self, "amplitude", amp)

    @classmethod
    def constant(cls, value: float) -> "Waveform":
        return cls(kind="constant", amplitude=value)

    @classmethod
    def sin_squared(cls, amplitude: float) -> "Waveform":
        return cls(kind="sin_squared", amplitude=amplitude)

    def __call__(self, t: float) -> float:
        if self.kind == "constant":
            return self.amplitude
        s = math.sin(t)
        return self.amplitude * s * s

    def derivative(self, t: float) -> float:
        if self.kind == "constant":
            return 0.0
        return self.amplitude * math.sin(2.0 * t)

    def second_derivative(self, t: float) -> float:
        if self.kind == "constant":
            return 0.0
        return 2.0 * self.amplitude * math.cos(2.0 * t)


@dataclass(frozen=True)
class FhnParams:
    """Coefficients of the semidiscretized cable system.

    ``L`` counts grid intervals, so there are L+1 nodes per field and
    dx * L must equal the domain length X.  ``lam`` scales the cubic
    reaction f1 = lam * (v(1-v)(v-a) - w); the recovery reaction is
    f2 = mu*v - gamma*w.  ``I0``/``IX`` are the injected currents at the
    left and right wall; ``w0``/``wX`` pin the recovery field there.
    """

    L: int
    X: float
    dx: float
    D1: float
    D2: float
    lam: float
    a: float
    mu: float
    gamma: float
    I0: Waveform
    IX: Waveform
    w0: Waveform = Waveform.constant(0.0)
    wX: Waveform = Waveform.constant(0.0)

    def __post_init__(self) -> None:
        L = int(self.L)
        if L < 2:
            raise InvalidInputError(f"L must be >= 2, got {self.L}")
        object.__setattr__(self, "L", L)
        for name in ("X", "dx", "D1", "D2", "lam", "a", "mu", "gamma"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise InvalidInputError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        if self.dx <= 0.0:
            raise InvalidInputError(f"dx must be positive, got {self.dx}")
        if abs(self.dx * L - self.X) > 1e-12 * max(1.0, abs(self.X)):
            raise InvalidInputError(
                f"dx * L = {self.dx * L!r} does not match X = {self.X!r}"
            )
        if self.D1 < 0.0 or self.D2 < 0.0:
            raise InvalidInputError("diffusion coefficients must be >= 0")
        for name in ("I0", "IX", "w0", "wX"):
            if not isinstance(getattr(self, name), Waveform):
                raise InvalidInputError(f"{name} must be a Waveform")

    @property
    def dimension(self) -> int:
        return 2 * (self.L + 1)


@dataclass(frozen=True)
class ExperimentPreset:
    """A coefficient set plus the snapshot/truncation schedule to sweep."""

    id: str
    params: FhnParams
    T: float
    delta_list: Tuple[float, ...]
    epsilon_list: Tuple[float, ...]
    l_list: Tuple[int, ...]
    eval_grid_size: int = 400

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta_list", tuple(float(d) for d in self.delta_list))
        object.__setattr__(self, "epsilon_list", tuple(float(e) for e in self.epsilon_list))
        object.__setattr__(self, "l_list", tuple(int(l) for l in self.l_list))
        if not (self.delta_list and self.epsilon_list and self.l_list):
            raise InvalidInputError("preset schedule lists must be nonempty")
        if not float(self.T) > 0.0:
            raise InvalidInputError("T must be positive")
        object.__setattr__(self, "T", float(self.T))
        for delta in self.delta_list:
            ratio = self.T / delta
            if not ratio >= 1.0 or abs(ratio - round(ratio)) > 1e-9:
                raise InvalidInputError(f"delta {delta!r} does not divide T = {self.T!r}")
        if int(self.eval_grid_size) < 2:
            raise InvalidInputError("eval_grid_size must be >= 2")
        object.__setattr__(self, "eval_grid_size", int(self.eval_grid_size))


def build_fhn(params: FhnParams) -> OdeSystem:
    """Assemble the method-of-lines system for the given coefficients.

    The returned OdeSystem carries its linear/cubic/forcing split as
    ``structure``.  With ``lam`` zero the cubic scale is zero, the system
    is affine, x' = A x + b(t), and A is the structure's linear operator.
    """
    L = params.L
    dx = params.dx
    n = params.dimension
    d1 = params.D1 / (dx * dx)
    d2 = params.D2 / (dx * dx)
    lam = params.lam
    a = params.a
    mu = params.mu
    gamma = params.gamma
    current_left = params.I0
    current_right = params.IX
    pin_left = params.w0
    pin_right = params.wX

    def rhs(t: float, state: np.ndarray) -> np.ndarray:
        v = state[: L + 1]
        w = state[L + 1 :]
        out = np.empty(n)
        dv = out[: L + 1]
        dw = out[L + 1 :]
        dv[1:L] = d1 * (v[2:] - 2.0 * v[1:L] + v[: L - 1])
        dv[0] = d1 * (v[1] - v[0] + dx * current_left(t))
        dv[L] = d1 * (v[L - 1] - v[L] - dx * current_right(t))
        if lam != 0.0:
            dv += lam * (v * (1.0 - v) * (v - a) - w)
        dw[1:L] = (
            d2 * (w[2:] - 2.0 * w[1:L] + w[: L - 1]) + mu * v[1:L] - gamma * w[1:L]
        )
        # Wall values of w follow their prescribed signal exactly.
        dw[0] = pin_left.derivative(t)
        dw[L] = pin_right.derivative(t)
        return out

    return OdeSystem(dimension=n, rhs=rhs, structure=_fhn_structure(params))


def _fhn_structure(params: FhnParams) -> RhsStructure:
    """The cable right-hand side split into linear, cubic and forcing parts.

    The cubic reaction lam * v(1-v)(v-a) expands to -lam*a*v (linear part)
    plus -lam * v^2 (v - (1+a)) on the voltage rows; -lam*w joins the
    linear part too.  The forcing is four wall vectors times I0(t), IX(t),
    w0'(t) and wX'(t), whose rates are I0', IX', w0'' and wX''.  The linear
    operator works on a state vector or on an n x k block of them,
    row-wise, without assembling a matrix; applied to the
    identity it gives the matrix A itself.  It repeats the stencil of
    ``build_fhn``'s ``rhs`` rather than sharing it, because the truth
    trajectory depends on the operation order inside ``rhs``.
    """
    L = params.L
    dx = params.dx
    n = params.dimension
    d1 = params.D1 / (dx * dx)
    d2 = params.D2 / (dx * dx)
    lam = params.lam
    a = params.a
    mu = params.mu
    gamma = params.gamma

    def apply_linear(x: np.ndarray) -> np.ndarray:
        v = x[: L + 1]
        w = x[L + 1 :]
        out = np.empty(x.shape)
        dv = out[: L + 1]
        dw = out[L + 1 :]
        dv[1:L] = d1 * (v[2:] - 2.0 * v[1:L] + v[: L - 1])
        dv[0] = d1 * (v[1] - v[0])
        dv[L] = d1 * (v[L - 1] - v[L])
        if lam != 0.0:
            dv -= lam * (a * v + w)
        dw[1:L] = (
            d2 * (w[2:] - 2.0 * w[1:L] + w[: L - 1]) + mu * v[1:L] - gamma * w[1:L]
        )
        # Wall rows of w carry forcing only.
        dw[0] = 0.0
        dw[L] = 0.0
        return out

    forcing = np.zeros((n, 4))
    forcing[0, 0] = d1 * dx
    forcing[L, 1] = -d1 * dx
    forcing[L + 1, 2] = 1.0
    forcing[n - 1, 3] = 1.0
    return RhsStructure(
        apply_linear=apply_linear,
        cubic_rows=slice(0, L + 1),
        cubic_scale=-lam,
        cubic_root=1.0 + a,
        forcing_vectors=forcing,
        forcing_signals=(params.I0, params.IX, params.w0.derivative, params.wX.derivative),
        forcing_rates=(
            params.I0.derivative,
            params.IX.derivative,
            params.w0.second_derivative,
            params.wX.second_derivative,
        ),
    )


def _fhn_params_b() -> FhnParams:
    return FhnParams(
        L=200,
        X=10.0,
        dx=10.0 / 200.0,
        D1=5.0,
        D2=1.0,
        lam=2.0,
        a=0.1,
        mu=1.0,
        gamma=5.0,
        I0=Waveform.sin_squared(1.5),
        IX=Waveform.sin_squared(0.5),
    )


def preset(preset_id: str) -> ExperimentPreset:
    """Return one of the three bundled experiment setups (A, B, or C)."""
    key = str(preset_id).strip().upper()
    if key == "A":
        params = FhnParams(
            L=200,
            X=10.0,
            dx=10.0 / 200.0,
            D1=15.0,
            D2=10.0,
            lam=0.0,
            # The cubic reaction is switched off (lam = 0); a is inert here.
            a=0.1,
            mu=10.0,
            gamma=5.0,
            I0=Waveform.constant(1.0),
            IX=Waveform.constant(5.0),
        )
        return ExperimentPreset(
            id="A",
            params=params,
            T=0.5,
            delta_list=(0.01, 0.005, 0.0025),
            epsilon_list=(1e-15, 1e-9, 1e-1),
            l_list=(5, 10, 15, 20, 35, 50),
        )
    if key == "B":
        return ExperimentPreset(
            id="B",
            params=_fhn_params_b(),
            T=2.0,
            delta_list=(0.04, 0.02, 0.01),
            epsilon_list=(1e-15, 1e-7, 1e-4),
            l_list=(5, 20, 25, 50),
        )
    if key == "C":
        return ExperimentPreset(
            id="C",
            params=_fhn_params_b(),
            T=20.0,
            delta_list=(0.5, 1.0, 2.0),
            epsilon_list=(1e-15, 1e-7, 1e-4),
            l_list=(5, 10, 15, 20, 25, 30, 35, 40),
        )
    raise InvalidInputError(f"unknown preset {preset_id!r}, expected A, B, or C")

"""Semidiscretized FitzHugh-Nagumo benchmark on a 1-D cable.

Method-of-lines discretization of the two-field reaction-diffusion system
with injected boundary currents on the voltage field v; the recovery field
w is held at zero on both walls.  State layout is [v_0..v_L, w_0..w_L], so
the system dimension is 2(L+1).  Besides its right-hand side, a built
system carries its parts as an ``ode.RhsStructure`` (linear operator,
cubic on the voltage rows, wall forcing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .ode import OdeSystem, RhsStructure

__all__ = [
    "Waveform",
    "FhnParams",
    "build_fhn",
]


@dataclass(frozen=True)
class Waveform:
    """Scalar boundary signal with a closed-form derivative.

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


@dataclass(frozen=True)
class FhnParams:
    """Coefficients of the semidiscretized cable system.

    ``L`` counts grid intervals of the domain length X, so there are L+1
    nodes per field, a spacing ``dx`` = X / L apart.  ``lam`` scales the cubic
    reaction f1 = lam * (v(1-v)(v-a) - w); the recovery reaction is
    f2 = mu*v - gamma*w.  ``I0``/``IX`` are the injected currents at the
    left and right wall.  w is held at zero on both walls: its wall rows
    have zero rate, and a run starts from the zero state.
    """

    L: int
    X: float
    D1: float
    D2: float
    lam: float
    a: float
    mu: float
    gamma: float
    I0: Waveform
    IX: Waveform

    def __post_init__(self) -> None:
        L = int(self.L)
        if L < 2:
            raise InvalidInputError(f"L must be >= 2, got {self.L}")
        object.__setattr__(self, "L", L)
        for name in ("X", "D1", "D2", "lam", "a", "mu", "gamma"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise InvalidInputError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        if self.X <= 0.0:
            raise InvalidInputError(f"X must be positive, got {self.X}")
        if self.D1 < 0.0 or self.D2 < 0.0:
            raise InvalidInputError("diffusion coefficients must be >= 0")
        for name in ("I0", "IX"):
            if not isinstance(getattr(self, name), Waveform):
                raise InvalidInputError(f"{name} must be a Waveform")

    @property
    def dx(self) -> float:
        return self.X / self.L

    @property
    def dimension(self) -> int:
        return 2 * (self.L + 1)


def build_fhn(params: FhnParams) -> OdeSystem:
    """Assemble the method-of-lines system for the given coefficients.

    The returned OdeSystem carries its linear/cubic/forcing split as
    ``structure``.  With ``lam`` zero the cubic scale is zero, the structure
    is ``affine``, x' = A x + b(t), and A is its linear operator; ``rhs``
    then skips the cubic.

    ``rhs(t, x, out=None)`` writes f(t, x) into every entry of ``out`` and
    returns it; with ``out`` None it allocates a fresh array, as numpy's
    ``out=`` does.  It never writes to ``x``.  It copies ``x`` into a
    scratch buffer and keeps its other scratch buffers inside the closure
    too, so it is not reentrant across threads.
    """
    L = params.L
    dx = params.dx
    n = params.dimension
    d1 = params.D1 / (dx * dx)
    structure = _fhn_structure(params)
    cubic = not structure.affine
    signals = structure.forcing_signals

    # Constant operands as 0-d float64 arrays: numpy charges less per ufunc
    # call for them than for Python floats, and the arithmetic is the same.
    one, two, a, lam, mu, gamma = (
        np.array(c) for c in (1.0, 2.0, params.a, params.lam, params.mu, params.gamma)
    )
    # Diffusion coefficient of rows 1..n-2: D1/dx^2 on v, D2/dx^2 on w.
    coef = np.full(n - 2, params.D2 / (dx * dx))
    coef[:L] = d1
    second_diff = np.empty(n - 2)
    reaction = np.empty(L + 1)
    shifted = np.empty(L + 1)
    coupling = np.empty(L - 1)
    # The state is copied into ``x`` on each call, so that its slices are
    # views made once, here, and not on every call.
    x = np.empty(n)
    inner, upper, lower = x[1:-1], x[2:], x[:-2]
    v, w = x[: L + 1], x[L + 1 :]
    v_inner, w_inner = x[1:L], x[L + 2 : -1]
    item = x.item
    multiply = np.multiply
    add = np.add
    subtract = np.subtract

    def rhs(t: float, state: np.ndarray, out=None) -> np.ndarray:
        if out is None:
            out = np.empty(n)
        x[...] = state
        # Every value below is formed by the same operations in the same
        # order as the per-field expression in the comment beside it.
        # coef * (x[i+1] - 2.0 * x[i] + x[i-1]) on rows 1..n-2; rows L and
        # L+1 straddle the two fields and are overwritten by the walls.
        multiply(two, inner, out=second_diff)
        subtract(upper, second_diff, out=second_diff)
        add(second_diff, lower, out=second_diff)
        multiply(coef, second_diff, out=out[1:-1])
        # The wall rows in Python floats: the same IEEE double arithmetic.
        current_left, current_right = signals(t)
        out[0] = d1 * (item(1) - item(0) + dx * current_left)
        out[L] = d1 * (item(L - 1) - item(L) - dx * current_right)
        if cubic:
            # dv += lam * (v * (1.0 - v) * (v - a) - w)
            subtract(one, v, out=reaction)
            multiply(v, reaction, out=reaction)
            subtract(v, a, out=shifted)
            multiply(reaction, shifted, out=reaction)
            subtract(reaction, w, out=reaction)
            multiply(lam, reaction, out=reaction)
            dv = out[: L + 1]
            add(dv, reaction, out=dv)
        # dw[1:L] = d2 * (second difference) + mu * v[1:L] - gamma * w[1:L]
        dw = out[L + 2 : -1]
        multiply(mu, v_inner, out=coupling)
        add(dw, coupling, out=dw)
        multiply(gamma, w_inner, out=coupling)
        subtract(dw, coupling, out=dw)
        # w is held at zero on the walls: its wall rows have zero rate.
        out[L + 1] = out[-1] = 0.0
        return out

    return OdeSystem(dimension=n, rhs=rhs, structure=structure)


def _wall_forcing(params: FhnParams):
    """The two wall currents, their rates, and whether both are constant.

    ``signals(t)`` gives (I0(t), IX(t)) and ``rates(t)`` their time
    derivatives (I0', IX').  Each waveform's kind is resolved here: a
    constant one contributes its folded value, and the varying ones share a
    single ``math.sin`` per call.  Every value is formed by the same
    operations as the matching ``Waveform`` method, so it is bit-equal to it.
    """
    sin = math.sin
    vary_i0, vary_ix = (w.kind == "sin_squared" for w in (params.I0, params.IX))
    i0, ix = params.I0.amplitude, params.IX.amplitude
    currents_vary = vary_i0 or vary_ix

    def signals(t: float):
        s = sin(t) if currents_vary else 0.0
        return (i0 * s * s if vary_i0 else i0, ix * s * s if vary_ix else ix)

    def rates(t: float):
        s = sin(2.0 * t) if currents_vary else 0.0
        return (i0 * s if vary_i0 else 0.0, ix * s if vary_ix else 0.0)

    return signals, rates, not currents_vary


def _fhn_structure(params: FhnParams) -> RhsStructure:
    """The cable right-hand side split into linear, cubic and forcing parts.

    The cubic reaction lam * v(1-v)(v-a) expands to -lam*a*v (linear part)
    plus -lam * v^2 (v - (1+a)) on the voltage rows; -lam*w joins the
    linear part too.  The forcing is two vectors on the voltage wall rows
    times the values of ``forcing_signals(t)`` = (I0, IX), whose rates are
    ``forcing_rates(t)``; both come from ``_wall_forcing``, which also
    decides whether the forcing is constant, and ``build_fhn``'s ``rhs``
    shares the signals callable.  The linear operator works on a state
    vector or on an n x k block of them, row-wise, without assembling a
    matrix; applied to the identity it gives the matrix A itself.  It
    repeats the stencil of ``rhs`` rather than sharing it, because the truth
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
        # w is held at zero on the walls: its wall rows are zero.
        dw[0] = 0.0
        dw[L] = 0.0
        return out

    forcing = np.zeros((n, 2))
    forcing[0, 0] = d1 * dx
    forcing[L, 1] = -d1 * dx
    signals, rates, constant = _wall_forcing(params)
    return RhsStructure(
        apply_linear=apply_linear,
        cubic_rows=slice(0, L + 1),
        cubic_scale=-lam,
        cubic_root=1.0 + a,
        forcing_vectors=forcing,
        forcing_signals=signals,
        forcing_rates=rates,
        forcing_constant=constant,
    )


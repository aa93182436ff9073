"""FC *system* efficiency models (paper Section 2.3, Fig. 3).

The paper defines the system efficiency as

    eta_s = (VF * IF) / dE_Gibbs,      dE_Gibbs = zeta * Ifc        (Eq. 1)

and, for the PWM-PFM converter + proportional-fan configuration,
calibrates the linear law

    eta_s ~= alpha - beta * IF,        alpha = 0.45, beta = 0.13    (Eq. 2)

over the load-following range ``IF in [0.1, 1.2] A``.  Inverting Eq. 1
gives the *fuel map* -- the stack current (proportional to fuel flow)
required to source a system output current:

    Ifc = (VF * IF) / (zeta * eta_s(IF))                            (Eq. 3)
        = 0.32 * IF / (alpha - beta * IF)    for the linear law     (Eq. 4)

Every policy in :mod:`repro.core` minimizes integrals of this map.  The
map is strictly convex and increasing for the linear law, which is what
makes the paper's "flat output" optimum (Section 3.3) hold.

This module provides the linear law, a constant law (the on-off-fan
configuration of refs [10, 11]), a tabulated law (from measured points),
and a physically composed law (stack x converter x controller) used to
regenerate Fig. 3.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import lru_cache

import numpy as np

from ..config import FCSystemConstants
from ..errors import ConfigurationError, RangeError
from ..power.converter import ConverterModel, PWMPFMConverter
from .controller import FanController, ProportionalFanController
from .stack import FCStack


class SystemEfficiencyModel(ABC):
    """Common interface: efficiency and fuel map over the load-following range.

    Parameters
    ----------
    v_out:
        Regulated system output voltage ``VF`` (V).
    zeta:
        Gibbs-power coefficient ``dE_Gibbs = zeta * Ifc`` (W/A).
    if_min, if_max:
        Load-following range bounds (A).
    """

    def __init__(
        self,
        v_out: float = 12.0,
        zeta: float = 37.5,
        if_min: float = 0.1,
        if_max: float = 1.2,
    ) -> None:
        if v_out <= 0 or zeta <= 0:
            raise ConfigurationError("v_out and zeta must be positive")
        if not 0 <= if_min < if_max:
            raise ConfigurationError("need 0 <= if_min < if_max")
        self.v_out = v_out
        self.zeta = zeta
        self.if_min = if_min
        self.if_max = if_max

    # -- caching ------------------------------------------------------------

    @property
    def cache_token(self):
        """Value-semantics identity for memoization, or ``None``.

        Models whose fuel map is a pure function of a few scalar
        coefficients return a hashable tuple of them; two instances with
        equal tokens are interchangeable, which lets
        :mod:`repro.runtime.memo` share solver results across instances.
        Stateful / composed models return ``None`` (not cacheable).
        """
        return None

    # -- interface ----------------------------------------------------------

    @abstractmethod
    def efficiency(self, i_f: float) -> float:
        """System efficiency ``eta_s`` at system output current ``IF`` (A)."""

    def fc_current(self, i_f: float) -> float:
        """Fuel map: stack current ``Ifc`` (A) to source ``IF`` (Eq. 3)."""
        if i_f < 0:
            raise RangeError("system output current cannot be negative")
        if i_f == 0:
            return 0.0
        eta = self.efficiency(i_f)
        if eta <= 0:
            raise RangeError(f"efficiency is non-positive at IF={i_f:.3f} A")
        return self.v_out * i_f / (self.zeta * eta)

    def fc_current_derivative(self, i_f: float, h: float = 1e-6) -> float:
        """``d Ifc / d IF`` -- central difference unless overridden."""
        lo = max(i_f - h, 0.0)
        return (self.fc_current(i_f + h) - self.fc_current(lo)) / (i_f + h - lo)

    def fuel_charge(self, i_f: float, duration: float) -> float:
        """Fuel consumed (stack A-s) holding output ``IF`` for ``duration``."""
        if duration < 0:
            raise RangeError("duration cannot be negative")
        return self.fc_current(i_f) * duration

    def fuel_map_array(self, i_f: np.ndarray) -> np.ndarray:
        """Vectorized fuel map: ``Ifc`` for an array of output currents.

        The generic implementation evaluates :meth:`fc_current` per
        element, so any model is array-capable; subclasses with a
        closed-form law override it with real array arithmetic.  Each
        returned element is **bit-identical** to the scalar call -- the
        vectorized simulator (:mod:`repro.sim.vectorized`) relies on
        that to stay exactly equivalent to the scalar path.
        """
        arr = np.asarray(i_f, dtype=float)
        out = np.empty(arr.shape, dtype=float)
        flat_in = arr.reshape(-1)
        flat_out = out.reshape(-1)
        for j in range(flat_in.size):
            flat_out[j] = self.fc_current(float(flat_in[j]))
        return out

    # -- range helpers --------------------------------------------------------

    def clamp(self, i_f: float) -> float:
        """Clamp ``IF`` into the load-following range (paper Section 3.3.1)."""
        return min(max(i_f, self.if_min), self.if_max)

    def in_range(self, i_f: float, tol: float = 1e-12) -> bool:
        """True if ``IF`` lies within the load-following range."""
        return self.if_min - tol <= i_f <= self.if_max + tol

    def sweep(self, n_points: int = 200, i_max: float | None = None):
        """``(IF, eta_s)`` arrays for plotting Fig. 3 style curves."""
        top = self.if_max if i_max is None else i_max
        i = np.linspace(max(self.if_min * 0.1, 1e-4), top, n_points)
        eta = np.array([self.efficiency(float(x)) for x in i])
        return i, eta


#: Bound on distinct ``(coefficients, IF)`` fuel-map entries; large
#: enough for every sweep in the repo, small enough to be invisible.
FUEL_MAP_CACHE_SIZE = 1 << 16


@lru_cache(maxsize=FUEL_MAP_CACHE_SIZE)
def _linear_fuel_map(k_fuel: float, alpha: float, beta: float, i_f: float) -> float:
    """Eq. 4 with the coefficients in the key: shared across instances.

    Module-level so the table survives model re-construction (sweeps
    build fresh ``LinearSystemEfficiency`` objects per point) and so
    instances stay picklable for process-pool dispatch.
    """
    denom = alpha - beta * i_f
    if denom <= 0:
        raise RangeError(
            f"IF={i_f:.3f} A is at/beyond the efficiency pole "
            f"alpha/beta={alpha / beta if beta else float('inf'):.3f} A"
        )
    return k_fuel * i_f / denom


class LinearSystemEfficiency(SystemEfficiencyModel):
    """``eta_s = alpha - beta * IF`` -- the paper's calibrated model (Eq. 2).

    With this law the fuel map (Eq. 4) has the closed form
    ``Ifc = k * IF / (alpha - beta * IF)`` with ``k = VF / zeta`` (= 0.32
    for the paper's numbers), which is strictly convex and increasing on
    ``[0, alpha/beta)``.
    """

    def __init__(
        self,
        alpha: float = 0.45,
        beta: float = 0.13,
        v_out: float = 12.0,
        zeta: float = 37.5,
        if_min: float = 0.1,
        if_max: float = 1.2,
    ) -> None:
        super().__init__(v_out=v_out, zeta=zeta, if_min=if_min, if_max=if_max)
        if alpha <= 0 or beta < 0:
            raise ConfigurationError("need alpha > 0 and beta >= 0")
        if alpha - beta * if_max <= 0:
            raise ConfigurationError(
                "alpha - beta * if_max must stay positive over the range"
            )
        self.alpha = alpha
        self.beta = beta
        # Pre-bound coefficient key so the cached fuel map is a single
        # tuple-splat call (the k_fuel property would recompute per call).
        self._fuel_coeffs = (v_out / zeta, alpha, beta)

    @classmethod
    def from_constants(cls, constants: FCSystemConstants) -> "LinearSystemEfficiency":
        """Build from a :class:`~repro.config.FCSystemConstants` bundle."""
        return cls(
            alpha=constants.alpha,
            beta=constants.beta,
            v_out=constants.v_out,
            zeta=constants.zeta,
            if_min=constants.if_min,
            if_max=constants.if_max,
        )

    @property
    def k_fuel(self) -> float:
        """``VF / zeta`` -- 0.32 for the paper's numbers."""
        return self.v_out / self.zeta

    def efficiency(self, i_f: float) -> float:
        if i_f < 0:
            raise RangeError("system output current cannot be negative")
        return self.alpha - self.beta * i_f

    @property
    def cache_token(self):
        """See :attr:`SystemEfficiencyModel.cache_token`."""
        return (
            "linear",
            self.alpha,
            self.beta,
            self.v_out,
            self.zeta,
            self.if_min,
            self.if_max,
        )

    def fc_current(self, i_f: float) -> float:
        if i_f < 0:
            raise RangeError("system output current cannot be negative")
        k_fuel, alpha, beta = self._fuel_coeffs
        return _linear_fuel_map(k_fuel, alpha, beta, i_f)

    def fc_current_derivative(self, i_f: float, h: float = 1e-6) -> float:
        """Analytic ``d Ifc / d IF = k * alpha / (alpha - beta IF)^2``."""
        denom = self.alpha - self.beta * i_f
        if denom <= 0:
            raise RangeError("IF at/beyond the efficiency pole")
        return self.k_fuel * self.alpha / (denom * denom)

    def fuel_map_array(self, i_f: np.ndarray) -> np.ndarray:
        """Closed-form Eq. 4 over an array, bit-identical per element.

        ``k * IF / (alpha - beta * IF)`` evaluates each element with the
        same IEEE-754 operation sequence as :func:`_linear_fuel_map`, so
        every entry equals the scalar :meth:`fc_current` result exactly.
        Subclasses that disable :attr:`cache_token` fall back to the
        per-element base implementation (they may have overridden the
        scalar law).
        """
        if self.cache_token is None:
            return super().fuel_map_array(i_f)
        arr = np.asarray(i_f, dtype=float)
        if arr.size and float(arr.min()) < 0:
            raise RangeError("system output current cannot be negative")
        k_fuel, alpha, beta = self._fuel_coeffs
        denom = alpha - beta * arr
        if arr.size and float(denom.min()) <= 0:
            worst = float(arr[int(np.argmin(denom))])
            raise RangeError(
                f"IF={worst:.3f} A is at/beyond the efficiency pole "
                f"alpha/beta={alpha / beta if beta else float('inf'):.3f} A"
            )
        return k_fuel * arr / denom

    def inverse_fc_current(self, i_fc: float) -> float:
        """Invert the fuel map: the ``IF`` whose stack current is ``i_fc``."""
        if i_fc < 0:
            raise RangeError("stack current cannot be negative")
        # i_fc = k*IF/(alpha - beta*IF)  =>  IF = alpha*i_fc / (k + beta*i_fc)
        return self.alpha * i_fc / (self.k_fuel + self.beta * i_fc)


class ConstantSystemEfficiency(SystemEfficiencyModel):
    """Flat ``eta_s`` -- the on-off-fan configuration of refs [10, 11].

    Within +-3 % the measured Fig. 3(c) curve is constant over the
    load-following range; with a constant efficiency the fuel map is
    *linear* in ``IF`` and flattening the output buys nothing -- a key
    ablation contrast for the paper's contribution.
    """

    def __init__(
        self,
        eta: float = 0.33,
        v_out: float = 12.0,
        zeta: float = 37.5,
        if_min: float = 0.1,
        if_max: float = 1.2,
    ) -> None:
        super().__init__(v_out=v_out, zeta=zeta, if_min=if_min, if_max=if_max)
        if not 0 < eta < 1:
            raise ConfigurationError("eta must be in (0, 1)")
        self.eta = eta

    @property
    def cache_token(self):
        """See :attr:`SystemEfficiencyModel.cache_token`."""
        return ("constant", self.eta, self.v_out, self.zeta, self.if_min, self.if_max)

    def efficiency(self, i_f: float) -> float:
        if i_f < 0:
            raise RangeError("system output current cannot be negative")
        return self.eta

    def fuel_map_array(self, i_f: np.ndarray) -> np.ndarray:
        """Linear fuel map over an array, bit-identical per element.

        ``VF * IF / (zeta * eta)`` with the scalar's operation order;
        zero inputs yield exactly 0.0 as in the scalar shortcut.
        """
        if self.cache_token is None:
            return super().fuel_map_array(i_f)
        arr = np.asarray(i_f, dtype=float)
        if arr.size and float(arr.min()) < 0:
            raise RangeError("system output current cannot be negative")
        return self.v_out * arr / (self.zeta * self.eta)


class TabulatedSystemEfficiency(SystemEfficiencyModel):
    """Piecewise-linear interpolation of measured ``(IF, eta_s)`` samples."""

    def __init__(
        self,
        currents,
        efficiencies,
        v_out: float = 12.0,
        zeta: float = 37.5,
        if_min: float | None = None,
        if_max: float | None = None,
    ) -> None:
        i = np.asarray(currents, dtype=float)
        e = np.asarray(efficiencies, dtype=float)
        if i.ndim != 1 or i.shape != e.shape or i.size < 2:
            raise ConfigurationError("need matching 1-D sample arrays (>= 2 points)")
        if np.any(np.diff(i) <= 0):
            raise ConfigurationError("sample currents must be strictly increasing")
        if np.any(e <= 0) or np.any(e >= 1):
            raise ConfigurationError("sampled efficiencies must lie in (0, 1)")
        super().__init__(
            v_out=v_out,
            zeta=zeta,
            if_min=float(i[0]) if if_min is None else if_min,
            if_max=float(i[-1]) if if_max is None else if_max,
        )
        self._i = i
        self._eta = e

    def efficiency(self, i_f: float) -> float:
        if i_f < 0:
            raise RangeError("system output current cannot be negative")
        return float(np.interp(i_f, self._i, self._eta))


class ComposedSystemEfficiency(SystemEfficiencyModel):
    """Physically composed efficiency: stack x DC-DC x controller.

    Power balance at system output ``IF``:

    * the converter must deliver ``Vdc * (IF + Ictrl(IF))`` at its output
      (system load plus controller overhead, paper Section 2.1);
    * the stack must supply the converter's input power, fixing ``Ifc``
      through the polarization curve: ``Vfc(Ifc) * Ifc = P_in``;
    * ``eta_s = VF * IF / (zeta * Ifc)`` (Eq. 1).

    This regenerates Fig. 3(b)/(c) depending on converter/fan choice.
    """

    def __init__(
        self,
        stack: FCStack | None = None,
        converter: ConverterModel | None = None,
        controller: FanController | None = None,
        v_out: float = 12.0,
        zeta: float = 37.5,
        if_min: float = 0.1,
        if_max: float = 1.2,
    ) -> None:
        super().__init__(v_out=v_out, zeta=zeta, if_min=if_min, if_max=if_max)
        self.stack = stack if stack is not None else FCStack.bcs_20w()
        self.converter = converter if converter is not None else PWMPFMConverter()
        self.controller = (
            controller if controller is not None else ProportionalFanController()
        )

    def _stack_power(self, i_f: float) -> float:
        """Converter input power (W) the stack supplies at output ``IF``."""
        if i_f == 0 and self.controller.current(0.0) == 0:
            return 0.0
        p_out = self.v_out * (i_f + self.controller.current(i_f))
        return self.converter.input_power(p_out)

    def fc_current(self, i_f: float) -> float:
        if i_f < 0:
            raise RangeError("system output current cannot be negative")
        return self.stack.current_for_power(self._stack_power(i_f))

    def fuel_map_array(self, i_f: np.ndarray) -> np.ndarray:
        """Fuel map over an array from one inversion of the stack curve.

        Each element's stack power comes from the scalar fan and
        converter code; the stack then inverts them all in one lockstep
        bisection, so every element is bit-identical to the scalar call.
        """
        arr = np.asarray(i_f, dtype=float)
        if arr.size and float(arr.min()) < 0:
            raise RangeError("system output current cannot be negative")
        p_in = [self._stack_power(float(x)) for x in arr.reshape(-1)]
        return self.stack.current_for_power(np.reshape(p_in, arr.shape))

    def efficiency(self, i_f: float) -> float:
        if i_f < 0:
            raise RangeError("system output current cannot be negative")
        if i_f == 0:
            return 0.0
        i_fc = self.fc_current(i_f)
        if i_fc <= 0:
            return 0.0
        return self.v_out * i_f / (self.zeta * i_fc)

    def efficiency_array(self, i_f: np.ndarray) -> np.ndarray:
        """:meth:`efficiency` over a 1-D array, bit-identical per element."""
        i_f = np.asarray(i_f, dtype=float)
        i_fc = self.fuel_map_array(i_f)
        eta = np.zeros(i_f.shape)
        ok = (i_f != 0) & (i_fc > 0)
        eta[ok] = self.v_out * i_f[ok] / (self.zeta * i_fc[ok])
        return eta

    def sweep(self, n_points: int = 200, i_max: float | None = None):
        """``(IF, eta_s)`` arrays for plotting Fig. 3 style curves."""
        top = self.if_max if i_max is None else i_max
        i = np.linspace(max(self.if_min * 0.1, 1e-4), top, n_points)
        return i, self.efficiency_array(i)

    def fit_linear_coefficients(self, n_points: int = 60) -> tuple[float, float]:
        """Least-squares ``(alpha, beta)`` of ``eta ~= alpha - beta*IF``.

        ``beta`` may come out negative for configurations whose
        efficiency *rises* with load (e.g. the on-off fan at light
        load); use :meth:`fit_linear` only when a proper decreasing law
        is expected.
        """
        i = np.linspace(self.if_min, self.if_max, n_points)
        slope, intercept = np.polyfit(i, self.efficiency_array(i), 1)
        return float(intercept), float(-slope)

    def fit_linear(self, n_points: int = 60) -> LinearSystemEfficiency:
        """Least-squares linear fit over the load-following range.

        This is the calibration step the paper performs on its measured
        Fig. 3(b) curve to obtain ``alpha = 0.45, beta = 0.13``.
        Raises :class:`~repro.errors.ConfigurationError` when the curve
        is not decreasing (``beta < 0``).
        """
        alpha, beta = self.fit_linear_coefficients(n_points)
        return LinearSystemEfficiency(
            alpha=alpha,
            beta=beta,
            v_out=self.v_out,
            zeta=self.zeta,
            if_min=self.if_min,
            if_max=self.if_max,
        )


class StackEfficiency:
    """Stack-only efficiency vs *system output* current, for Fig. 3(a).

    Fig. 3 plots all three curves against the FC **system output**
    current ``IF``; the stack curve is obtained by first mapping ``IF``
    to the stack current through the composed power balance, then taking
    ``Vfc / zeta``.
    """

    def __init__(self, composed: ComposedSystemEfficiency) -> None:
        self.composed = composed

    def efficiency(self, i_f: float) -> float:
        i_fc = self.composed.fc_current(i_f)
        if i_fc <= 0:
            return float(
                self.composed.stack.voltage(0.0) / self.composed.zeta
            )
        return float(self.composed.stack.voltage(i_fc) / self.composed.zeta)

    def sweep(self, n_points: int = 200, i_max: float | None = None):
        top = self.composed.if_max if i_max is None else i_max
        i = np.linspace(1e-4, top, n_points)
        i_fc = self.composed.fuel_map_array(i)
        v = self.composed.stack.voltage(np.where(i_fc > 0, i_fc, 0.0))
        return i, v / self.composed.zeta

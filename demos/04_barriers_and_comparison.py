#!/usr/bin/env python3
"""The barrier machinery: class membership, residual certificates, comparison.

The evolution operator E[y] = y y_pp + (2 - phi - y_p) y_p + y (1 - y/phi^2)
admits explicit sub- and supersolutions Y -/+ lam(tau) phi^2 whose residuals
are closed-form polynomials in phi; their signs certify the sandwich that
squeezes every class member onto the stationary profile.
"""

import numpy as np

from krflow.barriers import (BARRIER_DELTA, LAMBDA_INIT, barrier_residual_sub,
                             barrier_residual_sup, barrier_y1, barrier_y2,
                             class_c_check, comparison_check, fit_lambda0,
                             full_operator)
from krflow.soliton import fik_y, fik_y_derivs
from krflow.states import DilatedState

rt2 = np.sqrt(2.0)
phi = np.geomspace(1.0, 1e4, 2000)

print("= stationarity of the fixed point =")
y, yp, ypp = fik_y_derivs(phi)
print(f"max |E[Y]| on [1, 1e4]: {np.max(np.abs(full_operator(phi, y, yp, ypp))):.2e}")

print("\n= class membership =")
grid = np.linspace(1.0, 10.0, 4001)
y0 = (grid - 1.0) * (10.0 - grid) / 9.0          # parabola data, dilated at start
res = class_c_check(DilatedState(0.0, grid, y0))
barrier = fik_y(grid) - grid ** 2 / 5.0
print(f"parabola (1,10): member = {res.ok}, margin = {res.margin:.3f}")
print(f"membership barrier peaks at {np.max(barrier):.4f} "
      f"near phi = {grid[np.argmax(barrier)]:.2f}  (below 0.06)")

print("\n= residual certificates =")
sub = barrier_residual_sub(phi, LAMBDA_INIT, BARRIER_DELTA)
sup = barrier_residual_sup(phi, 0.011)
print(f"subsolution residual:  max = {np.max(sub):.4f}  (negative everywhere)")
print(f"supersolution residual: min = {np.min(sup):.4e}  (positive everywhere)")

print("\n= the sandwich squeezes =")
lambda0 = fit_lambda0(DilatedState(0.0, grid, y0))
for tau in (0.0, 2.0, 6.0):
    lo = float(barrier_y1(2.0, tau))
    hi = float(barrier_y2(2.0, tau, lambda0))
    print(f"tau = {tau:3.0f}: barriers at phi = 2 are [{lo:+.4f}, {hi:+.4f}], "
          f"Y(2) = {fik_y(2.0):+.4f}")

print("\n= comparison-principle harness =")
taus = np.linspace(0.0, 2.0, 21)
window = np.linspace(1.0, 20.0, 301)
ym = np.array([fik_y(window) for _ in taus])
v = comparison_check(taus, window, ym, ym + 0.1, c_bound=2.0)
print(f"ordered pair: ordered = {v.ordered}, lambda = {v.lambda_used}")
bad = ym + 0.1
bad[10:, 150] = ym[10:, 150] - 0.05
v2 = comparison_check(taus, window, ym, bad, c_bound=2.0)
print(f"tampered pair: ordered = {v2.ordered}, first crossing at "
      f"(tau, phi) = ({v2.first_crossing[0]:.2f}, {v2.first_crossing[1]:.2f})")

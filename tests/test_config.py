from __future__ import annotations

import pytest

import defectwalk as dw

_STATE = dw.delta_state(4)
_LAM = 1.0 + 1.0j

# every public function taking omega, as omega -> call; the spectral ones
# (which need the four point eigenvalues) are also undefined at omega = 1
_TAKES_OMEGA = {
    "abs_real_part": dw.abs_real_part,
    "abs_imag_part": dw.abs_imag_part,
    "eigenvalue_modulus_squared": dw.eigenvalue_modulus_squared,
    "transfer_matrix": lambda om: dw.transfer_matrix(_LAM, 0, om),
    "det_parameter_plus": lambda om: dw.det_parameter_plus(_LAM, om),
    "det_parameter_minus": lambda om: dw.det_parameter_minus(_LAM, om),
    "dependence_det_plus": lambda om: dw.dependence_det_plus(_LAM, om),
    "dependence_det_minus": lambda om: dw.dependence_det_minus(_LAM, om),
    "coin": lambda om: dw.coin(0, om),
    "apply_U": lambda om: dw.apply_U(_STATE, om),
    "eigen_residual": lambda om: dw.eigen_residual(_STATE, om, _LAM),
    "evolve": lambda om: dw.evolve(_STATE, om, 0),
    "growth_rate": lambda om: dw.growth_rate(_STATE, om, 10),
    "build_dense": lambda om: dw.build_dense(om, 4),
    "find_eigenvalues_numeric": lambda om: dw.find_eigenvalues_numeric(om, grid=4),
}
_SPECTRAL = {
    "eigenvalues": dw.eigenvalues,
    "eigenvector_profile": lambda om: dw.eigenvector_profile(om, _LAM),
    "eigenvector": lambda om: dw.eigenvector(om, _LAM, 4),
    "highprec_check": dw.highprec_check,
    "residual_decay": lambda om: dw.residual_decay(om, 1),
}
_CASES = [(name, fn, bad) for name, fn in _TAKES_OMEGA.items()
          for bad in (0.0, 1e-320, float("nan"), float("inf"), float("-inf"))]
_CASES += [(name, fn, bad) for name, fn in _SPECTRAL.items()
           for bad in (0.0, 1e-320, float("nan"), float("inf"), float("-inf"), 1.0)]


@pytest.mark.parametrize("name,fn,omega", _CASES, ids=[f"{n}-{o}" for n, _, o in _CASES])
def test_every_entry_point_rejects_a_bad_omega(name, fn, omega):
    with pytest.raises(ValueError, match="omega"):
        fn(omega)

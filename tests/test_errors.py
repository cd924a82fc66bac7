"""The guard helpers, and the domain every public constructor keeps.

The property test draws each constructor's numeric inputs from finite
values, both infinities, NaN, zero, negatives, subnormals and values whose
square over- or underflows; each call must build an object whose numbers
(fields and the derived values its guards promise) are all finite, or raise
an HgSenseError.
"""

import dataclasses
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hgsense.errors import (
    ConfigError,
    HgSenseError,
    SaturationWarning,
    SeparationError,
    adopted,
    finite,
    finite_in,
    finite_positive,
    frozen,
    naming,
    positive_square,
)
from hgsense.experiment import DriveCalibration, NoiseModel, PhotonBudget
from hgsense.fields import (
    FieldGrid,
    PhaseMap,
    read_field_binary,
    synthesize_superposition,
)
from hgsense.fisher import (
    carrier_projection_povm,
    qfi_mixed_closed_form,
    qfi_mixed_monitor,
    qfi_mixed_quadratic,
)
from hgsense.modes import (
    ModeIndex,
    ModeState,
    basis_dim,
    ladder_matrices,
    lz_matrix,
    momentum_matrix_x,
    momentum_variance_x,
)
from hgsense.weak import (
    Coupling,
    Generator,
    PauliAxis,
    QubitState,
    WeakScenario,
    carrier_state,
    coupling_matrix,
    post_selected_pair,
)


def test_guards_return_the_value_or_name_it_in_the_error():
    assert finite("z", -2.5) == -2.5
    assert finite_positive("pitch", 5e-324) == 5e-324
    assert positive_square("sigma0", 1e-150) == 1e-150
    assert finite_in("side", 128, 128, 4096) == 128
    assert finite_in("angle", 0.5, 0.0, 1.0, ends="()") == 0.5
    with pytest.raises(ConfigError, match=r"^angle 0.0 must be finite and "
                                          r"lie in \(0.0, 1.0\)$"):
        finite_in("angle", 0.0, 0.0, 1.0, ends="()")
    with pytest.raises(SeparationError, match=r"lie in \[4.0, 8.0\)$"):
        finite_in("period", 8.0, 4.0, 8.0, SeparationError, "[)")
    for bad in (math.nan, math.inf, -math.inf):
        for guard in (lambda: finite("x", bad),
                      lambda: finite_positive("x", bad),
                      lambda: finite_in("x", bad, -math.inf, math.inf),
                      lambda: positive_square("x", bad)):
            with pytest.raises(ConfigError, match=f"^x {bad} must be"):
                guard()
    for bad in (0.0, -1.0, 1e-170, 1e160):  # the square underflows or overflows
        with pytest.raises(ConfigError, match="finite, nonzero square"):
            positive_square("sigma0", bad)


def test_adopted_takes_a_frozen_buffer_and_checks_every_copy():
    mine = frozen(np.array([1.0, math.nan]))  # read-only, owns its data
    assert adopted("x", mine, float) is mine  # no pass: the NaN stays
    for copied in (frozen(mine.astype(np.float32)), mine[::-1],
                   [1.0, math.nan], np.array([1.0, math.nan])):
        # another dtype, a view, a list and a writeable array are copied
        with pytest.raises(ConfigError, match=r"^x nan must be finite$"):
            adopted("x", copied, float)
    caller = np.array([[3, 1]])
    got = adopted("x", caller, float)
    assert got.dtype == float and not got.flags.writeable
    assert got.flags.owndata and not np.shares_memory(got, caller)
    # each constructor names its entries by the rule's one spelling
    for build, shown in ((lambda a: ModeState(0, a[5, 7:8]),
                          r"amplitude \(nan\+0j\)"),
                         (lambda a: FieldGrid(a, 0.1, 1.0), "field sample nan"),
                         (lambda a: PhaseMap(a), "phase nan")):
        grid = np.zeros((128, 128))
        grid[5, 7] = math.nan
        with pytest.raises(ConfigError, match=rf"^{shown} must be finite$"):
            build(grid)


def test_naming_prefixes_a_refusal_of_its_classes_and_keeps_the_class():
    with pytest.raises(SeparationError) as refused:
        with naming("--grid 64", ConfigError, SeparationError):
            raise SeparationError("orders overlap")
    assert type(refused.value) is SeparationError
    assert str(refused.value) == "--grid 64: orders overlap"
    assert refused.value.__suppress_context__
    other = ConfigError("period 3.0 must be finite")
    for classes in ((SeparationError,), ()):  # anything else passes as it is
        with pytest.raises(ConfigError) as passed:
            with naming("--grid 64", *classes):
                raise other
        assert passed.value is other
    with naming("--grid 64", ConfigError):
        pass


def _fgrd(version=1, side=1, z=0.0) -> bytes:
    """An FGRD header: pitch 0.1, sigma0 1 and wavelength 780 nm."""
    return struct.pack("<4sII4d", b"FGRD", version, side, 0.1, 1.0, 780e-9, z)


def _read_fgrd(tmp_path, raw: bytes):
    path = tmp_path / "field.fgrd"
    path.write_bytes(raw)
    return read_field_binary(path)


# 2|2, 2>: a pointer of norm 2, which each dephased-monitor route refuses
_MONITOR_ARGS = (QubitState.from_angles(1.1, 0.0), 1e-3,
                 ModeState(4, 2.0 * ModeState.basis(4, 2, 2).amplitudes))


@pytest.mark.parametrize("call, message", [
    (lambda _: ModeState(1, np.zeros(3)), "expected 4 amplitudes, got (3,)"),
    (lambda _: ModeState.basis(2, 3, 0),
     "(3, 0) outside basis with cutoff 2"),
    (lambda _: carrier_state(ModeIndex(3, 3), 2),
     "cutoff 2 cannot hold the carrier of (3, 3)"),
    (lambda _: FieldGrid(np.zeros((128, 129)), 0.1, 1.0),
     "samples must be a square 2-D array"),
    (lambda _: PhaseMap(np.zeros((4, 5))), "phase map must be square"),
    (lambda _: synthesize_superposition(ModeState(1, np.zeros(4)), 1.0),
     "zero superposition"),
    (lambda tmp: _read_fgrd(tmp, b"FGRD"), "not a version-1 field binary"),
    (lambda tmp: _read_fgrd(tmp, _fgrd(version=2)),
     "not a version-1 field binary"),
    (lambda tmp: _read_fgrd(tmp, _fgrd(z=1.0)),
     "field binary at z = 1.0, not at the waist z = 0"),
    (lambda tmp: _read_fgrd(tmp, _fgrd(side=2)),
     "payload of 0 bytes; a 2 x 2 grid needs 64"),
    (lambda tmp: _read_fgrd(tmp, _fgrd() + np.array([np.nan], "<c16")
                            .tobytes()),
     "field binary holds samples that are not finite"),
    (lambda _: carrier_projection_povm(carrier_state(ModeIndex(1, 1), 2))
     .probabilities(ModeState.basis(3, 1, 1)),
     "readout and state truncations differ"),
    (lambda _: coupling_matrix("oam", 2), "unknown coupling 'oam'"),
    (lambda _: Generator("oam"), "unknown coupling 'oam'"),
    (lambda _: ladder_matrices(2.5), "cutoff 2.5 must be an integer"),
    (lambda _: momentum_matrix_x(2.5, 1.0), "cutoff 2.5 must be an integer"),
    (lambda _: coupling_matrix(Coupling.OAM, 2.5),
     "cutoff 2.5 must be an integer"),
    (lambda _: lz_matrix(True), "cutoff True must be an integer"),
    (lambda _: FieldGrid([[1, 2], [3]], 0.1, 1.0),
     "samples must be a square 2-D array"),
    (lambda _: ModeState(1, [[1, 2], [3]]),
     "amplitude values must form a regular complex array"),
    (lambda _: ModeState(0, [1, [2]]),
     "amplitude values must form a regular complex array"),
    (lambda _: PhaseMap([[0.1, 0.2], [0.3]]),
     "phase values must form a regular float array"),
    (lambda _: PhaseMap([[1j]]), "phase values must form a regular float array"),
    (lambda _: PhaseMap(np.array([[1j, 0.5]] * 2)),
     "phase values must form a regular float array"),
    (lambda _: PhaseMap([np.array([1j, 0.5])] * 2),
     "phase values must form a regular float array"),
    (lambda _: PhaseMap([[np.complex128(1j), 0.5]] * 2),
     "phase values must form a regular float array"),
    *[(call, "trace 4.0 must be finite and lie in [0.9999999999, "
             "1.0000000001]") for call in (
        lambda _: qfi_mixed_monitor(*_MONITOR_ARGS),
        lambda _: qfi_mixed_closed_form(*_MONITOR_ARGS),
        lambda _: qfi_mixed_quadratic(*_MONITOR_ARGS[1:]))],
], ids=["amplitude-count", "flat-index", "carrier-cutoff", "field-grid-shape",
        "phase-map-shape", "zero-superposition", "fgrd-short", "fgrd-version",
        "fgrd-off-waist", "fgrd-payload", "fgrd-not-finite",
        "readout-cutoff", "coupling-matrix", "generator-coupling",
        "ladder-cutoff", "momentum-cutoff", "coupling-cutoff",
        "lz-bool-cutoff", "field-grid-ragged", "amplitude-ragged",
        "amplitude-ragged-scalar", "phase-map-ragged", "phase-map-complex",
        "phase-map-complex-array", "phase-map-complex-array-rows",
        "phase-map-complex-scalars", "monitor-sld-trace",
        "monitor-closed-form-trace", "monitor-quadratic-trace"])
def test_shape_and_basis_refusals_are_package_errors(call, message, tmp_path):
    with pytest.raises(HgSenseError) as refused:
        call(tmp_path)
    assert str(refused.value) == message
    assert isinstance(refused.value, ValueError)  # as before, for callers


REALS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324,
                     1e-300, 1e-160, 1e-3, 1.0, 780e-9, 1e160, 1e300]),
    st.floats())
ORDERS = st.integers(-2, 70)
CUTOFFS = st.integers(-2, 3)
ZEROS = np.zeros((128, 128), dtype=complex)


def _pointer_scenario(draw) -> WeakScenario:
    pre, post = post_selected_pair(draw(REALS))
    return WeakScenario(draw(REALS), pre, post, PauliAxis.z(),
                        Coupling.MOMENTUM_X, ModeState.basis(2, 1, 1),
                        draw(REALS))


def _mode_state(draw) -> ModeState:
    cutoff = draw(CUTOFFS)
    amplitude = draw(st.floats(allow_nan=False, allow_infinity=False))
    return ModeState(cutoff, np.full(basis_dim(max(cutoff, 0)), amplitude))


BUILDS = {
    "ModeIndex": lambda draw: ModeIndex(draw(ORDERS), draw(ORDERS)),
    "ModeState": _mode_state,
    "QubitState": lambda draw: QubitState(draw(REALS), draw(REALS)),
    "QubitState.from_amplitudes":
        lambda draw: QubitState.from_amplitudes(draw(REALS), draw(REALS)),
    "PauliAxis": lambda draw: PauliAxis(draw(REALS), draw(REALS)),
    "WeakScenario": _pointer_scenario,
    "Generator": lambda draw: Generator(Coupling.MOMENTUM_X,
                                        sigma0=draw(REALS)),
    "FieldGrid": lambda draw: FieldGrid(ZEROS, draw(REALS), draw(REALS)),
    "PhaseMap": lambda draw: PhaseMap(np.full((4, 4), draw(REALS))),
    "PhotonBudget": lambda draw: PhotonBudget(draw(REALS), draw(REALS),
                                              draw(REALS)),
    "NoiseModel": lambda draw: NoiseModel(draw(REALS), draw(REALS),
                                          draw(REALS)),
    "DriveCalibration": lambda draw: DriveCalibration(draw(REALS)),
    "momentum_variance_x":
        lambda draw: momentum_variance_x(ModeIndex(1, 0), draw(REALS)),
}

# derived values a constructor's guards vouch for, beyond its fields
DERIVED = {PhotonBudget: ("photon_energy", "photons", "volts_per_rate")}


def _numbers(result) -> list:
    if not dataclasses.is_dataclass(result):
        return [result]
    values = [getattr(result, f.name) for f in dataclasses.fields(result)]
    values += [getattr(result, name) for name in DERIVED.get(type(result), ())]
    return [v for value in values
            if isinstance(value, (int, float, complex, np.ndarray))
            for v in np.ravel(value)]


@pytest.mark.parametrize("name", sorted(BUILDS))
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_public_constructors_build_finite_values_or_refuse(name, data):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationWarning)
        try:
            result = BUILDS[name](data.draw)
        except HgSenseError:
            return
    assert np.all(np.isfinite(_numbers(result)))

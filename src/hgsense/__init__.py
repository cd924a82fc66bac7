"""Rotation sensing with structured-beam pointers.

Weak-value amplified measurement of beam rotations using Hermite-Gaussian
pointer modes: mode algebra, weak-coupling evolution, quantum and classical
Fisher bounds, sampled-field holography and a shot-noise-limited lock-in
experiment model.
"""

from .errors import (
    ConfigError,
    CoverageError,
    DegeneratePostSelectionError,
    ExpansionInvalidError,
    GridMismatchError,
    HgSenseError,
    InvalidStateError,
    NoCarrierError,
    NoSensitivityError,
    SaturationWarning,
    SeparationError,
    SmallProbabilityWarning,
    StepSizeError,
    TotalExtinctionError,
    UnreachableAmplitudeError,
    UnsupportedOrderError,
    WeakRegimeError,
)
from .experiment import (
    DriveCalibration,
    LockinResult,
    ModeSensitivity,
    NoiseModel,
    PhotonBudget,
    demod_signal,
    min_detectable_rotation,
    montecarlo_lockin,
    sensitivity_table,
    shot_noise_level,
    snr,
)
from .fields import (
    FieldGrid,
    J1_PEAK,
    J1_PEAK_X,
    PhaseMap,
    first_order_extract,
    gaussian_illumination,
    hologram_phase,
    mode_purity,
    modulate,
    overlap,
    read_field_binary,
    rotate_field,
    synthesize_hg_field,
    synthesize_superposition,
    write_field_binary,
    write_phase_pgm,
)
from .fisher import (
    BoundResult,
    CarrierReadout,
    Parameter,
    carrier_projection_povm,
    cfi_povm,
    hamiltonian_bound,
    qfi_mixed_closed_form,
    qfi_mixed_monitor,
    qfi_mixed_quadratic,
    qfi_pure_numeric,
    qfi_rotation_exact,
    qfi_weak_approx,
)
from .modes import (
    ModeIndex,
    ModeState,
    hermite_eval,
    hg_factor,
    momentum_variance_x,
    oam_variance,
)
from .weak import (
    Coupling,
    Generator,
    PauliAxis,
    QubitState,
    WeakScenario,
    carrier_state,
    final_pointer_exact,
    pauli_weak_values,
    post_selected_pair,
    weak_value,
)

__version__ = "0.1.0"

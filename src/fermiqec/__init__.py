"""Sparse simulator for error-corrected fermionic registers.

Number-conserving hardware gates plus a reference bank of atoms give access
to dressed fermionic ladder operators; on top of those sit a three-mode
repetition code with ancilla-gadget syndrome readout, logical gates, a noisy
exchange-interferometry experiment, and a cross-checking pair of state
representations (full and reference-compressed).
"""

from .backend import DualRunReport, compress, decompress, run_circuit, run_dual
from .codes import (
    KLReport,
    RepetitionCode,
    SteaneCode,
    apply_logical_C,
    apply_logical_C_dagger,
    apply_loss_kraus,
    apply_stabilizer,
    kl_check,
    logical_basis_state,
    prepare_logical_vacuum,
    project_codespace,
    random_codespace_state,
    stabilizer_expectation,
    steane_projector_check,
)
from .gates import (
    DensityPhase,
    FSwap,
    LocalPhase,
    MeasureModeNumber,
    MeasureQubit,
    QubitGate,
    Tunneling,
    apply_fswap,
    apply_local_phase,
    apply_qubit_gate,
    apply_tunneling,
    measure_mode_number,
    measure_qubit,
    number_expectation,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    PointResult,
    run_experiment,
    sample_phase_error_layer,
)
from .logical import (
    controlled_tunneling_logical,
    density_gadget_logical,
    fswap_logical,
    phase_gadget_logical,
    quarter_turn_tunneling_gadget,
    tunneling_logical,
)
from .qec import (
    SYNDROME_TABLE,
    QecRound,
    decode,
    generate_syndrome_table,
    measure_reference_and_recover,
    measure_stabilizer,
    qec_round,
)
from .reference import (
    MajoranaRotation,
    ReferencePhase,
    apply_c,
    apply_c_dagger,
    apply_D_decomposed,
    apply_D_exact,
    apply_majorana,
    apply_R,
    apply_R_dagger,
    h_basis_state,
    is_in_H,
    random_h_state,
)
from .registers import RegisterLayout, jw_sign
from .states import SparseState, add_states, basis_state, difference_norm, random_full_state
from .stats import clopper_pearson

__version__ = "0.1.0"

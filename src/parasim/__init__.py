"""parasim: digital simulation of driven para-fermion and para-boson
oscillators on a one-hot qubit register."""

from .algebra import (
    ParaSpec,
    FockOperatorSet,
    TruncationReport,
    beta_constant,
    build_fock_ops,
    displaced_vacuum_exact,
    ladder_amplitude,
    verify_truncation_identity,
)
from .mapping import (
    GeneratorBasis,
    PauliString,
    PauliSum,
    build_xy_hamiltonian,
    check_jacobi,
    commutator_table,
    encode_fock,
    generator_family,
)
from .factorize import (
    FactorizationError,
    GammaVector,
    solve_displacement,
)
from .circuits import (
    Circuit,
    Gate,
    compile_displacement,
    compile_pauli_exp,
    gate_counts,
    optimize_cancel,
)
from .engine import (
    NoiseModel,
    ShotSet,
    apply_circuit,
    run_and_sample,
)
from .experiments import (
    NumberStats,
    SeriesPoint,
    cutoff_study,
    exact_number_stats,
    number_stats,
    postselect,
    run_pb_mandel_sweep,
    run_pf_evolution,
    spam_correct,
    uncertainty,
)

__version__ = "0.1.0"

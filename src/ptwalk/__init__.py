"""Gain-loss discrete-time quantum walks on a line.

Build non-unitary walk operators with balanced gain and loss, compute
their bulk topological numbers and finite-system spectra, follow
interface eigenvalues through exceptional points under symmetry
breaking perturbations and disorder, and infer interface mode counts
from the Fourier spectrum of time-evolved return probabilities.
"""

from .bulk import (
    BlochCoefficients,
    Dispersion,
    GapStatus,
    PhaseDiagram,
    TopologicalNumber,
    bloch_coefficients,
    bloch_fold,
    bulk_gap_status,
    dispersion,
    phase_diagram,
    quasienergy,
    winding_number,
)
from .dynamics import (
    EdgeInference,
    EvolutionTrace,
    FourierSpectrum,
    Mode,
    detect_modes,
    dft,
    evolve,
    infer_edge_count,
    persistence_parity,
)
from .errors import (
    BracketError,
    GapClosedError,
    PtwalkError,
    TrackingError,
)
from .operators import (
    CoinProfile,
    Lattice,
    WalkOperator,
    WalkSpec,
    build_walk_operator,
    disorder_offset,
    symmetric_frame,
)
from .perturbation import (
    DeltaSweepResult,
    DisorderEnsemble,
    ExceptionalPoint,
    delta_sweep,
    disorder_ensemble,
    find_exceptional_point,
)
from .spectrum import (
    EdgeCountMap,
    Eigenpair,
    SpectrumResult,
    classify_states,
    edge_count_map,
    eigendecompose,
)

from . import _pool

# one BLAS thread in every process: the bytes a dense solve writes depend
# on OpenBLAS's thread count, and forked pool workers inherit this one
for _set_threads in _pool._openblas():
    _set_threads(1)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

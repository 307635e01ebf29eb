"""Burnside-ring cryptosystem over O(2): exact ring arithmetic, the
involutory-multiplier cipher, its cryptanalysis, and lattice-recurrence
verification oracles."""

from .attacks import (
    AmbiguityResult,
    CpaExperiment,
    CpaResult,
    InconsistentPairsError,
    KpaResult,
    OperatorMatrix,
    OracleMismatchError,
    WindowMarks,
    ambiguous_family,
    ambiguous_key,
    choose_probe,
    cpa_distinguish,
    generic_plaintext_solver,
    known_plaintext_solver,
    operator_matrix,
    run_ambiguity_demo,
    run_cpa_experiment,
    run_kpa_demo,
)
from .burnside import (
    IDENTITY,
    O2,
    SO2,
    ZERO,
    BurnsideElement,
    D,
    ElementFormatError,
    Generator,
    KeySet,
    basic_degree,
    key_coeff,
    key_coeff_bruteforce,
    key_coeff_fold,
    key_coeff_mobius,
    key_element,
)
from .cipher import (
    Ciphertext,
    FileFormatError,
    MessageError,
    SupportWindowError,
    decode_text,
    decrypt,
    encode_text,
    encrypt,
    read_ciphertext_file,
    read_key_file,
    ring_decode,
    ring_encode,
    write_ciphertext_file,
    write_key_file,
)
from .degree import (
    FixedPointTable,
    LatticeConsistencyError,
    LatticeData,
    basic_degree_recurrence,
    fixed_point_dims,
    linear_iso_degree,
    o2_lattice,
    recurrence_mul,
)

__version__ = "0.1.0"

"""Burnside-ring cryptosystem over O(2): exact ring arithmetic, the
involutory-multiplier cipher, its cryptanalysis, and lattice-recurrence
verification oracles.

The top level exports production names only.  Oracles and the tests'
bridges between elements and window vectors are imported from their
modules: `degree`, `verify`, `burnside` (`key_coeff`, `key_coeff_mobius`,
`key_coeff_bruteforce`, `ring_encode`, `ring_decode`) and `attacks`
(`generic_plaintext_solver`, `operator_matrix`)."""

from .attacks import (
    AmbiguityResult,
    CpaExperiment,
    CpaGame,
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
    known_plaintext_solver,
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
    key_coeff_fold,
    key_element,
)
from .cipher import (
    Ciphertext,
    FileFormatError,
    MessageError,
    decode_text,
    decrypt,
    encode_text,
    encrypt,
    read_ciphertext_file,
    read_key_file,
    read_message_file,
    write_ciphertext_file,
    write_key_file,
)

__version__ = "0.1.0"

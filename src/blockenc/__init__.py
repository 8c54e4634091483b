"""Block-encoding compiler: sparse complex matrices to gate-level circuits."""

from .assignment import (FixedIndexPolicy, build_target_set, hamming, mode_pattern,
                         solve_assignment)
from .errors import BlockencError
from .ingest import OperationPlan, SparseMatrix, analyze, load_matrix, save_matrix
from .index_map import (delete_flip, delete_group, insert_stage, is_reducible,
                        shift_cascade, shift_group)
from .ir import (Circuit, Gate, RegisterLayout, circuit_unitary, export_json,
                 export_text, import_json, import_text, mcx, phase, ry, x)
from .permute import basis_swap, permute_circuit, route_permutation
from .pipeline import CompileConfig, EncodedCircuit, compile_matrix, format_stats
from .state_prep import synthesize_prep, synthesize_unprep
from .verify import VerificationReport, encoded_block, verify_circuit

__version__ = "0.1.0"

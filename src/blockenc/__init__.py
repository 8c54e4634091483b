"""Block-encoding compiler: sparse complex matrices to explicit gate circuits."""

from .assignment import (Bijection, FixedIndexPolicy, build_target_set, hamming,
                         mode_pattern, solve_assignment)
from .errors import BlockencError
from .ingest import (DataVector, OperationPlan, SignVector, SparseMatrix,
                     extract_data_vectors, load_matrix, plan_operations,
                     save_matrix)
from .index_map import (delete_flip, delete_group, insert_stage, shift_cascade,
                        shift_group)
from .ir import (Circuit, Gate, RegisterLayout, circuit_unitary, export_json,
                 export_text, gate_unitary, import_json, import_text, mcx,
                 phase, ry, x)
from .mcx import ControlSet, expand_mcx, is_reducible, reduce_composition
from .permute import basis_swap, permute_circuit, permute_inverse, route_permutation
from .pipeline import (CompileConfig, EncodedCircuit, compile_matrix,
                       format_stats, stats_report)
from .state_prep import synthesize_prep, synthesize_unprep
from .verify import VerificationReport, extract_block, verify, verify_circuit

__version__ = "0.1.0"

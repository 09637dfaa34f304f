"""Exact solvers for finite decentralized stochastic control with networked,
delayed information sharing."""

from .belief import (
    ConnectionTerm,
    InformationState,
    connection_term,
    expected_stage_cost,
    factorization_check,
    hat_cost,
    hat_dynamics,
    hat_observation,
    initial_information_state,
    update_information_state,
)
from .errors import WomError
from .infostruct import InfoStructure, VariableId
from .netgraph import (
    DelayMatrix,
    InfoPath,
    NetworkSpec,
    compute_delay_matrix,
    information_path,
    validate_network,
)
from .prescription import (
    CompletePrescription,
    Prescription,
    PrescriptionStrategy,
    apply_prescription,
    control_law_to_strategy,
    count_strategies,
    enumerate_prescriptions,
    joint_control_strategy,
    strategy_to_control_law,
    translate_strategy,
)
from .solver import (
    SolveResult,
    compare_agents,
    evaluate_prescription_strategy,
    solve_brute_force,
    solve_common_info_dp,
    solve_prescription_dp,
    solve_prescription_static,
)
from .sysmodel import (
    ControlStrategy,
    CostReport,
    Instance,
    SystemSpec,
    exact_strategy_cost,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    monte_carlo_cost,
    permute_instance,
    validate_instance,
)

__version__ = "0.1.0"

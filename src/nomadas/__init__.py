"""Power-minimizing resource allocation for NOMA over distributed antennas.

The package simulates a single downlink cell where remote radio heads
jointly serve users on OFDM subcarriers. Allocation algorithms assign each
user subcarriers and transmit powers so that every user's rate demand is
met exactly with the least total transmit power, optionally multiplexing
two users per subcarrier through successive interference cancellation.
"""

from .allocators import (ALGORITHMS, AlgorithmConfig, AllocationResult,
                         AllocationState, Pair, run_algorithm,
                         run_algorithms)
from .audit import AuditReport, audit_result, run_invariant_audit
from .channel import ChannelTensor, generate_channel, pathloss_gain
from .harness import (AggregateRow, RunConfig, TrialRecord, aggregate,
                      apply_sweep, read_csv, run_monte_carlo, run_trial,
                      trial_seed, write_csv)
from .mutual_sic import (dpa_adjust, mutual_sic_feasible, power_window,
                         rate_condition_terms)
from .optimal_pa import (OpaResult, mutual_power_optimum,
                         optimal_power_allocation)
from .scenario import Scenario, drop_users, hexagon_contains, load_scenario, \
    place_rrhs
from .solver import SolveReport, solve_system
from .waterfill import (InfeasibleWaterline, ftpa_power, rate_second,
                        rate_single, waterline_add, waterline_from_rate,
                        waterline_rate_shift)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS", "AlgorithmConfig", "AllocationResult", "AllocationState",
    "AggregateRow", "AuditReport", "ChannelTensor", "InfeasibleWaterline",
    "OpaResult", "Pair", "RunConfig",
    "Scenario", "SolveReport", "TrialRecord",
    "aggregate", "apply_sweep", "audit_result",
    "dpa_adjust", "drop_users", "ftpa_power", "generate_channel",
    "hexagon_contains", "load_scenario", "mutual_power_optimum",
    "mutual_sic_feasible", "optimal_power_allocation",
    "pathloss_gain", "place_rrhs", "power_window", "rate_condition_terms",
    "rate_second", "rate_single", "read_csv", "run_algorithm",
    "run_algorithms", "run_invariant_audit", "run_monte_carlo", "run_trial",
    "solve_system", "trial_seed", "waterline_add", "waterline_from_rate",
    "waterline_rate_shift", "write_csv",
]

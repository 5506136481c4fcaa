"""chainflow: joint forwarding and computation offloading for service-chain
applications on arbitrary network topologies, with congestion-dependent costs.
"""

from .errors import (CapacityExceeded, ChainflowError, LocalComputationInfeasible,
                     LoopDetected, NoFeasibleStrategy, NotConverged, TooLarge,
                     ZeroTrafficNode)
from .network import (Application, CostSpec, Graph, Linear, Queue, Scenario,
                      default_packet_sizes, eval_cost, eval_cost_prime,
                      generate_topology, sample_scenario, topology_file)
from .flows import (FlowState, Strategy, compute_flows, detect_loops,
                    feasible_start, init_strategy, max_conservation_residual,
                    validate_strategy)
from .marginals import (BlockedSets, CheckResult, blocked_sets, check_kkt,
                        check_sufficient, geodesic_probe, modified_marginals,
                        traffic_marginals)
from .gp import GpConfig, GpResult, adapt, run_gp
from .oracle import (BruteResult, FlowVector, OracleResult, enumerate_bruteforce,
                     flow_cost, solve_flow_domain, strategy_from_flows)
from .baselines import BASELINES, BaselineResult, lcof, lpr_sc, spoc
from .congestion import (AlphaFair, CcResult, ExtendedScenario, LinearUtility,
                         check_sufficient_cc, extend_scenario, extended_cost,
                         run_gp_cc, utility_eval, utility_minus_cost,
                         utility_prime, write_admission_report)
from .metrics import Metrics, hop_metrics
from .experiments import (ALGORITHMS, TABLE_ROWS, ExperimentConfig,
                          build_scenario, median, rate_scale_sweep,
                          run_experiment, size_ratio_sweep, table_row,
                          trend_inversions)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

"""Seedable simulator of federated learning over air-ground integrated
networks: FedAvg among terrestrial users coordinated by an aerial parameter
server, with a physical link model, per-round energy accounting and
hovering-placement optimization."""

from .channel import (ChannelParams, db_to_linear, dbm_to_watts, link_rates,
                      per_client_bandwidth, tx_time)
from .data import Dataset, load_idx, partition, synth_blobs
from .energy import EnergyLedger, UavProfile, user_compute_energy
from .fedavg import FlConfig, aggregate, run_round, select_clients
from .models import (Hyperparams, ModelSpec, evaluate, init_model, param_count,
                     train_cohort)
from .placement import (Area, Placement, SolverTrace, min_sum_dist, objective,
                        objective_grad, random_placement)
from .scenario import (BlobSource, ExperimentResult, IdxSource, RepeatResult,
                       RoundMetrics, Scenario, ShapeSource, Topology,
                       build_topology, place_server, run_repeat, run_scenario)

__version__ = "0.1.0"

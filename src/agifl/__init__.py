"""Seedable simulator of federated learning over air-ground integrated
networks: FedAvg among terrestrial users coordinated by an aerial parameter
server, with a physical link model, per-round energy accounting and
hovering-placement optimization."""

from .channel import (ChannelParams, LinkBudget, db_to_linear, dbm_to_watts,
                      link_rate, link_rates, per_client_bandwidth, tx_time, watts_to_dbm)
from .data import Dataset, load_idx, partition, synth_blobs
from .energy import (EnergyLedger, UavProfile, round_duration, uav_round_energy,
                     user_compute_energy, user_compute_time)
from .fedavg import FlConfig, aggregate, run_round, select_clients
from .models import (Hyperparams, ModelSpec, evaluate, init_model,
                     local_train, loss_and_grad, param_count, train_cohort)
from .placement import (Area, Placement, SolverTrace, min_sum_dist, objective,
                        objective_grad, random_placement)
from .scenario import (BlobSource, ExperimentResult, IdxSource, RepeatResult,
                       RoundMetrics, Scenario, ShapeSource, Topology,
                       build_topology, place_server, run_repeat, run_scenario)

__version__ = "0.1.0"

import math
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from agifl import fedavg as fedavg_module
from agifl import scenario as scenario_module
from agifl.channel import ChannelParams
from agifl.data import partition
from agifl.energy import UavProfile
from agifl.fedavg import FlConfig, cohort_size, select_clients
from agifl.models import Hyperparams, ModelSpec, param_count
from agifl.oracles import (rate_direct, round_duration, tx_time, uav_round_energy,
                           user_compute_energy, user_compute_time)
from agifl.placement import Area, min_sum_dist, random_placement
from agifl.scenario import (FORMS, PLACEMENT_SCHEMES, ROUND_COLUMNS, BlobSource, Scenario,
                            ShapeSource, Topology, build_topology, link_terms, load_corpus,
                            load_source, place_server, run_repeat, run_scenario, user_terms)
from agifl.seeding import child_seed, rng


FLOAT_COLUMNS = [name for name in ROUND_COLUMNS.names if name != "selected"]


def assert_same_metrics(got, want):
    """Every float column equal (a NaN equal to a NaN), `selected` cohort by
    cohort: an object column's `==` compares the cohorts elementwise."""
    assert len(got) == len(want)
    for name in FLOAT_COLUMNS:
        assert np.array_equal(got[name], want[name], equal_nan=True), name
    for a, b in zip(got.selected, want.selected):
        assert np.array_equal(a, b)


def small_scenario(**kwargs):
    defaults = dict(
        fl=FlConfig(num_users=6, fraction=0.5,
                    hyper=Hyperparams(local_epochs=1, batch_size=10),
                    max_rounds=4),
        source=BlobSource(num_classes=3, samples_per_class=30,
                          test_samples_per_class=10, input_dim=4, spread=0.1),
        partition_scheme="iid",
        repeats=2,
        master_seed=5,
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


def repeat_arrays(sc, repeat=0):
    """`user_terms` and `link_terms` on the geometry, shards and payload
    `run_repeat` uses: compute time and energy, upload time and energy and
    receive time."""
    seed = sc.master_seed
    topo = build_topology(sc, rng(seed, repeat, "positions"))
    placement = place_server(sc, topo, rng(seed, repeat, "placement"))
    train, _ = load_source(sc.source, child_seed(seed, "data"))
    shards = partition(train, sc.fl.num_users, scheme=sc.partition_scheme,
                       shards_per_user=sc.shards_per_user,
                       seed=child_seed(seed, repeat, "partition"))
    spec = ModelSpec(sc.model_kind, train.input_dim, train.num_classes, sc.hidden_dim)
    payload = param_count(spec) * sc.channel.payload_bits_per_param
    return (*user_terms(sc, repeat, np.diff(shards[1]), train.bits_per_sample),
            *link_terms(sc, topo.dist_sq(placement), payload))


class TestTopology:
    def test_g2a_fixed_server_position(self):
        sc = small_scenario(placement_scheme="fixed", fixed_position=(500.0, 500.0))
        topo = build_topology(sc, rng(0, "pos"))
        placement = place_server(sc, topo, rng(0, "placement"))
        assert (placement.x, placement.y, topo.server_alt) == (500.0, 500.0, 100.0)
        assert np.all(topo.user_alt == 0.0)
        assert np.all(topo.vertical_offsets() == 100.0)

    def test_a2a_links_are_horizontal(self):
        sc = small_scenario(form="a2a")
        topo = build_topology(sc, rng(1, "pos"))
        assert np.all(topo.vertical_offsets() == 0.0)
        assert np.all(topo.dist_sq(place_server(sc, topo, rng(1, "placement"))) > 0)

    def test_topology_is_fixed(self):
        topo = build_topology(small_scenario(), rng(6, "pos"))
        with pytest.raises(FrozenInstanceError):
            topo.server_alt = 0.0

    def test_a2g_server_at_ground_offset(self):
        sc = small_scenario(form="a2g", ground_height=10.0)
        topo = build_topology(sc, rng(2, "pos"))
        assert topo.server_alt == 10.0
        assert np.all(topo.user_alt == 100.0)
        assert np.all(topo.vertical_offsets() == 90.0)

    def test_mixed_has_both_layers(self):
        sc = small_scenario(form="mixed", fl=FlConfig(num_users=40, fraction=0.1,
                                                      max_rounds=1))
        topo = build_topology(sc, rng(3, "pos"))
        assert set(np.unique(topo.user_alt)) == {0.0, 100.0}

    def test_min_sum_dist_matches_placement_module(self):
        users = np.array([(100.0, 100.0), (300.0, 100.0), (200.0, 400.0),
                          (150.0, 250.0), (250.0, 250.0), (180.0, 300.0)])
        topo = Topology(user_xy=users, user_alt=np.zeros(6), server_alt=100.0)
        placement = place_server(small_scenario(), topo, rng(4, "placement"))
        direct = min_sum_dist(users, 100.0)
        assert placement.x == direct.x
        assert placement.y == direct.y

    def test_positions_within_area(self):
        sc = small_scenario(area=Area(200.0, 50.0))
        topo = build_topology(sc, rng(5, "pos"))
        assert topo.user_xy[:, 0].max() <= 200.0
        assert topo.user_xy[:, 1].max() <= 50.0


class TestRunScenario:
    def test_zero_rounds(self):
        result = run_scenario(small_scenario(fl=FlConfig(num_users=6, fraction=0.5,
                                                         max_rounds=0), repeats=1))
        assert result.common_rounds == 0
        assert len(result.repeats[0].metrics) == 0
        assert result.halt_reasons == ["max_rounds"]

    def test_bitwise_deterministic(self):
        sc = small_scenario()
        a = run_scenario(sc)
        b = run_scenario(sc)
        for ra, rb in zip(a.repeats, b.repeats):
            assert_same_metrics(ra.metrics, rb.metrics)
            assert ra.halt_reason == rb.halt_reason
        assert np.array_equal(a.mean("cum_uav_energy"), b.mean("cum_uav_energy"))

    def test_parallel_jobs_match_serial(self):
        sc = small_scenario(repeats=3)
        serial = run_scenario(sc, jobs=1)
        parallel = run_scenario(sc, jobs=3)
        assert len(serial.repeats) == len(parallel.repeats) == 3
        for ra, rb in zip(serial.repeats, parallel.repeats):
            assert_same_metrics(ra.metrics, rb.metrics)

    def test_metric_sanity(self):
        sc = small_scenario()
        result = run_scenario(sc)
        for rep in result.repeats:
            cum = 0.0
            for m in rep.metrics:
                assert m.duration > 0
                assert 0.0 <= m.test_acc <= 1.0
                assert m.uav_energy > 0
                cum += m.uav_energy
                assert m.cum_uav_energy == pytest.approx(cum, rel=1e-12)
            # round k is metrics[k - 1]: no budget, so every round has its entry
            assert len(rep.metrics) == sc.fl.max_rounds

    def test_paired_seed_energy_dominance(self):
        base = small_scenario(train=False, repeats=4,
                              fl=FlConfig(num_users=20, fraction=0.1, max_rounds=10))
        opt = run_scenario(base)
        rand = run_scenario(replace(base, placement_scheme="random"))
        assert np.all(opt.mean("cum_uav_energy") < rand.mean("cum_uav_energy"))
        for ro, rr in zip(opt.repeats, rand.repeats):
            assert ro.metrics[-1].cum_uav_energy < rr.metrics[-1].cum_uav_energy

    def test_budget_halts_without_counting_partial_round(self):
        probe = run_scenario(small_scenario(train=False, repeats=1))
        per_round = probe.repeats[0].metrics[0].uav_energy
        budget = 2.5 * per_round
        result = run_scenario(small_scenario(train=False, repeats=1,
                                             energy_budget=budget))
        rep = result.repeats[0]
        assert rep.halt_reason == "budget"
        assert rep.metrics[-1].cum_uav_energy <= budget
        assert len(rep.metrics) < 4

    def test_budget_below_first_round_yields_zero_rounds(self):
        result = run_scenario(small_scenario(train=False, repeats=1,
                                             energy_budget=1e-9))
        assert len(result.repeats[0].metrics) == 0
        assert result.halt_reasons == ["budget"]

    def test_eval_stride(self):
        result = run_scenario(small_scenario(repeats=1, eval_stride=2))
        metrics = result.repeats[0].metrics
        assert math.isnan(metrics[0].test_acc)
        assert not math.isnan(metrics[1].test_acc)

    def test_broadcast_all_slows_the_downlink(self):
        selective = run_scenario(small_scenario(train=False, repeats=1))
        everyone = run_scenario(small_scenario(train=False, repeats=1,
                                               broadcast_all=True))
        for a, b in zip(selective.repeats[0].metrics, everyone.repeats[0].metrics):
            assert b.duration >= a.duration

    def test_shape_source_is_timing_only(self):
        with pytest.raises(ValueError):
            small_scenario(source=ShapeSource(num_samples=600))
        sc = small_scenario(source=ShapeSource(num_samples=600, input_dim=784,
                                               num_classes=10),
                            train=False, repeats=1)
        result = run_scenario(sc)
        assert result.common_rounds == 4
        assert all(math.isnan(m.test_acc) for m in result.repeats[0].metrics)

    def test_timing_only_payload_and_round_timing(self, monkeypatch):
        # logistic on 784/10 -> 7850 params x 32 bits, all nodes co-located
        # under the server: every timing term is hand-computable up to the
        # seeded CPU frequency in [1.8, 2.0] GHz
        sc = small_scenario(source=ShapeSource(num_samples=600, input_dim=784,
                                               num_classes=10),
                            train=False, repeats=1,
                            placement_scheme="fixed", fixed_position=(0.0, 0.0))
        monkeypatch.setattr(scenario_module, "build_topology", lambda sc, generator: replace(
            build_topology(sc, generator), user_xy=np.zeros((6, 2))))
        rep = run_repeat(sc, 0)
        t_down = 251200 / (1e6 * math.log2(11))
        t_up = 251200 / ((1e6 / 3) * math.log2(101))
        comp_cycles = 1 * 100 * 6280 * 10  # epochs x shard x bits x cycles
        lo = t_down + t_up + comp_cycles / 2.0e9
        hi = t_down + t_up + comp_cycles / 1.8e9
        for m in rep.metrics:
            assert lo <= m.duration <= hi
            expected_energy = 100.0 * m.duration + 0.01 * t_down
            assert m.uav_energy == pytest.approx(expected_energy, rel=1e-12)

    def test_aerial_clients_pay_hover_energy(self):
        sc = small_scenario(form="a2g", train=False, repeats=1)
        rep = run_repeat(sc, 0)
        e_tx = repeat_arrays(sc)[3]
        for u in range(sc.fl.num_users):
            spent = 0.0
            for m in rep.metrics:  # tx, no compute, hover for the whole round
                if u in m.selected:
                    spent = spent + e_tx[u] + 0.0 + sc.uav.propulsion_power * m.duration
            assert rep.ledger.total(f"user:{u}") == spent

    def test_initial_flight_energy_counts_toward_budget(self):
        probe = run_scenario(small_scenario(train=False, repeats=1))
        full = probe.repeats[0].metrics[-1].cum_uav_energy
        flight = 0.6 * full
        charged = run_scenario(small_scenario(train=False, repeats=1,
                                              energy_budget=full,
                                              initial_flight_energy=flight))
        rep = charged.repeats[0]
        assert rep.halt_reason == "budget"
        assert len(rep.metrics) < len(probe.repeats[0].metrics)
        assert rep.ledger.total("uav") <= full

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_diverging_learning_rate_raises(self, jobs):
        sc = small_scenario(fl=replace(small_scenario().fl, hyper=Hyperparams(
            learning_rate=1.7976931348623157e308, local_epochs=1)))
        with pytest.raises(ValueError, match=r"^learning_rate 1\.7976931348623157e\+308 "
                                             r"diverges: repeat 0's .* after round 1$"):
            run_scenario(sc, jobs=jobs)
        # the refused model is not stored
        records = scenario_module._store(scenario_module._federation(sc)).values()
        assert all(record.tests == [] for record in records)

    def test_per_user_budget_entity(self):
        sc = small_scenario(train=False, repeats=1)
        user = run_repeat(sc, 0).metrics[0].selected[0]
        spent = float(repeat_arrays(sc)[3][user])
        capped = run_scenario(replace(sc, budget_entity=f"user:{user}",
                                      energy_budget=spent / 2))
        assert capped.repeats[0].halt_reason == "budget"
        assert len(capped.repeats[0].metrics) == 0

    def test_user_compute_energy_opt_in(self):
        off_sc = small_scenario(train=False, repeats=1)
        on_sc = replace(off_sc, kappa=1e-28)
        off, on = run_repeat(off_sc, 0), run_repeat(on_sc, 0)
        assert not repeat_arrays(off_sc)[1].any()
        assert repeat_arrays(on_sc)[1].all()
        selected = {u for m in off.metrics for u in m.selected}
        for u in range(6):
            spent_off, spent_on = off.ledger.total(f"user:{u}"), on.ledger.total(f"user:{u}")
            assert spent_on > spent_off if u in selected else spent_on == spent_off == 0.0

    def test_mean_best_accuracy_reported(self):
        result = run_scenario(small_scenario())
        assert 0.0 <= result.mean_best_accuracy_within(math.inf) <= 1.0

    def test_server_tx_power_sets_downlink_rate_and_energy(self):
        low = run_repeat(small_scenario(train=False), 0)
        high = run_repeat(small_scenario(train=False, uav=UavProfile(tx_power=1.0)), 0)
        for a, b in zip(low.metrics, high.metrics):
            tx_low = a.uav_energy - 100.0 * a.duration
            tx_high = b.uav_energy - 100.0 * b.duration
            t_down_low, t_down_high = tx_low / 0.01, tx_high / 1.0
            assert t_down_high < t_down_low  # a faster downlink
            assert tx_high != tx_low
        assert all(b.duration < a.duration for a, b in zip(low.metrics, high.metrics))

    def test_budget_total_tracks_the_budget_entity(self):
        uav = run_repeat(small_scenario(train=False, initial_flight_energy=0.5), 0)
        assert [m.budget_total for m in uav.metrics] == [m.cum_uav_energy
                                                         for m in uav.metrics]
        sc = small_scenario(train=False, budget_entity="user:2")
        user, e_tx = run_repeat(sc, 0), repeat_arrays(sc)[3]
        running = np.cumsum([e_tx[2] if 2 in m.selected else 0.0 for m in user.metrics])
        assert running[-1] > 0
        assert [m.budget_total for m in user.metrics] == running.tolist()
        assert user.metrics[-1].budget_total == user.ledger.total("user:2")


class TestValidation:
    def test_bad_form(self):
        with pytest.raises(ValueError):
            small_scenario(form="g2g")

    def test_bad_scheme(self):
        with pytest.raises(ValueError):
            small_scenario(placement_scheme="kmeans")

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError, match="unknown data source str"):
            small_scenario(source="blobs")

    def test_bad_repeats(self):
        with pytest.raises(ValueError):
            small_scenario(repeats=0)

    def test_partition_checked_when_built(self):
        with pytest.raises(ValueError, match="unknown partition scheme 'bogus'"):
            small_scenario(partition_scheme="bogus")
        with pytest.raises(ValueError, match="shards_per_user must be >= 1"):
            small_scenario(partition_scheme="sharded", shards_per_user=0)
        small_scenario(partition_scheme="iid", shards_per_user=0)  # iid deals no shards

    def test_seed_fits_child_seed(self):
        for seed in (2 ** 127, -2 ** 127 - 1, 10 ** 40):
            with pytest.raises(ValueError, match="master_seed must be in"):
                small_scenario(master_seed=seed)
        for seed in (2 ** 127 - 1, -2 ** 127):
            child_seed(small_scenario(master_seed=seed).master_seed, 0, "data")

    @pytest.mark.parametrize("entity", ["uva", "user:6", "user:-1", "user:x", "user", ""])
    def test_unknown_budget_entity(self, entity):
        with pytest.raises(ValueError, match="unknown energy entity"):
            small_scenario(budget_entity=entity, energy_budget=5.0)

    def test_nan_energy_budget_rejected(self):
        with pytest.raises(ValueError, match="energy_budget must be positive"):
            small_scenario(energy_budget=math.nan)
        small_scenario(energy_budget=math.inf)  # no budget

    def test_known_budget_entities(self):
        small_scenario(budget_entity="uav")
        small_scenario(budget_entity="user:0")
        small_scenario(budget_entity="user:5")

    def test_per_client_compute_checks(self):
        with pytest.raises(ValueError, match="cycles_per_bit"):
            small_scenario(cycles_per_bit=0)
        for cpu_range in [(-1.0, 2e9), (0.0, 2e9), (-1.0, -1.0), (2e9, 1e9)]:
            with pytest.raises(ValueError, match="cpu_freq_range"):
                small_scenario(cpu_freq_range=cpu_range)
        small_scenario(cpu_freq_range=(2e9, 2e9))
        small_scenario(cpu_freq_range=(1e9, 1.3e154))

    @pytest.mark.parametrize("position", [(math.nan, 0.0), (0.0, math.inf)])
    def test_fixed_position_must_be_finite(self, position):
        with pytest.raises(ValueError, match="fixed_position must be finite"):
            small_scenario(placement_scheme="fixed", fixed_position=position)

    # the last two: the square of the maximum overflows
    @pytest.mark.parametrize("cpu_range", [(1e9, math.inf), (math.inf, math.inf),
                                           (1e9, 1.35e154), (1e199, 1e200)])
    def test_cpu_freq_range_must_be_finite(self, cpu_range):
        with pytest.raises(ValueError, match="cpu_freq_range must satisfy"):
            small_scenario(cpu_freq_range=cpu_range)

    def test_model_architecture_checked_with_the_scenario(self):
        with pytest.raises(ValueError, match="unknown model kind 'mpl'"):
            small_scenario(model_kind="mpl")
        with pytest.raises(ValueError, match="hidden_dim"):
            small_scenario(model_kind="mlp", hidden_dim=0)
        small_scenario(model_kind="logistic", hidden_dim=0)  # no hidden layer to size

    @pytest.mark.parametrize("field, bad", [
        ("initial_flight_energy", -3.0), ("ground_height", -10.0), ("kappa", -1.0),
        ("aerial_fraction", 1.5), ("aerial_fraction", -1.0),
    ] + [(field, bad) for field in ("initial_flight_energy", "ground_height", "kappa",
                                    "aerial_fraction") for bad in (math.nan, math.inf)])
    def test_physics_out_of_range(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be"):
            small_scenario(**{field: bad})

    @pytest.mark.parametrize("kwargs", [
        dict(area=Area(width=1e200)), dict(area=Area(height=1e155)),
        dict(uav=UavProfile(altitude=1e200)), dict(ground_height=1e160, form="a2g"),
        dict(area=Area(width=1.2e154, height=1.2e154)),
    ], ids=["width", "height", "flying-altitude", "ground-altitude", "summed-squares"])
    def test_overflowing_geometry_rejected(self, kwargs):
        with pytest.raises(ValueError, match="squared extent overflows"):
            small_scenario(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(area=Area(width=1e150)),
        dict(uav=UavProfile(altitude=1e150)),
        dict(channel=ChannelParams(noise=1e27)),
        dict(placement_scheme="fixed", fixed_position=(1e200, 0.0)),
        dict(placement_scheme="fixed", fixed_position=(-4e10, 0.0)),
    ], ids=["area", "altitude", "noise", "fixed-position", "negative-fixed-position"])
    def test_geometry_with_a_zero_rate_rejected(self, kwargs):
        # the SNR at the longest link adds nothing to 1, so its rate is 0
        with pytest.raises(ValueError, match="rate is zero"):
            small_scenario(train=False, **kwargs)

    def test_longest_link_with_a_positive_rate_runs(self):
        # at 1e10 m the SNR is still 1 + 5e-16, so every rate is positive
        sc = small_scenario(train=False, source=ShapeSource(), area=Area(1e10, 1e10))
        durations = run_scenario(sc).mean("duration")
        assert len(durations) and np.isfinite(durations).all()

    def test_physics_range_ends_are_legal(self):
        small_scenario(initial_flight_energy=0.0, ground_height=0.0, kappa=0.0,
                       aerial_fraction=0.0)
        small_scenario(aerial_fraction=1.0)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(num_classes=1), "at least 2 classes"),
        (dict(samples_per_class=0), "sample per class"),
        (dict(test_samples_per_class=0), "sample per class"),
        (dict(input_dim=0), "input_dim >= 1"),
        (dict(spread=0.0), "positive spread"),
        (dict(spread=math.nan), "positive spread"),
    ])
    def test_blob_source_checks(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            BlobSource(**kwargs)

    def test_shape_source_checks(self):
        with pytest.raises(ValueError, match="input_dim >= 1"):
            ShapeSource(input_dim=0)
        with pytest.raises(ValueError, match="2 <= classes <= num_samples"):
            ShapeSource(num_classes=1)
        ShapeSource(num_samples=2, input_dim=1, num_classes=2)

    @pytest.mark.parametrize("source, kwargs, rows, message", [
        (BlobSource, dict(num_classes=2 ** 63), 2 ** 63 * 600,
         "num_classes \\* samples_per_class"),
        (BlobSource, dict(num_classes=2 ** 62), 2 ** 62 * 600,
         "num_classes \\* samples_per_class"),
        (BlobSource, dict(samples_per_class=2 ** 63), 10 * 2 ** 63,
         "num_classes \\* samples_per_class"),
        (BlobSource, dict(test_samples_per_class=2 ** 63), 10 * 2 ** 63,
         "num_classes \\* test_samples_per_class"),
        (BlobSource, dict(num_classes=2, samples_per_class=2 ** 52, input_dim=127), 2 ** 53,
         "num_classes \\* samples_per_class"),
        (ShapeSource, dict(num_samples=2 ** 63), 2 ** 63, "num_samples"),
        (ShapeSource, dict(input_dim=2 ** 63), 60_000, "num_samples"),
        (ShapeSource, dict(num_samples=2 ** 59, input_dim=1), 2 ** 59, "num_samples"),
    ])
    def test_corpus_past_numpys_largest_array_rejected(self, source, kwargs, rows, message):
        # NumPy refuses the (rows, d + 1) float64 design matrix; a zero-stride
        # view of that shape is refused alike, without allocating anything
        columns = kwargs.get("input_dim", source().input_dim) + 1
        with pytest.raises(ValueError):
            np.broadcast_to(np.zeros(1), (rows, columns))
        with pytest.raises(ValueError, match=f"{message}.* exceed NumPy's largest array"):
            source(**kwargs)

    def test_corpus_at_numpys_largest_array_is_built(self):
        # one row fewer than the last case above: NumPy takes the shape
        assert np.broadcast_to(np.zeros(1), (2 ** 59 - 1, 2)).nbytes == 2 ** 63 - 16
        ShapeSource(num_samples=2 ** 59 - 1, input_dim=1)
        BlobSource(num_classes=2, samples_per_class=2 ** 52 - 1, input_dim=127)


class TestDerivedCorpus:
    """A loaded corpus's figures derive from its arrays and match its source."""

    @settings(max_examples=30, deadline=None)
    @given(classes=st.integers(2, 12), dim=st.integers(1, 40),
           per_class=st.integers(1, 4), extra=st.integers(0, 60))
    def test_figures_match_the_source(self, classes, dim, per_class, extra):
        blobs = BlobSource(num_classes=classes, samples_per_class=per_class,
                           test_samples_per_class=1, input_dim=dim, spread=0.1)
        shape = ShapeSource(num_samples=classes + extra, input_dim=dim, num_classes=classes)
        for source in (blobs, shape):
            train, _ = load_source(source, seed=0)
            assert (train.input_dim, train.num_classes) == (dim, classes)
            assert train.bits_per_sample == (dim + 1) * 8
            assert type(train.bits_per_sample) is int  # keeps the cycle product exact
        assert train.features.shape == (classes + extra, dim)
        # the shape corpus holds one design row, [0, ..., 0, 1], and no features
        assert train.design.strides == (0, 8)
        assert train.design[0].tolist() == [0.0] * dim + [1.0]

    @given(classes=st.integers(2, 12), samples=st.integers(-5, 11))
    def test_shape_source_needs_a_sample_per_class(self, classes, samples):
        assume(samples < classes)
        with pytest.raises(ValueError, match="classes <= num_samples"):
            ShapeSource(num_samples=samples, input_dim=4, num_classes=classes)


def reference_repeat(sc, rep):
    """Recompute a repeat's rounds and ledger totals from its `selected` ids.

    Uses only the scalar models (the `oracles` references, `tx_time` and
    `user_compute_energy`), one client at a time, on the same seeded
    geometry, CPU draws and shards as `run_repeat`. Returns the (duration,
    uav_energy, cum_uav_energy) of each kept round, the ledger's final "uav"
    total and the per-user totals.
    """
    seed, fl, ch = sc.master_seed, sc.fl, sc.channel
    topo = build_topology(sc, rng(seed, rep.repeat, "positions"))
    vert = topo.vertical_offsets().tolist()
    delta = topo.user_xy - [rep.placement.x, rep.placement.y]
    horiz = np.hypot(delta[:, 0], delta[:, 1]).tolist()
    cpu = rng(seed, rep.repeat, "cpu").uniform(*sc.cpu_freq_range,
                                                size=fl.num_users).tolist()
    train, _ = load_source(sc.source, child_seed(seed, "data"))
    indices, offsets = partition(train, fl.num_users, scheme=sc.partition_scheme,
                                 shards_per_user=sc.shards_per_user,
                                 seed=child_seed(seed, rep.repeat, "partition"))
    shards = np.split(indices, offsets[1:-1])
    payload = (784 + 1) * 10 * ch.payload_bits_per_param  # logistic, 784 -> 10
    epochs, bits = fl.hyper.local_epochs, train.bits_per_sample

    cohorts = [m.selected for m in rep.metrics]
    if rep.halt_reason == "budget":  # the round the ledger refused
        gen = rng(child_seed(seed, rep.repeat), len(cohorts), "select")
        cohorts.append(tuple(select_clients(fl.num_users, fl.fraction, gen).tolist()))

    uav, users, rows = sc.initial_flight_energy, [0.0] * fl.num_users, []
    for selected in cohorts:
        kept = uav, list(users)
        b_up = ch.total_bandwidth / len(selected)
        per_client = []
        for u in selected:
            t_up = tx_time(payload, rate_direct(b_up, ch.user_tx_power, vert[u], horiz[u],
                                                ch.ref_gain, ch.noise))
            t_comp = user_compute_time(len(shards[u]), bits, sc.cycles_per_bit,
                                       cpu[u], epochs)
            per_client.append((t_comp, t_up))
        recipients = range(fl.num_users) if sc.broadcast_all else selected
        t_down = tx_time(payload, min(
            rate_direct(ch.uav_downlink_bandwidth, sc.uav.tx_power, vert[u], horiz[u],
                        ch.ref_gain, ch.noise) for u in recipients))
        duration = round_duration(t_down, per_client)
        energy = uav_round_energy(duration, t_down, sc.uav.propulsion_power,
                                  sc.uav.tx_power)
        uav += energy
        for u, (_, t_up) in zip(selected, per_client):
            tx = ch.user_tx_power * t_up
            comp = (user_compute_energy(cpu[u], epochs * len(shards[u]) * bits
                                        * sc.cycles_per_bit, sc.kappa)
                    if sc.kappa > 0 else 0.0)
            hover = sc.uav.propulsion_power * duration if topo.user_alt[u] > 0 else 0.0
            users[u] = users[u] + tx + comp + hover
        rows.append((duration, energy, uav))

    if rep.halt_reason == "budget":
        rows.pop()
        uav, users = kept
    return rows, uav, users


class TestRoundLoopReference:
    @pytest.mark.parametrize("compute", [False, True])
    @pytest.mark.parametrize("broadcast_all", [False, True])
    @pytest.mark.parametrize("form", ["g2a", "a2g", "a2a", "mixed"])
    def test_rounds_and_ledger_match_scalar_models(self, form, broadcast_all, compute):
        self.check(form=form, broadcast_all=broadcast_all, kappa=1e-28 if compute else 0.0)

    def test_rounds_split_into_blocks_match_scalar_models(self):
        # 2,048-client cohorts: the member-round cap splits the six rounds
        assert 2048 * 6 > scenario_module.BLOCK_MEMBER_ROUNDS >= 2048
        self.check(num_users=4096, fraction=0.5, form="mixed", broadcast_all=True,
                   kappa=1e-28)

    @staticmethod
    def check(num_users=12, fraction=0.25, **kwargs):
        sc = Scenario(fl=FlConfig(num_users=num_users, fraction=fraction,
                                  hyper=Hyperparams(local_epochs=2), max_rounds=6),
                      source=ShapeSource(num_samples=100 * num_users, input_dim=784,
                                         num_classes=10),
                      train=False, repeats=2, master_seed=3, initial_flight_energy=0.7,
                      **kwargs)
        unbounded = run_scenario(sc)
        # halt on the fifth round, so the ledger refuses one round
        budget = unbounded.repeats[0].metrics[3].cum_uav_energy
        halted = run_scenario(replace(sc, energy_budget=budget))
        assert halted.halt_reasons[0] == "budget"
        for rep in unbounded.repeats + halted.repeats:
            rows, uav, users = reference_repeat(sc, rep)
            assert [(m.duration, m.uav_energy, m.cum_uav_energy)
                    for m in rep.metrics] == rows
            assert rep.ledger.total("uav") == uav
            assert [rep.ledger.total(f"user:{u}") for u in range(num_users)] == users


class TestPerUserArrays:
    """Every entry of the user terms, and of the link terms at two hover
    points (the solver's and a random one), equals the scalar models, at a
    scale where a vectorised log2 or square would differ in the last bit."""

    # the default sub-band, and a sub-band of 25 kHz: 25 MHz over the 1,000-client cohort
    @pytest.mark.parametrize("sub_band, compute", [(None, False), (2.5e4, True)])
    @pytest.mark.parametrize("form", FORMS)
    def test_every_entry_matches_scalar_models(self, form, sub_band, compute,
                                               heights=(100.0, 10.0)):
        n, repeat, payload = 20_000, 1, 251_200
        channel = (ChannelParams() if sub_band is None
                   else ChannelParams(total_bandwidth=sub_band * cohort_size(n, 0.05)))
        altitude, ground_height = heights
        sc = Scenario(fl=FlConfig(num_users=n, fraction=0.05,
                                  hyper=Hyperparams(local_epochs=3)),
                      source=ShapeSource(num_samples=70_001, input_dim=784), train=False,
                      partition_scheme="iid", form=form, master_seed=11, channel=channel,
                      kappa=1e-28 if compute else 0.0, uav=UavProfile(altitude=altitude),
                      ground_height=ground_height)
        topo = build_topology(sc, rng(11, repeat, "positions"))
        train, _ = load_source(sc.source, 0)
        indices, offsets = partition(train, n, scheme="iid", seed=7)
        t_comp, e_comp = user_terms(sc, repeat, np.diff(offsets), train.bits_per_sample)
        shards = np.split(indices, offsets[1:-1])

        ch, bits, epochs = sc.channel, train.bits_per_sample, sc.fl.hyper.local_epochs
        cpu = rng(11, repeat, "cpu").uniform(*sc.cpu_freq_range, size=n).tolist()
        assert t_comp.tolist() == [user_compute_time(len(shards[u]), bits, sc.cycles_per_bit,
                                                     cpu[u], epochs) for u in range(n)]
        assert e_comp.tolist() == [user_compute_energy(cpu[u], epochs * len(shards[u]) * bits
                                                       * sc.cycles_per_bit, sc.kappa)
                                   if sc.kappa > 0 else 0.0 for u in range(n)]

        b_up = ch.total_bandwidth / cohort_size(n, sc.fl.fraction)
        assert b_up == (1e3 if sub_band is None else sub_band)
        vertical = topo.vertical_offsets().tolist()
        for placement in (place_server(sc, topo, rng(11, repeat, "placement")),
                          random_placement(sc.area, rng(11, repeat, "hover"))):
            t_up, e_tx, t_recv = link_terms(sc, topo.dist_sq(placement), payload)
            delta = topo.user_xy - [placement.x, placement.y]
            expected = ([], [], [])
            for vert, horiz in zip(vertical, np.hypot(delta[:, 0], delta[:, 1]).tolist()):
                up = tx_time(payload, rate_direct(b_up, ch.user_tx_power, vert, horiz,
                                                  ch.ref_gain, ch.noise))
                expected[0].append(up)
                expected[1].append(ch.user_tx_power * up)
                expected[2].append(tx_time(payload, rate_direct(
                    ch.uav_downlink_bandwidth, sc.uav.tx_power, vert, horiz, ch.ref_gain,
                    ch.noise)))
            assert t_up.tolist() == expected[0]
            assert e_tx.tolist() == expected[1]
            assert t_recv.tolist() == expected[2]
            # the compute + upload time each round takes, as `t_comp + t_up` in one sum
            assert (t_comp + t_up).tolist() == [
                user_compute_time(len(shards[u]), bits, sc.cycles_per_bit, cpu[u], epochs)
                + expected[0][u] for u in range(n)]

    @pytest.mark.parametrize("form", FORMS)
    def test_every_entry_matches_at_other_heights(self, form):
        # a flying altitude and a ground antenna height whose offsets (each
        # form has at most two distinct ones) are not the defaults'
        self.test_every_entry_matches_scalar_models(form, None, False, heights=(137.3, 23.9))

    def test_cycle_count_past_the_largest_float_is_infinite(self):
        # `float` raises from 2**1024 - 2**970 on, where the nearest float is
        # inf; `user_terms` gives inf there, which the network pass refuses
        largest = 2 ** 1024 - 2 ** 970 - 1
        for cycles, finite in ((largest, True), (largest + 1, False)):
            sc = small_scenario(train=False, cycles_per_bit=cycles)
            t_comp, _ = user_terms(sc, 0, np.ones(sc.fl.num_users, int), 1)
            assert np.isfinite(t_comp).all() == finite

    def test_coincident_user_raises_before_any_round(self, monkeypatch):
        # a2a: the sum-distance optimum of three collinear users on the
        # server's layer is the middle user, so its link has zero length
        sc = small_scenario(form="a2a", fl=FlConfig(num_users=3, fraction=1.0, max_rounds=3))
        monkeypatch.setattr(scenario_module, "build_topology", lambda sc, generator: replace(
            build_topology(sc, generator), user_xy=np.array([(0.0, 0.0), (50.0, 0.0),
                                                             (100.0, 0.0)])))
        monkeypatch.setattr(scenario_module, "select_cohorts",
                            lambda *args: pytest.fail("a round started"))
        for repeat in (0, 1):
            with pytest.raises(ValueError, match=rf"coincide: user 1 .* repeat {repeat}$"):
                run_repeat(sc, repeat)

    def test_underflowing_extent_raises_before_any_round(self, monkeypatch):
        # every squared distance underflows to 0: the build passes the
        # longest link's infinite SNR on, and the network pass refuses it
        sc = small_scenario(train=False, source=ShapeSource(), ground_height=0.0,
                            area=Area(1e-200, 1e-200), uav=UavProfile(altitude=1e-200))
        monkeypatch.setattr(scenario_module, "select_cohorts",
                            lambda *args: pytest.fail("a round started"))
        with pytest.raises(ValueError, match=r"coincide: user 0 .* repeat 0$"):
            run_scenario(sc)

    @pytest.mark.parametrize("kwargs", [
        dict(channel=ChannelParams(uav_downlink_bandwidth=1e-320)),
        dict(channel=ChannelParams(total_bandwidth=1e-320)),
        dict(kappa=1e300),
    ], ids=["downlink", "uplink", "compute-energy"])
    def test_infinite_round_raises_before_any_round(self, kwargs, monkeypatch):
        # each bandwidth is positive, but the payload takes an infinite time
        # over it; NumPy's division would warn, and the hover energy be NaN.
        # Each factor of kappa * f^2 * cycles is finite, but not the product.
        sc = small_scenario(train=False, **kwargs)
        monkeypatch.setattr(scenario_module, "select_cohorts",
                            lambda *args: pytest.fail("a round started"))
        with pytest.raises(ValueError, match="slowest possible round of repeat 0 takes an "
                                             "infinite time or energy"):
            run_scenario(sc)

    def test_overflowing_totals_raise_before_any_round(self, monkeypatch):
        # each round's energy is finite, but not the running totals of 20 rounds
        sc = small_scenario(train=False, uav=UavProfile(propulsion_power=1e308),
                            channel=ChannelParams(total_bandwidth=1e4), repeats=3,
                            fl=replace(small_scenario().fl, max_rounds=20))
        monkeypatch.setattr(scenario_module, "select_cohorts",
                            lambda *args: pytest.fail("a round started"))
        with pytest.raises(ValueError, match="or 20 of them over 3 repeats overflow a total"):
            run_scenario(sc)

    def test_the_refusal_reads_the_round_model(self, monkeypatch):
        # a model whose server energy is 1e306 times the built-in one, as several
        # hovering servers or a costlier propulsion law would raise it: 40 of its
        # rounds overflow the running total, which the refusal sees in the model
        model = scenario_module.round_model

        def costlier(*args):
            t_down, duration, server, *members = model(*args)
            return t_down, duration, server * 1e306, *members

        monkeypatch.setattr(scenario_module, "round_model", costlier)
        monkeypatch.setattr(scenario_module, "select_cohorts",
                            lambda *args: pytest.fail("a round started"))
        sc = small_scenario(train=False, channel=ChannelParams(total_bandwidth=1e4),
                            fl=replace(small_scenario().fl, max_rounds=40))
        with pytest.raises(ValueError, match="the slowest possible round of repeat 0"):
            run_repeat(sc, 0)

    @settings(max_examples=40, deadline=None)
    @given(power=st.floats(1e300, 1e308), max_rounds=st.integers(1, 20),
           repeats=st.integers(1, 3), flight=st.sampled_from([0.0, 1e306]))
    @example(power=1e306, max_rounds=20, repeats=3, flight=0.0)  # runs
    @example(power=1e308, max_rounds=20, repeats=3, flight=0.0)  # refused
    def test_an_accepted_run_writes_finite_totals_and_means(self, power, max_rounds,
                                                              repeats, flight):
        sc = small_scenario(train=False, uav=UavProfile(propulsion_power=power),
                            channel=ChannelParams(total_bandwidth=1e4), repeats=repeats,
                            initial_flight_energy=flight,
                            fl=replace(small_scenario().fl, max_rounds=max_rounds))
        try:  # an overflow warning fails the test: warnings are errors here
            result = run_scenario(sc)
        except ValueError as exc:
            assert "overflow a total" in str(exc)
            return
        fields_ = ("duration", "uav_energy", "cum_uav_energy", "budget_total")
        assert all(math.isfinite(getattr(m, f)) for rep in result.repeats
                   for m in rep.metrics for f in fields_)
        assert all(np.isfinite(result.mean(f)).all() for f in fields_)


class TestBudgetsReadOffOneRun:
    """A run under budget b keeps exactly the rounds of the run under the
    largest budget whose budget-entity total is at most b, so every budget's
    best accuracy can be read off that one run."""

    @settings(max_examples=40, deadline=None)
    @given(form=st.sampled_from(FORMS), user=st.none() | st.integers(0, 5),
           eval_stride=st.integers(1, 3), flight=st.sampled_from([0.0, 0.4]),
           compute=st.booleans(), seed=st.integers(0, 3),
           picks=st.lists(st.tuples(st.floats(0.0, 1.0), st.sampled_from([0.5, 1.0, 1.5])),
                          min_size=1, max_size=3))
    def test_matches_a_run_per_budget(self, form, user, eval_stride, flight, compute,
                                      seed, picks):
        sc = small_scenario(form=form, eval_stride=eval_stride,
                            budget_entity="uav" if user is None else f"user:{user}",
                            initial_flight_energy=flight,
                            kappa=1e-28 if compute else 0.0, master_seed=seed)
        # budgets on, below and above the totals the rounds reach
        probe = run_scenario(replace(sc, train=False))
        totals = sorted(m.budget_total for rep in probe.repeats for m in rep.metrics)
        grid = [max(totals[int(p * (len(totals) - 1))] * scale, 1e-9) for p, scale in picks]
        largest = run_scenario(replace(sc, energy_budget=max(grid)))
        for budget in grid:
            read = largest.mean_best_accuracy_within(budget)
            alone = run_scenario(replace(sc, energy_budget=budget))
            direct = alone.mean_best_accuracy_within(math.inf)
            assert read == direct or (math.isnan(read) and math.isnan(direct))


class TestColumnReductions:
    """`mean` and `best_accuracy_within` equal the row-by-row reductions
    they replace, with `==`: the mean of the list of lists of a column's
    values over the common rounds, and Python's `max` over the kept rounds
    within the budget that have a test accuracy."""

    @settings(max_examples=30, deadline=None)
    @given(eval_stride=st.integers(1, 3), repeats=st.integers(1, 3), seed=st.integers(0, 3),
           halt=st.none() | st.floats(0.2, 1.0),
           picks=st.lists(st.floats(0.0, 1.2), min_size=1, max_size=4))
    @example(eval_stride=3, repeats=2, seed=0, halt=0.3, picks=[0.1])  # NaN cells only
    def test_match_row_by_row_references(self, eval_stride, repeats, seed, halt, picks):
        sc = small_scenario(eval_stride=eval_stride, repeats=repeats, master_seed=seed,
                            fl=replace(small_scenario().fl, max_rounds=7))
        top = max(rep.metrics.budget_total[-1] for rep in run_scenario(
            replace(sc, train=False)).repeats)
        if halt is not None:  # the repeats halt on the budget, at different rounds
            sc = replace(sc, energy_budget=halt * top)
        result = run_scenario(sc)
        common = result.common_rounds
        for name in FLOAT_COLUMNS:
            rows = np.array([[getattr(m, name) for m in rep.metrics[:common]]
                             for rep in result.repeats]).mean(axis=0)
            assert np.array_equal(result.mean(name), rows, equal_nan=True), name
        # no round, rounds without a test accuracy, some rounds and every one
        for budget in [0.0, *(pick * top for pick in picks), math.inf]:
            for rep in result.repeats:
                accs = [m.test_acc for m in rep.metrics
                        if m.budget_total <= budget and not math.isnan(m.test_acc)]
                want, got = max(accs) if accs else math.nan, rep.best_accuracy_within(budget)
                assert got == want or (math.isnan(got) and math.isnan(want))


class TestBudgetHaltTotals:
    """A budget-halted repeat's ledger totals are those of its last kept
    round, bit for bit: the refused round leaves no trace."""

    @settings(max_examples=40, deadline=None)
    @given(form=st.sampled_from(FORMS), user=st.none() | st.integers(0, 5),
           flight=st.sampled_from([0.0, 0.7]), compute=st.booleans(),
           seed=st.integers(0, 5), pick=st.floats(0.0, 1.0))
    # budgets where adding the refused round and subtracting it again is inexact
    @example(form="g2a", user=None, flight=0.0, compute=False, seed=2, pick=0.0)
    @example(form="g2a", user=2, flight=0.0, compute=False, seed=1, pick=1.0)
    def test_totals_equal_the_last_kept_round(self, form, user, flight, compute, seed, pick):
        sc = small_scenario(form=form, train=False, initial_flight_energy=flight,
                            budget_entity="uav" if user is None else f"user:{user}",
                            kappa=1e-28 if compute else 0.0, master_seed=seed)
        totals = [m.budget_total for m in run_repeat(sc, 0).metrics[:-1]
                  if m.budget_total > 0]
        assume(totals)
        rep = run_repeat(replace(sc, energy_budget=totals[int(pick * (len(totals) - 1))]), 0)
        assume(rep.halt_reason == "budget")
        assert rep.ledger.total("uav") == rep.metrics[-1].cum_uav_energy
        assert rep.ledger.total(sc.budget_entity) == rep.metrics[-1].budget_total


def ledger_totals(rep, num_users):
    return [rep.ledger.total(e) for e in ["uav"] + [f"user:{u}" for u in range(num_users)]]


def assert_same_repeats(got, want, num_users):
    """Bit for bit: metrics (NaN-safe), halt, placement and ledger totals."""
    assert [rep.repeat for rep in got] == [rep.repeat for rep in want]
    for a, b in zip(got, want):
        assert repr(a.metrics.tolist()) == repr(b.metrics.tolist())
        assert a.halt_reason == b.halt_reason
        assert a.placement == b.placement
        assert ledger_totals(a, num_users) == ledger_totals(b, num_users)


def lane_floats(spec, batch):
    """The floats a lane of a training call holds: its weights and gradient,
    its gathered batch rows and the MLP's activations."""
    floats = 2 * param_count(spec) + batch * (spec.input_dim + 1)
    return floats + batch * (spec.hidden_dim + 1) if spec.kind == "mlp" else floats


@pytest.fixture
def calls(monkeypatch):
    """Each `train_cohort` call's lane count, spec and batch size."""
    real_train, recorded = fedavg_module.train_cohort, []

    def recording_train(params, design, labels, lanes, spec, hyper, seeds):
        recorded.append((len(lanes), spec, hyper.batch_size))
        return real_train(params, design, labels, lanes, spec, hyper, seeds)

    monkeypatch.setattr(fedavg_module, "train_cohort", recording_train)
    return recorded


class TestLockstepGroups:
    """A repeat trained with others in lockstep calls, serially or through
    the pool, equals the repeat run alone; no lockstep call holds more than
    MAX_CALL_FLOATS floats unless it holds one repeat; each round packs its
    live repeats into as few calls as that allows; and each process runs one
    contiguous share of the repeats."""

    @settings(max_examples=30, deadline=None)
    @given(form=st.sampled_from(FORMS), partition_scheme=st.sampled_from(["iid", "sharded"]),
           kind=st.sampled_from(["logistic", "mlp"]), eval_stride=st.sampled_from([1, 3]),
           # under a bound of 1,200 floats, cohorts of 3 put five logistic or two MLP
           # repeats in a call, and cohorts of 18 one
           users=st.sampled_from([(6, 0.5), (20, 0.9)]), repeats=st.integers(1, 7),
           pick=st.floats(0.3, 1.0), seed=st.integers(0, 3))
    def test_group_members_equal_lone_repeats(self, form, partition_scheme, kind,
                                              eval_stride, users, repeats, pick, seed):
        num_users, fraction = users
        sc = small_scenario(
            fl=FlConfig(num_users=num_users, fraction=fraction,
                        hyper=Hyperparams(local_epochs=1, batch_size=10), max_rounds=7),
            source=BlobSource(num_classes=3, samples_per_class=40,
                              test_samples_per_class=10, input_dim=4, spread=0.1),
            form=form, partition_scheme=partition_scheme, model_kind=kind, hidden_dim=3,
            eval_stride=eval_stride, repeats=repeats, master_seed=seed)
        # a budget under which the repeats halt at different rounds, or not at all
        probe = run_scenario(replace(sc, train=False))
        sc = replace(sc, energy_budget=pick * max(rep.metrics[-1].budget_total
                                                  for rep in probe.repeats))
        alone = [run_repeat(sc, r) for r in range(repeats)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scenario_module, "MAX_CALL_FLOATS", 1200)
            for jobs in (1, 2):
                clear_stores()  # so the shares train, not read what the lone repeats trained
                assert_same_repeats(run_scenario(sc, jobs=jobs).repeats, alone, num_users)

    # 700 samples a class: every shard holds at least a batch, so a logistic lane holds
    # 2 x 15 + 10 x 5 = 80 floats; under a bound of 1,280, a call holds 8 repeats of
    # 2-client cohorts, 2 of 7-client ones, and one 18-client cohort exceeds it alone
    @pytest.mark.parametrize("num_users, fraction, repeats, bound, calls_per_round", [
        (100, 0.02, 20, 1280, 3),  # cohorts of 2: calls of 8, 8 and 4 repeats
        (70, 0.1, 5, 1280, 3),     # cohorts of 7: calls of 2, 2 and 1
        (20, 0.9, 3, 1280, 3),     # a cohort of 18 exceeds the bound alone
        (100, 0.02, 20, None, 1),  # the module's bound: the case study's cohorts in one call
    ])
    def test_lockstep_calls_within_float_bound(self, monkeypatch, calls, num_users, fraction,
                                               repeats, bound, calls_per_round):
        if bound is not None:
            monkeypatch.setattr(scenario_module, "MAX_CALL_FLOATS", bound)
        sc = small_scenario(fl=FlConfig(num_users=num_users, fraction=fraction,
                                        hyper=Hyperparams(local_epochs=1), max_rounds=2),
                            source=BlobSource(num_classes=3, samples_per_class=700,
                                              test_samples_per_class=5, input_dim=4),
                            repeats=repeats)
        result = run_scenario(sc)
        cohort = cohort_size(num_users, fraction)
        assert len(calls) == 2 * calls_per_round
        for lanes, spec, batch in calls:
            assert (lanes * lane_floats(spec, batch) <= scenario_module.MAX_CALL_FLOATS
                    or lanes == cohort)
        assert sum(lanes for lanes, *_ in calls) == sum(
            len(m.selected) for rep in result.repeats for m in rep.metrics)

    def test_each_round_packs_its_live_repeats(self, monkeypatch, calls):
        # cohorts of 3, five repeats to a call; the repeats halt at different rounds
        sc = small_scenario(fl=FlConfig(num_users=6, fraction=0.5, max_rounds=8,
                                        hyper=Hyperparams(local_epochs=1, batch_size=10)),
                            repeats=7, master_seed=0)
        probe = run_scenario(replace(sc, train=False))
        sc = replace(sc, energy_budget=0.6 * max(rep.metrics[-1].budget_total
                                                 for rep in probe.repeats))
        clear_stores()
        spec = ModelSpec("logistic", 4, 3, sc.hidden_dim)  # shards of 15: a batch of 10
        monkeypatch.setattr(scenario_module, "MAX_CALL_FLOATS", 5 * 3 * lane_floats(spec, 10))
        result = run_scenario(sc)
        kept = [len(rep.metrics) for rep in result.repeats]
        live = [[i for i, k in enumerate(kept) if k > rnd] for rnd in range(max(kept))]
        # some round's live repeats sit apart, with halted repeats between them
        assert any(ids != list(range(ids[0], ids[-1] + 1)) for ids in live)
        assert {(spec_, batch) for _, spec_, batch in calls} == {(spec, 10)}
        per_call = scenario_module.MAX_CALL_FLOATS // (3 * lane_floats(spec, 10))
        assert per_call == 5
        assert len(calls) == sum(math.ceil(len(ids) / per_call) for ids in live)
        assert [lanes for lanes, *_ in calls] == [
            3 * len(ids[start:start + per_call]) for ids in live
            for start in range(0, len(ids), per_call)]

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_packings_give_the_same_bytes(self, monkeypatch, calls, kind):
        # 100 samples over 7 users: shards of 14 and 15; a budget under which the
        # repeats halt at different rounds
        sc = small_scenario(fl=FlConfig(num_users=7, fraction=0.5, max_rounds=9,
                                        hyper=Hyperparams(local_epochs=2, batch_size=4)),
                            source=BlobSource(num_classes=4, samples_per_class=25,
                                              test_samples_per_class=10, input_dim=5,
                                              spread=0.1),
                            model_kind=kind, hidden_dim=3, eval_stride=3, repeats=6)
        probe = run_scenario(replace(sc, train=False))
        sc = replace(sc, energy_budget=0.7 * max(rep.metrics[-1].budget_total
                                                 for rep in probe.repeats))
        runs = []
        for bound in (1, 2 ** 62):  # one repeat to a call, then every live repeat in one
            monkeypatch.setattr(scenario_module, "MAX_CALL_FLOATS", bound)
            clear_stores()
            calls.clear()
            result = run_scenario(sc)
            store = scenario_module._store(scenario_module._federation(sc))
            runs.append((result, dict(store), [lanes for lanes, *_ in calls]))
        (one, one_store, one_calls), (packed, packed_store, packed_calls) = runs
        kept = [len(rep.metrics) for rep in one.repeats]
        assert len(set(kept)) > 1 and min(kept) >= 3
        # the packings differ: one repeat to a call, then each round in one call
        cohort = cohort_size(7, 0.5)
        assert set(one_calls) == {cohort} and len(one_calls) == sum(kept)
        assert len(packed_calls) == max(kept) and max(packed_calls) == cohort * sc.repeats
        assert_same_repeats(packed.repeats, one.repeats, sc.fl.num_users)
        assert sorted(packed_store) == sorted(one_store) == list(range(sc.repeats))
        for r, record in one_store.items():
            other = packed_store[r]
            assert other.params.tobytes() == record.params.tobytes()
            assert repr(other.tests) == repr(record.tests)
            assert len(other.cohorts) == len(record.cohorts)
            assert all(np.array_equal(a, b) for a, b in zip(other.cohorts, record.cohorts))

    # each process runs one contiguous share of the repeats, whatever the cohort size
    @pytest.mark.parametrize("num_users, fraction, repeats, jobs, sizes", [
        (100, 0.02, 20, 1, [20]),  # the case study's cohorts of 2
        (100, 0.02, 20, 2, [10, 10]),
        (100, 0.02, 20, 3, [7, 7, 6]),
        (70, 0.1, 20, 1, [20]),  # cohorts of 7
        (70, 0.1, 20, 2, [10, 10]),
        (20, 0.9, 5, 3, [2, 2, 1]),  # never an empty share
        (100, 0.02, 3, 8, [1, 1, 1]),  # no more processes than repeats
    ])
    def test_groups_fill_the_processes(self, monkeypatch, num_users, fraction, repeats, jobs,
                                       sizes):
        import concurrent.futures

        real_run_share, shares, workers = scenario_module._run_share, [], []

        def recording_run_share(scenario, share):
            shares.append(list(share))
            return real_run_share(scenario, share)

        class InProcessPool:  # runs the shares here, where the spy sees them
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(scenario_module, "_run_share", recording_run_share)
        sc = small_scenario(fl=FlConfig(num_users=num_users, fraction=fraction),
                            source=ShapeSource(num_samples=10 * num_users), train=False,
                            repeats=repeats)
        result = run_scenario(sc, jobs=jobs)
        # one non-empty share per process, no more than the repeats, sizes within one
        assert [len(share) for share in shares] == sizes
        assert len(sizes) == min(jobs, repeats) and max(sizes) - min(sizes) <= 1
        assert workers == ([len(sizes)] if len(sizes) > 1 else [])
        # contiguous and in order, so the merge is by repeat index
        assert [r for share in shares for r in share] == list(range(repeats))
        assert [rep.repeat for rep in result.repeats] == list(range(repeats))


def clear_stores():
    scenario_module._store.cache_clear()


@pytest.fixture
def work(monkeypatch):
    """Counts of cohort draws, trained repeat-rounds and evaluations."""
    counts = {"cohorts": 0, "trained": 0, "evaluate": 0}
    select_cohorts_, run_round_, evaluate_ = (scenario_module.select_cohorts,
                                              scenario_module.run_round,
                                              scenario_module.evaluate)

    def counting_select(num_users, fraction, seeds):
        counts["cohorts"] += len(seeds)
        return select_cohorts_(num_users, fraction, seeds)

    def counting_round(params, *args):
        counts["trained"] += len(params)
        return run_round_(params, *args)

    def counting_evaluate(*args):
        counts["evaluate"] += 1
        return evaluate_(*args)

    monkeypatch.setattr(scenario_module, "select_cohorts", counting_select)
    monkeypatch.setattr(scenario_module, "run_round", counting_round)
    monkeypatch.setattr(scenario_module, "evaluate", counting_evaluate)
    return counts


def work_of(run, counts):
    """The result of `run()` and the work it counted."""
    before = dict(counts)
    result = run()
    return result, {key: counts[key] - before[key] for key in counts}


STORE_RUN = st.fixed_dictionaries({
    "placement_scheme": st.sampled_from(PLACEMENT_SCHEMES),
    "user": st.none() | st.integers(0, 5),  # the budget entity: the server or a user
    "pick": st.none() | st.floats(0.2, 1.0),  # the budget, a share of the largest total
    "repeats": st.integers(1, 4),
    "max_rounds": st.integers(0, 6),
    "train": st.booleans(),
    "eval_stride": st.sampled_from([1, 2]),
    "jobs": st.sampled_from([1, 2]),
    "learning_rate": st.sampled_from([0.01, 0.05]),  # a keyed field: nothing is shared
})


class TestFederationStores:
    """Every run of a federation reads the cohorts drawn and the rounds
    trained by earlier runs in the process, draws and trains only beyond
    them, and equals the same run from a cold store bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 3), kind=st.sampled_from(["logistic", "mlp"]),
           runs=st.lists(STORE_RUN, min_size=2, max_size=4))
    # a later run needs more rounds, and more repeats, than the store holds
    @example(seed=0, kind="logistic", runs=[
        dict(placement_scheme="random", user=None, pick=0.5, repeats=2, max_rounds=3,
             train=True, eval_stride=1, jobs=1, learning_rate=0.01),
        dict(placement_scheme="min_sum_dist", user=None, pick=None, repeats=3,
             max_rounds=6, train=True, eval_stride=1, jobs=1, learning_rate=0.01)])
    # a keyed field changes between two training runs
    @example(seed=1, kind="mlp", runs=[
        dict(placement_scheme="min_sum_dist", user=None, pick=None, repeats=2, max_rounds=4,
             train=True, eval_stride=1, jobs=1, learning_rate=lr) for lr in (0.01, 0.05)])
    def test_each_run_equals_a_run_from_cold_stores(self, seed, kind, runs):
        base = small_scenario(
            fl=FlConfig(num_users=6, fraction=0.5,
                        hyper=Hyperparams(local_epochs=1, batch_size=10), max_rounds=6),
            model_kind=kind, hidden_dim=3, master_seed=seed)
        clear_stores()
        probe = run_scenario(replace(base, train=False, repeats=4))
        scenarios = []
        for run in runs:
            entity = "uav" if run["user"] is None else f"user:{run['user']}"
            largest = max(rep.ledger.total(entity) for rep in probe.repeats)
            scenarios.append(replace(
                base, placement_scheme=run["placement_scheme"], budget_entity=entity,
                energy_budget=(math.inf if run["pick"] is None
                               else max(run["pick"] * largest, 1e-9)),
                repeats=run["repeats"], train=run["train"], eval_stride=run["eval_stride"],
                fl=replace(base.fl, max_rounds=run["max_rounds"],
                           hyper=replace(base.fl.hyper, learning_rate=run["learning_rate"]))))
        cold = []
        for sc in scenarios:
            clear_stores()
            cold.append(run_scenario(sc).repeats)
        clear_stores()
        for sc, run, want in zip(scenarios, runs, cold):
            assert_same_repeats(run_scenario(sc, jobs=run["jobs"]).repeats, want, 6)

    def test_compare_placement_draws_and_trains_once(self, work, tmp_path):
        from agifl import cli

        config = Path(__file__).resolve().parents[1] / "configs" / "case_study.ini"
        assert cli.main(["compare-placement", str(config), "--seed", "0",
                         "--out", str(tmp_path)]) == 0
        # panel A draws 20 repeats x 100 rounds once for both schemes; panel
        # B's random repeats keep at most the rounds min_sum_dist trained
        assert work == {"cohorts": 2000, "trained": 319, "evaluate": 319}

    def test_continuation_draws_and_trains_only_new_rounds(self, work):
        sc = small_scenario(repeats=2, fl=replace(small_scenario().fl, max_rounds=3))
        work_of(lambda: run_scenario(replace(sc, train=False)), work)
        # the training run reads the cohorts the timing-only run drew
        assert work_of(lambda: run_scenario(sc), work)[1] == {
            "cohorts": 0, "trained": 6, "evaluate": 6}
        longer = replace(sc, placement_scheme="random", repeats=3,
                         fl=replace(sc.fl, max_rounds=5))
        warm, warm_work = work_of(lambda: run_scenario(longer), work)
        # two more rounds for repeats 0 and 1, five for the new repeat 2
        assert warm_work == {"cohorts": 9, "trained": 9, "evaluate": 9}
        clear_stores()
        cold, cold_work = work_of(lambda: run_scenario(longer), work)
        assert cold_work == {"cohorts": 15, "trained": 15, "evaluate": 15}
        assert_same_repeats(warm.repeats, cold.repeats, 6)

    def test_pool_workers_hand_back_their_store_entries(self):
        sc = small_scenario(repeats=4)
        assert sc.repeats >= 2  # so jobs=2 runs two shares, one per pool worker
        stores, results = [], []
        for jobs in (1, 2):
            clear_stores()
            results.append(run_scenario(sc, jobs=jobs))
            stores.append(scenario_module._store(scenario_module._federation(sc)))
            # a result's `selected` column holds the store record's own cohorts, not
            # copies, also where the pool's pickles carried both; the benchmark's
            # tracer reads `len(rep.metrics)` and `rep.metrics[k].selected`
            for rep in results[-1].repeats:
                assert len(rep.metrics) == sc.fl.max_rounds
                for k, cohort in enumerate(stores[-1][rep.repeat].cohorts):
                    assert rep.metrics.selected[k] is cohort
                    assert rep.metrics[k].selected is cohort
        store, pooled = stores
        assert sorted(pooled) == sorted(store) == list(range(4))
        for r in store:
            assert len(pooled[r].cohorts) == len(store[r].cohorts) == sc.fl.max_rounds
            assert all(np.array_equal(p, c)
                       for p, c in zip(pooled[r].cohorts, store[r].cohorts))
        # a stored cohort is read-only, also where a pool worker handed it
        # back: unpickled arrays come back writeable
        stored = [c for records in (store, pooled) for record in records.values()
                  for c in record.cohorts]
        for cohort in stored + [c for result in results for rep in result.repeats
                                for c in rep.metrics.selected]:
            assert not cohort.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                cohort[0] = -1
        for r in store:
            assert np.array_equal(pooled[r].params, store[r].params)
            assert pooled[r].tests == store[r].tests

    def test_stored_cohorts_keep_at_most_16_bytes_per_id(self):
        # an int64 array keeps 8 B per id; a tuple of Python ints kept about 40
        sc = Scenario(fl=FlConfig(num_users=5000, fraction=0.2, max_rounds=50),
                      source=ShapeSource(), train=False, repeats=2, partition_scheme="iid")
        load_corpus(sc.source, sc.master_seed)  # the corpus cache is not the run's
        tracemalloc.start()
        try:
            result = run_scenario(sc)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        ids = sum(len(m.selected) for rep in result.repeats for m in rep.metrics)
        assert ids == 2 * 50 * 1000
        assert kept <= 16 * ids

    @pytest.mark.parametrize("num_users, fraction", [(6, 0.5), (2000, 0.35), (4000, 0.75)],
                             ids=["small-cohorts", "five-round-blocks",
                                  "cohorts-split-into-blocks"])
    @pytest.mark.parametrize("entity", ["uav", "user:3"])
    def test_a_record_holds_the_cohorts_a_round_by_round_loop_draws(
            self, entity, num_users, fraction):
        # a halted repeat's record holds its kept rounds and the round the
        # ledger refused, an unhalted one's every round: the network pass
        # drops what its last block drew past the refused round
        sc = Scenario(fl=FlConfig(num_users=num_users, fraction=fraction, max_rounds=12),
                      source=ShapeSource(num_samples=100 * num_users), train=False,
                      repeats=6, budget_entity=entity, master_seed=2)
        clear_stores()
        totals = sorted(rep.ledger.total(entity) for rep in run_scenario(sc).repeats)
        halted = []
        for budget, halts in ((totals[2], {"budget", "max_rounds"}), (1e-9, {"budget"})):
            clear_stores()
            result = run_scenario(replace(sc, energy_budget=budget))
            assert set(result.halt_reasons) == halts
            store = scenario_module._store(scenario_module._federation(sc))
            for rep in result.repeats:
                assert len(store[rep.repeat].cohorts) == (
                    len(rep.metrics) + 1 if rep.halt_reason == "budget" else 12)
            halted += [len(rep.metrics) for rep in result.repeats if rep.halt_reason == "budget"]
        # some repeat halts past round 5: with 700-member cohorts, inside a later 5-round block
        assert max(halted) > 5

    def test_a_block_of_rounds_draws_the_cohorts_of_a_round_by_round_loop(self, monkeypatch):
        # the case study's 100 rounds fill one block, which draws its 2-of-100 cohorts
        # in one array pass; the store tests' blocks are too short for that path
        sc = Scenario(train=False, repeats=1)
        assert sc.fl.max_rounds == 100 >= fedavg_module.BLOCK_DRAW_ROUNDS
        per_round = []
        monkeypatch.setattr(fedavg_module, "select_clients",
                            lambda *args: per_round.append(args) or select_clients(*args))
        clear_stores()
        rep = run_scenario(sc).repeats[0]
        assert len(rep.metrics) == 100 and len(per_round) < 10  # the rejection redraws
        master = child_seed(sc.master_seed, rep.repeat)
        for r, cohort in enumerate(rep.metrics.selected):
            want = select_clients(sc.fl.num_users, sc.fl.fraction, rng(master, r, "select"))
            assert cohort.dtype == want.dtype and np.array_equal(cohort, want)
            assert not cohort.flags.writeable

    @pytest.mark.parametrize("change", [
        lambda sc: replace(sc, fl=replace(sc.fl, hyper=replace(sc.fl.hyper,
                                                               learning_rate=0.02))),
        lambda sc: replace(sc, partition_scheme="sharded", shards_per_user=1),
        lambda sc: replace(sc, eval_stride=2),
        lambda sc: replace(sc, fl=replace(sc.fl, fraction=1 / 3)),
        lambda sc: replace(sc, master_seed=sc.master_seed + 1),
    ], ids=["learning_rate", "partition_scheme", "eval_stride", "fraction", "master_seed"])
    def test_a_keyed_field_reuses_nothing(self, work, change):
        sc = small_scenario()
        work_of(lambda: run_scenario(sc), work)
        warm, warm_work = work_of(lambda: run_scenario(change(sc)), work)
        clear_stores()
        cold, cold_work = work_of(lambda: run_scenario(change(sc)), work)
        assert warm_work == cold_work
        assert cold_work["trained"] > 0
        assert_same_repeats(warm.repeats, cold.repeats, 6)
